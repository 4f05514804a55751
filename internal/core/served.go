package core

import (
	"fmt"

	"ssmobile/internal/cluster"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
	"ssmobile/internal/workload"
)

// ServedCardConfig describes one served card: a full solid-state stack
// (card, engine, storage manager, file system) aged to a chosen point in
// its life, behind its own server.
type ServedCardConfig struct {
	// Name, when set, makes the card a cluster node: it is the node's name
	// on the placement ring and is stamped onto every span the card's
	// stack records, so a merged cross-node trace still attributes each
	// span to its card.
	Name string
	// System parameterises the card stack. System.Obs is the one observer
	// the whole card — stack and server — reports to (nil falls back to
	// obs.Default()). A cluster gives every card a private one: per-card
	// telemetry must stay isolated for the fleet view's node labels and
	// for deterministic merging.
	System SolidStateConfig
	// AgeBytes streams this much data through the stack and deletes it
	// before serving, leaving the card full of dead pages as months of
	// use would.
	AgeBytes int64
	// Server parameterises the server over the stack; its Obs is
	// overridden with the card's observer.
	Server server.Config
}

// ServedCard is a card stack and the server over it. The embedded Node
// is what cluster.New routes to; a card served alone uses Srv directly.
type ServedCard struct {
	*cluster.Node
	// Sys is the card stack Srv serves from. Restart replaces it with the
	// stack recovered from flash.
	Sys *SolidStateSystem
}

// NewServedCard is the one way a served card is put together: the card
// stack, its aging, the server over it, and a restart hook that recovers
// the card from flash after a power cut (synced data survives, unsynced
// DRAM is lost) and serves the recovered stack with the same
// configuration.
func NewServedCard(cfg ServedCardConfig) (*ServedCard, error) {
	sys, err := NewSolidState(cfg.System)
	if err != nil {
		return nil, fmt.Errorf("served card %q: %w", cfg.Name, err)
	}
	o := sys.cfg.Obs
	if cfg.Name != "" && o != nil && o.Tracer != nil {
		o.Tracer.SetNode(cfg.Name)
	}
	if cfg.AgeBytes > 0 {
		if err := ageDevice(sys, cfg.AgeBytes); err != nil {
			return nil, fmt.Errorf("aging served card %q: %w", cfg.Name, err)
		}
	}
	cfg.Server.Obs = o
	card := &ServedCard{
		Node: &cluster.Node{Name: cfg.Name, Clock: sys.Clock(), Obs: o},
		Sys:  sys,
	}
	serve := func() (*server.Server, error) {
		return server.New(server.Backend{
			FS: card.Sys.FS, Storage: card.Sys.Storage, Engine: card.Sys.Engine, Clock: card.Clock,
		}, cfg.Server)
	}
	if card.Srv, err = serve(); err != nil {
		return nil, fmt.Errorf("served card %q: %w", cfg.Name, err)
	}
	card.Restart = func() (*server.Server, error) {
		card.Sys.DRAM.PowerFail()
		recovered, err := card.Sys.RemountAfterPowerFailure()
		if err != nil {
			return nil, err
		}
		card.Sys = recovered
		return serve()
	}
	return card, nil
}

// E12Card is the card every serving experiment runs on, reporting to o:
// 8MB of DRAM (a 1MB write buffer and a 512KB recovery box) over 8MB of
// flash, idle-cleaning to 24 free blocks. The short write-back delay
// keeps the buffer draining between requests; saturation then hinges on
// flash bandwidth, not on the 30s syncer cadence dwarfing the run.
func E12Card(o *obs.Observer) SolidStateConfig {
	return SolidStateConfig{
		DRAMBytes:       8 << 20,
		FlashBytes:      8 << 20,
		BufferBytes:     1 << 20,
		RBoxBytes:       512 << 10,
		IdleCleanBlocks: 24,
		WriteBackDelay:  2 * sim.Second,
		Obs:             o,
	}
}

// E12Traffic is the E12 workload: open-loop clients at 10 op/s each
// issuing 4KB transfers against six 32KB Zipf-popular objects, a fraction
// w of the requests mutating (90% writes, the rest truncates, deletes and
// syncs). The experiments built on "the E12 workload" vary the client
// count, run length and write ratio here and the key space or transfer
// sizes on the result.
func E12Traffic(seed int64, clients, opsPerClient int, w float64) workload.Config {
	return workload.Config{
		Seed:          seed,
		Clients:       clients,
		OpsPerClient:  opsPerClient,
		Keys:          6,
		ObjectBytes:   32 << 10,
		MinWriteBytes: 4096,
		MaxWriteBytes: 4096,
		Mix: workload.Mix{
			Read:     1 - w,
			Write:    w * 0.90,
			Truncate: w * 0.02,
			Delete:   w * 0.03,
			Sync:     w * 0.05,
		},
		Popularity:    workload.Zipf,
		ZipfSkew:      1.2,
		Arrival:       workload.OpenLoop,
		RatePerClient: 10,
	}
}

// ageDevice simulates a device with history: it streams bytes through
// the stack into flash, syncs, and deletes the file — leaving the card
// populated with dead pages that only the cleaner can reclaim. A fresh
// card never needs the cleaner inside a short run; an aged one starts at
// the free-space margin where idle-time cleaning (or the lack of idle
// time) decides the tail.
func ageDevice(sys *SolidStateSystem, bytes int64) error {
	const chunk = 4096
	if err := sys.FS.Create("/age"); err != nil {
		return err
	}
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i)
	}
	for off := int64(0); off < bytes; off += chunk {
		if _, err := sys.FS.WriteAt("/age", off, buf); err != nil {
			return err
		}
		if err := sys.Storage.Tick(sim.Forever); err != nil {
			return err
		}
	}
	if err := sys.FS.Sync(); err != nil {
		return err
	}
	return sys.FS.Remove("/age")
}
