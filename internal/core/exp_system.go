package core

import (
	"errors"
	"fmt"

	"ssmobile/internal/device"
	"ssmobile/internal/dram"
	"ssmobile/internal/fs"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"
	"ssmobile/internal/trace"
)

// E8Sizing regenerates the paper's §4 question: "How should a system
// apportion its storage capacity between the two technologies?" A fixed
// 40MB budget is split between DRAM and flash and two workloads with
// different writable working sets are run over each split. The best split
// depends on the workload — exactly the paper's (non-)answer.
func E8Sizing(env *Env, seed int64) (*Table, error) {
	const budget = 40 << 20
	splits := []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20}

	workloads := []struct {
		name string
		cfg  trace.BakerConfig
	}{
		{"small write working set", func() trace.BakerConfig {
			c := trace.DefaultBaker(10*sim.Minute, seed)
			c.OverwriteFrac = 0.6
			c.HotSkew = 2.0 // overwrites concentrate on very few files
			return c
		}()},
		{"large write working set", func() trace.BakerConfig {
			c := trace.DefaultBaker(10*sim.Minute, seed+1)
			c.OverwriteFrac = 0.6
			c.HotSkew = 1.01 // overwrites spread over many files
			return c
		}()},
	}

	t := &Table{
		ID:    "E8",
		Title: fmt.Sprintf("apportioning a %dMB budget between DRAM and flash", budget>>20),
		Headers: []string{"workload", "DRAM/flash", "flash MB written", "reduction",
			"mean write", "energy", "outcome"},
	}
	// Generate both workload traces up front (cheap), then run the full
	// workload x split grid as one batch of independent simulations.
	traces := make([]*trace.Trace, len(workloads))
	for i, wl := range workloads {
		tr, err := trace.GenerateBaker(wl.cfg)
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}
	n := len(workloads) * len(splits)
	rows := make([][]string, n)
	err := env.ForEach(n, func(i int, je *Env) error {
		wl := workloads[i/len(splits)]
		dramBytes := splits[i%len(splits)]
		flashBytes := int64(budget) - dramBytes
		sys, err := NewSolidState(SolidStateConfig{
			DRAMBytes:   dramBytes,
			FlashBytes:  flashBytes,
			BufferBytes: dramBytes / 4,
			RBoxBytes:   512 << 10,
			Obs:         je.Obs(),
		})
		if err != nil {
			return err
		}
		split := fmt.Sprintf("%d/%dMB", dramBytes>>20, flashBytes>>20)
		st, err := Replay(je.Obs(), sys, traces[i/len(splits)])
		outcome := "ok"
		if err != nil {
			if errors.Is(err, storman.ErrNoFlash) || errors.Is(err, storman.ErrNoDRAM) {
				outcome = "OUT OF SPACE"
			} else {
				return fmt.Errorf("%s %s: %w", wl.name, split, err)
			}
		}
		ss := sys.Storage.Stats()
		rows[i] = []string{wl.name, split,
			fmt.Sprintf("%.1f", float64(ss.FlushedBytes)/(1<<20)),
			fmt.Sprintf("%.0f%%", ss.Reduction()*100),
			fmtDur(sim.Duration(st.WriteLatency.Mean())),
			sys.Meter().Total().String(),
			outcome,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"small flash fails as the permanent-data repository; small DRAM buffers poorly and wears flash;",
		"the right ratio depends on the writable working set (paper: 'the answer depends on the workload')")
	return t, nil
}

// E9EndToEnd runs the same Sprite-like day-in-the-life trace on the full
// solid-state organisation and on the conventional disk organisation and
// compares them head to head — the paper's overall thesis as one table.
func E9EndToEnd(env *Env, seed int64) (*Table, error) {
	tr, err := trace.GenerateBaker(trace.DefaultBaker(30*sim.Minute, seed))
	if err != nil {
		return nil, err
	}
	// The two organisations replay the same trace on independent virtual
	// clocks — run them as two jobs.
	var (
		solid                 *SolidStateSystem
		dsys                  *DiskSystem
		solidStats, diskStats ReplayStats
	)
	err = env.ForEach(2, func(i int, je *Env) error {
		if i == 0 {
			s, err := NewSolidState(SolidStateConfig{
				DRAMBytes: 16 << 20, FlashBytes: 64 << 20, RBoxBytes: 4 << 20, SnapshotEvery: 2048,
				Obs: je.Obs(),
			})
			if err != nil {
				return err
			}
			if solidStats, err = Replay(je.Obs(), s, tr); err != nil {
				return err
			}
			solid = s
			return s.Sync()
		}
		d, err := NewDisk(DiskConfig{DRAMBytes: 16 << 20, DiskBytes: 64 << 20, Obs: je.Obs()})
		if err != nil {
			return err
		}
		if diskStats, err = Replay(je.Obs(), d, tr); err != nil {
			return err
		}
		dsys = d
		return d.Sync()
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E9",
		Title:   "whole-system comparison on a 30-minute office workload",
		Headers: []string{"metric", "solid-state", "disk"},
	}
	row := func(metric string, f func(ReplayStats) string) {
		t.AddRow(metric, f(solidStats), f(diskStats))
	}
	row("read latency mean", func(s ReplayStats) string { return fmtDur(sim.Duration(s.ReadLatency.Mean())) })
	row("read latency p99", func(s ReplayStats) string { return fmtDur(sim.Duration(s.ReadLatency.P99)) })
	row("write latency mean", func(s ReplayStats) string { return fmtDur(sim.Duration(s.WriteLatency.Mean())) })
	row("write latency p99", func(s ReplayStats) string { return fmtDur(sim.Duration(s.WriteLatency.P99)) })
	row("create latency mean", func(s ReplayStats) string { return fmtDur(sim.Duration(s.CreateLatency.Mean())) })
	row("total energy", func(s ReplayStats) string { return s.EnergyTotal.String() })

	ss := solid.Storage.Stats()
	fstats := solid.Flash.Stats()
	dstats := dsys.Disk.Stats()
	t.AddRow("flash write traffic", fmt.Sprintf("%.1fMB (%.0f%% absorbed)",
		float64(ss.FlushedBytes)/(1<<20), ss.Reduction()*100), "-")
	t.AddRow("max block erase count", fmt.Sprint(fstats.MaxEraseCount), "-")
	t.AddRow("disk spin-ups", "-", fmt.Sprint(dstats.Spinups))
	t.AddRow("disk seeks (time)", "-", fmtDur(sim.Duration(dstats.SeekNs)))
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload: %d ops, %.0fMB written, %.0fMB read",
			solidStats.Ops, float64(solidStats.BytesWritten)/(1<<20), float64(solidStats.BytesRead)/(1<<20)))
	return t, nil
}

// E9FlashParts is the ablation the paper's §2 invites: of the two 1993
// flash design points — Intel's memory-mapped part (very fast reads, slow
// 10µs/byte writes, huge slow erase blocks) and SunDisk's
// drive-replacement part (slower block reads, much faster writes and
// small quick erases) — which makes the better substrate under the same
// file-system workload?
func E9FlashParts(env *Env, seed int64) (*Table, error) {
	tr, err := trace.GenerateBaker(trace.DefaultBaker(15*sim.Minute, seed))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "E9b",
		Title:   "flash part ablation: Intel (memory-mapped) vs SunDisk (drive replacement)",
		Headers: []string{"part", "read mean", "read p99", "write mean", "write p99", "energy"},
	}
	// The SunDisk part erases 512B sectors in 4ms; managed at a 16KB
	// granularity that is 32 sectors, 128ms per management block.
	sd := device.SunDiskFlash
	sd.EraseBlockBytes = 16 << 10
	sd.EraseLatencyNs *= 32
	parts := []struct {
		name       string
		params     device.Params
		eraseBlock int
	}{
		{"Intel Series 2 (64KB blocks, 1.6s erase)", device.IntelFlash, 64 << 10},
		{"SunDisk SDP (16KB mgmt blocks, 128ms erase)", sd, 16 << 10},
	}
	rows := make([][]string, len(parts))
	err = env.ForEach(len(parts), func(i int, je *Env) error {
		p := parts[i]
		sys, err := NewSolidState(SolidStateConfig{
			DRAMBytes: 16 << 20, FlashBytes: 64 << 20,
			EraseBlockBytes: p.eraseBlock,
			FlashParams:     &p.params,
			Obs:             je.Obs(),
		})
		if err != nil {
			return err
		}
		st, err := Replay(je.Obs(), sys, tr)
		if err != nil {
			return err
		}
		rows[i] = []string{p.name,
			fmtDur(sim.Duration(st.ReadLatency.Mean())),
			fmtDur(sim.Duration(st.ReadLatency.P99)),
			fmtDur(sim.Duration(st.WriteLatency.Mean())),
			fmtDur(sim.Duration(st.WriteLatency.P99)),
			sys.Meter().Total().String()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.addRows(rows)
	t.Notes = append(t.Notes,
		"with the write buffer absorbing writes, the Intel part's fast reads win the foreground;",
		"the SunDisk part's cheap erases matter once sustained writes push past the buffer")
	return t, nil
}

// E10CrashAndBattery regenerates the paper's stability story (§3.1): how
// long batteries preserve DRAM, what an OS crash costs (nothing, thanks
// to the recovery box), and what a power failure costs under different
// checkpoint policies.
func E10CrashAndBattery(env *Env, seed int64) ([]*Table, error) {
	retention := &Table{
		ID:      "E10a",
		Title:   "battery retention of a 16MB battery-backed DRAM (NEC self-refresh)",
		Headers: []string{"source", "capacity", "idle draw", "retention"},
	}
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	dr, err := dram.New(dram.Config{CapacityBytes: 16 << 20, Params: device.NECDram, Obs: env.Obs()}, clock, meter)
	if err != nil {
		return nil, err
	}
	idle := dr.IdleMilliwatts()
	primary := dram.NewPack(10, 0)
	backup := dram.NewPack(0, 0.5)
	retention.AddRow("primary batteries", "10 Wh", fmt.Sprintf("%.1f mW", idle),
		fmt.Sprintf("%.1f days", primary.RetentionAt(idle).Seconds()/86400))
	retention.AddRow("lithium backup", "0.5 Wh", fmt.Sprintf("%.1f mW", idle),
		fmt.Sprintf("%.1f hours", backup.RetentionAt(idle).Seconds()/3600))
	retention.Notes = append(retention.Notes,
		"paper: primary batteries preserve memory 'for many days', the backup 'for many hours'")

	crash := &Table{
		ID:      "E10b",
		Title:   "data at risk across failure modes (10-minute workload, 30s write-back)",
		Headers: []string{"failure", "policy", "data lost", "metadata"},
	}

	// The five failure scenarios each replay the same workload on a fresh
	// system, then fail and recover it — independent simulations, run as
	// one batch. Scenario B' reuses scenario B's lost-byte count in its
	// row (the same failure recovered a different way), which is applied
	// at assembly below.
	var (
		metaNoteA           string
		lostB, lostC        int64
		remountB2, beforeB2 int
		recCInodes          int
		lostD               string
		recD, inodesD       int
	)
	err = env.ForEach(5, func(i int, je *Env) error {
		o := je.Obs()
		switch i {
		case 0:
			// Scenario A: OS crash; recovery box restores metadata,
			// battery-backed DRAM preserves data.
			sysA, _, err := e10Run(o, seed, 0)
			if err != nil {
				return err
			}
			inodesBefore := sysA.FS.NumInodes()
			recovered, err := fs.RecoverAfterCrash(fs.Config{RBoxBytes: 1 << 20, Obs: o}, sysA.Clock(), sysA.Storage, sysA.DRAM)
			if err != nil {
				return err
			}
			metaNoteA = "recovered via recovery box"
			if recovered.NumInodes() != inodesBefore {
				metaNoteA = fmt.Sprintf("LOST %d inodes", inodesBefore-recovered.NumInodes())
			}
		case 1:
			// Scenario B: power failure with 60s metadata checkpoints.
			sysB, _, err := e10Run(o, seed, 60*sim.Second)
			if err != nil {
				return err
			}
			sysB.DRAM.PowerFail()
			_, lostB, err = fs.RecoverAfterPowerFailure(fs.Config{RBoxBytes: 1 << 20, Obs: o}, sysB.Clock(), sysB.Storage, sysB.DRAM)
			return err
		case 2:
			// Scenario B': the same failure, recovered the honest way — no
			// surviving in-core state at all, everything rebuilt by
			// scanning the flash device's out-of-band records and the
			// flash checkpoint.
			sysB2, _, err := e10Run(o, seed, 60*sim.Second)
			if err != nil {
				return err
			}
			beforeB2 = sysB2.FS.NumInodes()
			sysB2.DRAM.PowerFail()
			remounted, err := sysB2.RemountAfterPowerFailure()
			if err != nil {
				return err
			}
			remountB2 = remounted.FS.NumInodes()
		case 3:
			// Scenario C: power failure with no checkpoints at all.
			sysC, _, err := e10Run(o, seed, 0)
			if err != nil {
				return err
			}
			sysC.DRAM.PowerFail()
			recC, lost, err := fs.RecoverAfterPowerFailure(fs.Config{RBoxBytes: 1 << 20, Obs: o}, sysC.Clock(), sysC.Storage, sysC.DRAM)
			if err != nil {
				return err
			}
			lostC = lost
			recCInodes = recC.NumInodes()
		case 4:
			// Scenario D: the paper's gradual-discharge story. The primary
			// batteries deplete predictably; the monitor flushes
			// everything to flash on the lithium backup before power is
			// truly gone.
			sysD, _, err := e10Run(o, seed, 0)
			if err != nil {
				return err
			}
			pack := dram.NewPack(10, 0.5)
			mon := AttachBattery(sysD, pack)
			inodesD = sysD.FS.NumInodes()
			// The primary empties (days of idling compressed into one
			// drain).
			if err := pack.Drain(pack.Primary.Remaining()); err != nil {
				return err
			}
			if err := mon.Tick(); err != nil && !errors.Is(err, dram.ErrBatteryDead) {
				return err
			}
			sysD.DRAM.PowerFail() // backup finally dies too
			remountedD, err := sysD.RemountAfterPowerFailure()
			if err != nil {
				return err
			}
			recD = remountedD.FS.NumInodes()
			lostD = "0 B"
			if recD != inodesD {
				lostD = fmt.Sprintf("%d inodes", inodesD-recD)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	crash.AddRow("OS crash", "battery-backed DRAM + recovery box", "0 B", metaNoteA)
	crash.AddRow("power failure", "60s checkpoints + 30s write-back",
		fmtBytes(lostB), "last checkpoint + surviving flash data")
	crash.AddRow("power failure", "60s checkpoints, full device-scan remount",
		fmtBytes(lostB), fmt.Sprintf("%d of %d inodes recovered by OOB scan + checkpoint",
			remountB2, beforeB2))
	crash.AddRow("power failure", "no checkpoints",
		fmtBytes(lostC), fmt.Sprintf("all namespace lost (%d inodes remain)", recCInodes))
	crash.AddRow("battery death", "gradual discharge -> low-battery flush",
		lostD, fmt.Sprintf("%d of %d inodes recovered", recD, inodesD))

	crash.Notes = append(crash.Notes,
		"an OS crash costs nothing: that is the paper's case for keeping file data in battery-backed DRAM;",
		"power failures cost only what the write-back and checkpoint cadence left unmigrated;",
		"predictable battery discharge lets the OS flush in time, so battery death costs nothing")
	return []*Table{retention, crash}, nil
}

// e10Run replays a 10-minute trace on a fresh solid-state system,
// checkpointing metadata every ckpt (0 disables).
func e10Run(o *obs.Observer, seed int64, ckpt sim.Duration) (*SolidStateSystem, *trace.Trace, error) {
	tr, err := trace.GenerateBaker(trace.DefaultBaker(10*sim.Minute, seed))
	if err != nil {
		return nil, nil, err
	}
	sys, err := NewSolidState(SolidStateConfig{
		DRAMBytes: 8 << 20, FlashBytes: 32 << 20, RBoxBytes: 1 << 20, BufferBytes: 2 << 20,
		Obs: o,
	})
	if err != nil {
		return nil, nil, err
	}
	clock := sys.Clock()
	nextCkpt := sim.Time(ckpt)
	scratch := make([]byte, 256*1024)
	for _, op := range tr.Ops {
		if at := sim.Time(op.Time); at > clock.Now() {
			clock.AdvanceTo(at)
		}
		if err := sys.Tick(); err != nil {
			return nil, nil, err
		}
		if ckpt > 0 && clock.Now() >= nextCkpt {
			if err := sys.FS.Checkpoint(); err != nil {
				return nil, nil, err
			}
			nextCkpt = clock.Now().Add(ckpt)
		}
		name := fileName(op.File)
		switch op.Kind {
		case trace.Create:
			err = sys.Create(name)
		case trace.Write:
			buf := scratch[:op.Size]
			payload(buf, op.File, op.Offset)
			_, err = sys.WriteAt(name, op.Offset, buf)
		case trace.Read:
			_, err = sys.ReadAt(name, op.Offset, scratch[:op.Size])
		case trace.Delete:
			err = sys.Remove(name)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return sys, tr, nil
}
