// Lifecycle and behaviour tests for the object-storage service. They
// live in an external test package so they can assemble the real stack
// through core (core imports server for E12, so the inverse import only
// works from _test).
package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
	"ssmobile/internal/workload"
)

// newStack builds a small solid-state system and a server over it.
func newStack(t testing.TB, cfg core.SolidStateConfig) (*core.SolidStateSystem, *server.Server) {
	t.Helper()
	if cfg.DRAMBytes == 0 {
		cfg.DRAMBytes = 4 << 20
	}
	if cfg.FlashBytes == 0 {
		cfg.FlashBytes = 8 << 20
	}
	if cfg.RBoxBytes == 0 {
		cfg.RBoxBytes = 256 << 10
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New(0)
	}
	card, err := core.NewServedCard(core.ServedCardConfig{System: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return card.Sys, card.Srv
}

// TestHugeGetIsSizedByTheObject asks for far more than a 1 KB object
// holds. The get returns the object's bytes; the session's buffer is
// sized by the object, so the request can neither panic nor pin memory.
func TestHugeGetIsSizedByTheObject(t *testing.T) {
	_, srv := newStack(t, core.SolidStateConfig{})
	sess, err := srv.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 64)
	if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: 3, Data: data}); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, 1000, int64(len(data)), 1 << 40} {
		resp, err := sess.Do(server.Request{Kind: server.OpGet, Key: 3, Offset: off, Size: 1 << 62})
		if err != nil {
			t.Fatalf("get at %d: %v", off, err)
		}
		want := data[min(off, int64(len(data))):]
		if resp.N != len(want) || !bytes.Equal(resp.Data, want) {
			t.Fatalf("get at %d: %d bytes, want the object's last %d", off, resp.N, len(want))
		}
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	_, srv := newStack(t, core.SolidStateConfig{})
	sess, err := srv.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox")
	if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: 7, Offset: 128, Data: data}); err != nil {
		t.Fatal(err)
	}
	resp, err := sess.Do(server.Request{Kind: server.OpGet, Key: 7, Offset: 128, Size: int64(len(data))})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, data) {
		t.Fatalf("got %q, want %q", resp.Data, data)
	}

	// Tenants are isolated: the same key in another session is empty.
	other, err := srv.Open("bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Do(server.Request{Kind: server.OpGet, Key: 7, Size: 8}); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("cross-tenant get: got %v, want ErrNotFound", err)
	}

	// Truncate to zero, read comes back empty.
	if _, err := sess.Do(server.Request{Kind: server.OpTruncate, Key: 7, Size: 0}); err != nil {
		t.Fatal(err)
	}
	resp, err = sess.Do(server.Request{Kind: server.OpGet, Key: 7, Offset: 0, Size: 16})
	if err != nil {
		t.Fatal(err)
	}
	if resp.N != 0 {
		t.Fatalf("read %d bytes after truncate to 0", resp.N)
	}

	// Delete is idempotent; get after delete is a typed miss.
	for i := 0; i < 2; i++ {
		if _, err := sess.Do(server.Request{Kind: server.OpDelete, Key: 7}); err != nil {
			t.Fatalf("delete #%d: %v", i+1, err)
		}
	}
	if _, err := sess.Do(server.Request{Kind: server.OpGet, Key: 7, Size: 8}); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("get after delete: got %v, want ErrNotFound", err)
	}
	if _, err := sess.Do(server.Request{Kind: server.OpTruncate, Key: 7, Size: 4}); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("truncate after delete: got %v, want ErrNotFound", err)
	}
}

func TestSyncGroupCommit(t *testing.T) {
	_, srv := newStack(t, core.SolidStateConfig{})
	sess, err := srv.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: 1, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	first, err := sess.Do(server.Request{Kind: server.OpSync})
	if err != nil {
		t.Fatal(err)
	}
	if first.Batched {
		t.Fatal("first sync reported batched")
	}
	// A sync right behind the flush (same instant, well inside the batch
	// window) rides it.
	second, err := sess.Do(server.Request{Kind: server.OpSync})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Batched {
		t.Fatal("back-to-back sync not batched")
	}
	st := srv.Stats()
	if st.SyncFlushes != 1 || st.BatchedSyncs != 1 {
		t.Fatalf("flushes %d batched %d, want 1 and 1", st.SyncFlushes, st.BatchedSyncs)
	}
}

// Load shedding: with the flash card nearly full (cleaner behind its
// target) and the write buffer at the high watermark, writes are
// rejected with the typed overload error while reads keep being served.
func TestLoadSheddingTypedErrors(t *testing.T) {
	sys, srv := newStack(t, core.SolidStateConfig{
		DRAMBytes:       2 << 20,
		FlashBytes:      1 << 20,
		BufferBytes:     128 << 10,
		RBoxBytes:       128 << 10,
		IdleCleanBlocks: 8,
	})
	// Fill most of the flash with live data so the cleaner cannot reach
	// its free-block target.
	if err := sys.FS.Create("/big"); err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 4096)
	for off := int64(0); off < 560<<10; off += 4096 {
		if _, err := sys.FS.WriteAt("/big", off, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.FS.Sync(); err != nil {
		t.Fatal(err)
	}
	if lag := sys.Engine.CleanerLag(); lag == 0 {
		t.Fatalf("setup: cleaner lag still 0 (free %d)", sys.Engine.FreeBlocks())
	}

	sess, err := srv.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	var shed int
	data := bytes.Repeat([]byte{0xA5}, 4096)
	for i := 0; i < 64; i++ {
		_, err := sess.Do(server.Request{Kind: server.OpPut, Key: uint64(i), Data: data})
		switch {
		case err == nil:
		case errors.Is(err, server.ErrOverloaded):
			shed++
		default:
			t.Fatalf("put %d: unexpected error %v", i, err)
		}
	}
	if shed == 0 {
		t.Fatalf("no puts shed (occupancy %.2f, lag %d)",
			sys.Storage.BufferOccupancy(), sys.Engine.CleanerLag())
	}
	// Reads still serve while writes shed — graceful degradation.
	if _, err := sess.Do(server.Request{Kind: server.OpGet, Key: 0, Size: 16}); err != nil {
		t.Fatalf("read during shed: %v", err)
	}
	if srv.Stats().Shed != int64(shed) {
		t.Fatalf("stats shed %d, want %d", srv.Stats().Shed, shed)
	}
}

// The in-process driver must be deterministic: identical seeds give
// identical aggregate results, run to run.
func TestRunWorkloadDeterministic(t *testing.T) {
	run := func() server.RunStats {
		_, srv := newStack(t, core.SolidStateConfig{})
		st, err := server.RunWorkload(srv, workload.Config{
			Seed: 1993, Clients: 4, OpsPerClient: 100, Keys: 8, Popularity: workload.Zipf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Shed != b.Shed || a.NotFound != b.NotFound ||
		a.Elapsed != b.Elapsed || a.Lat.Sum() != b.Lat.Sum() {
		t.Fatalf("runs diverged:\n %+v\n %+v", a, b)
	}
	if a.Completed == 0 {
		t.Fatal("no requests completed")
	}
}

// Concurrent TCP clients under the race detector: every response is
// either success or a typed, expected error, and shutdown drains clean.
func TestTCPConcurrentClients(t *testing.T) {
	_, srv := newStack(t, core.SolidStateConfig{})
	tcp := server.NewTCP(srv)
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := tcp.Addr().String()

	const clients, ops = 4, 60
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := server.Dial(addr, fmt.Sprintf("t%d", c))
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.Close()
			data := bytes.Repeat([]byte{byte(c)}, 512)
			for i := 0; i < ops; i++ {
				key := uint64(i % 5)
				if _, err := cl.Put(key, int64(i)*512, data); err != nil && !errors.Is(err, server.ErrOverloaded) {
					errs[c] = fmt.Errorf("put %d: %w", i, err)
					return
				}
				got, err := cl.Get(key, int64(i)*512, 512)
				if err != nil {
					if errors.Is(err, server.ErrNotFound) {
						continue
					}
					errs[c] = fmt.Errorf("get %d: %w", i, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs[c] = fmt.Errorf("get %d: payload mismatch", i)
					return
				}
			}
			if _, err := cl.Sync(); err != nil {
				errs[c] = fmt.Errorf("sync: %w", err)
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
	if err := tcp.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := srv.Stats(); st.Completed == 0 {
		t.Fatal("no requests completed")
	}
}

// Graceful shutdown: buffered writes reach flash via the final sync,
// and post-drain requests fail with the typed draining error.
func TestGracefulShutdownDrains(t *testing.T) {
	sys, srv := newStack(t, core.SolidStateConfig{})
	tcp := server.NewTCP(srv)
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl, err := server.Dial(tcp.Addr().String(), "t")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 4096)
	for i := 0; i < 8; i++ {
		if _, err := cl.Put(uint64(i), 0, data); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	before := sys.Engine.Stats().HostBytesWritten

	// Ops race the shutdown from another goroutine; each either succeeds
	// or fails with a drain-path error (typed, or the torn connection).
	done := make(chan error, 1)
	go func() {
		var last error
		for i := 0; i < 1000; i++ {
			if _, err := cl.Put(uint64(i%8), 4096, data); err != nil {
				last = err
				break
			}
		}
		done <- last
	}()
	if err := tcp.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if raceErr := <-done; raceErr != nil {
		if !errors.Is(raceErr, server.ErrDraining) && !isConnError(raceErr) {
			t.Fatalf("racing put failed with unexpected error: %v", raceErr)
		}
	}

	if !srv.Draining() {
		t.Fatal("server not draining after shutdown")
	}
	after := sys.Engine.Stats().HostBytesWritten
	if after <= before {
		t.Fatalf("final sync flushed nothing (flash writes %d -> %d)", before, after)
	}
	// The drained server rejects direct requests with the typed error.
	sess, err := srv.Open("t2")
	if !errors.Is(err, server.ErrDraining) {
		_ = sess
		t.Fatalf("open after drain: got %v, want ErrDraining", err)
	}
	// Shutdown is idempotent.
	if err := tcp.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// isConnError reports errors the torn-down transport legitimately
// produces once drain begins.
func isConnError(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "EOF") || strings.Contains(msg, "closed") ||
		strings.Contains(msg, "reset") || strings.Contains(msg, "broken pipe")
}

// The wire protocol maps typed errors both ways.
func TestTCPTypedErrors(t *testing.T) {
	_, srv := newStack(t, core.SolidStateConfig{})
	tcp := server.NewTCP(srv)
	if err := tcp.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer tcp.Shutdown()
	cl, err := server.Dial(tcp.Addr().String(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Get(99, 0, 8); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("get missing: got %v, want ErrNotFound", err)
	}
	if err := cl.Truncate(99, 4); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("truncate missing: got %v, want ErrNotFound", err)
	}
	if err := cl.Delete(99); err != nil {
		t.Fatalf("delete missing: %v, want idempotent success", err)
	}
}
