package server_test

import (
	"bytes"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/server"
	"ssmobile/internal/sim"
)

// hotBytes is the extent of one request on the session rung: a get or an
// overwrite put the size of wire_hot's, on an object the write buffer
// holds.
const hotBytes = 512

// hotWriteBack is the card's write-back delay on the session rung: a
// year of virtual time, which no run reaches (a request advances the
// clock about 13 µs), so the object never migrates to flash under the
// timed loop.
const hotWriteBack = 365 * 24 * sim.Hour

// hotSession opens a session holding one DRAM-resident object of
// hotBytes under key 1, and returns it with its card and the get and
// the overwrite put the rung repeats.
func hotSession(tb testing.TB) (sys *core.SolidStateSystem, sess *server.Session, get, put server.Request) {
	tb.Helper()
	sys, srv := newStack(tb, core.SolidStateConfig{WriteBackDelay: hotWriteBack})
	sess, err := srv.Open("hot")
	if err != nil {
		tb.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, hotBytes)
	put = server.Request{Kind: server.OpPut, Key: 1, Data: data}
	get = server.Request{Kind: server.OpGet, Key: 1, Size: hotBytes}
	for _, req := range []server.Request{put, get} {
		if _, err := sess.Do(req); err != nil {
			tb.Fatal(err)
		}
	}
	return sys, sess, get, put
}

// hotKeys is the key count of the get32 sub-rung: wire_hot's.
const hotKeys = 32

// BenchmarkSessionDo is the server rung of the benchmark ladder: one
// request through Session.Do — admission, dispatch, the file system and
// the storage manager — with no wire in front, on wire_hot's shape. get
// and put repeat one request on one key; get32 reads wire_hot's 32 keys
// in turn, so the session keeps a handle per key; delete-put deletes the
// key before each put, so the put makes the object again through the
// tenant directory's handle. The objects stay in DRAM however long the
// run: a read from flash or a flush to it inside the timed loop fails the
// benchmark.
func BenchmarkSessionDo(b *testing.B) {
	for _, op := range []string{"get", "put", "get32", "delete-put"} {
		b.Run(op, func(b *testing.B) {
			sys, sess, get, put := hotSession(b)
			reqs := []server.Request{get}
			switch op {
			case "put", "delete-put":
				reqs = []server.Request{put}
			case "get32":
				for key := uint64(2); key <= hotKeys; key++ {
					put.Key, get.Key = key, key
					if _, err := sess.Do(put); err != nil {
						b.Fatal(err)
					}
					reqs = append(reqs, get)
				}
			}
			del := server.Request{Kind: server.OpDelete, Key: put.Key}
			b.SetBytes(hotBytes)
			b.ReportAllocs()
			before := sys.Storage.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if op == "delete-put" {
					if _, err := sess.Do(del); err != nil {
						b.Fatal(err)
					}
				}
				resp, err := sess.Do(reqs[i%len(reqs)])
				if err != nil {
					b.Fatal(err)
				}
				if resp.N != hotBytes {
					b.Fatalf("%s moved %d bytes, want %d", op, resp.N, hotBytes)
				}
			}
			b.StopTimer()
			after := sys.Storage.Stats()
			if reads, flushed := after.FlashReads-before.FlashReads, after.FlushedBytes-before.FlushedBytes; reads != 0 || flushed != 0 {
				b.Fatalf("%d %ss: %d flash reads, %d bytes flushed; the rung measures a DRAM-resident object", b.N, op, reads, flushed)
			}
		})
	}
}

// TestSessionDoAllocFree is the server's alloc gate: a steady-state get
// and overwrite put of a DRAM-resident object allocate nothing.
func TestSessionDoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	_, sess, get, put := hotSession(t)
	for _, req := range []server.Request{get, put} {
		allocs := testing.AllocsPerRun(200, func() {
			if resp, err := sess.Do(req); err != nil || resp.N != hotBytes {
				t.Fatalf("%v: %d bytes, %v", req.Kind, resp.N, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v allocated %.2f times per request", req.Kind, allocs)
		}
	}
}
