package server_test

import (
	"bytes"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/server"
)

// hotBytes is the extent of one request on the session rung: a get or an
// overwrite put the size of wire_hot's, on an object the write buffer
// holds.
const hotBytes = 512

// hotSession opens a session holding one DRAM-resident object of
// hotBytes under key 1, and returns it with the get and the overwrite put
// the rung repeats.
func hotSession(tb testing.TB) (sess *server.Session, get, put server.Request) {
	tb.Helper()
	_, srv := newStack(tb, core.SolidStateConfig{})
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
	return sess, get, put
}

// BenchmarkSessionDo is the server rung of the benchmark ladder: one
// request through Session.Do — admission, dispatch, the file system and
// the storage manager — with no wire in front, on wire_hot's shape.
func BenchmarkSessionDo(b *testing.B) {
	for _, op := range []string{"get", "put"} {
		b.Run(op, func(b *testing.B) {
			sess, get, put := hotSession(b)
			req := get
			if op == "put" {
				req = put
			}
			b.SetBytes(hotBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := sess.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.N != hotBytes {
					b.Fatalf("%s moved %d bytes, want %d", op, resp.N, hotBytes)
				}
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
	sess, get, put := hotSession(t)
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
