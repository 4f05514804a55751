package main

import (
	"bytes"
	"fmt"
	"testing"

	"ssmobile/internal/server"
	"ssmobile/internal/workload"
)

func TestModelFollowsFileSemantics(t *testing.T) {
	m := newModel()
	put := func(key uint64, off int64, p []byte) {
		t.Helper()
		op := workload.Op{Kind: workload.Write, Key: key, Offset: off, Size: len(p)}
		if out, err := m.apply(op, p, len(p), nil, nil); out != completed {
			t.Fatalf("put: %v %v", out, err)
		}
	}
	get := func(key uint64, off int64, n int, reply []byte, rerr error) (outcome, error) {
		return m.apply(workload.Op{Kind: workload.Read, Key: key, Offset: off, Size: n}, nil, len(reply), reply, rerr)
	}

	// A missing object answers notfound, and only notfound.
	if out, _ := get(1, 0, 8, nil, server.ErrNotFound); out != notFound {
		t.Errorf("get of a missing object: outcome %v, want notFound", out)
	}
	if out, _ := get(1, 0, 8, []byte("x"), nil); out != failed {
		t.Errorf("get of a missing object served data: outcome %v, want failed", out)
	}

	// A write past the end zero-fills the hole; reads are short at the end.
	put(1, 4, []byte("abcd"))
	if out, err := get(1, 0, 100, []byte{0, 0, 0, 0, 'a', 'b', 'c', 'd'}, nil); out != completed {
		t.Errorf("read across the hole: %v %v", out, err)
	}
	if out, _ := get(1, 0, 100, []byte{0, 0, 0, 0, 'a', 'b', 'c'}, nil); out != failed {
		t.Error("a reply one byte short of the object passed")
	}
	if out, _ := get(1, 0, 8, nil, server.ErrNotFound); out != failed {
		t.Error("notfound on an existing object passed")
	}

	// Truncate down then up: the regrown tail reads as zeros.
	trunc := func(size int) {
		t.Helper()
		if out, err := m.apply(workload.Op{Kind: workload.Truncate, Key: 1, Size: size}, nil, 0, nil, nil); out != completed {
			t.Fatalf("trunc: %v %v", out, err)
		}
	}
	trunc(6)
	trunc(8)
	if out, err := get(1, 4, 4, []byte{'a', 'b', 0, 0}, nil); out != completed {
		t.Errorf("read after shrink and regrow: %v %v", out, err)
	}

	// A shed write changes nothing; a delete removes the object.
	shedErr := fmt.Errorf("%w (wire)", server.ErrOverloaded)
	if out, _ := m.apply(workload.Op{Kind: workload.Write, Key: 1, Size: 4}, []byte("zzzz"), 0, nil, shedErr); out != shed {
		t.Errorf("shed put: outcome %v", out)
	}
	if out, err := get(1, 4, 2, []byte("ab"), nil); out != completed {
		t.Errorf("read after a shed put: %v %v", out, err)
	}
	if out, _ := m.apply(workload.Op{Kind: workload.Delete, Key: 1}, nil, 0, nil, nil); out != completed {
		t.Error("delete failed")
	}
	if out, _ := get(1, 0, 8, nil, server.ErrNotFound); out != notFound {
		t.Error("get after delete should be notfound")
	}
	if out, _ := m.apply(workload.Op{Kind: workload.Truncate, Key: 1, Size: 3}, nil, 0, nil, server.ErrNotFound); out != notFound {
		t.Error("truncate after delete should be notfound")
	}
}

// TestCorruptReplyFailsTheRun feeds the driver a service that flips one
// bit in one reply per client; the run must count exactly those as
// failed and name the first.
func TestCorruptReplyFailsTheRun(t *testing.T) {
	if err := checkVerifier(1993); err != nil {
		t.Fatal(err)
	}
	// And the same stack, uncorrupted, passes — the failure above is the
	// corruption and nothing else.
	s := specs[0]
	r, err := runRung(s, 1993, s.rate, 500, serveObserver)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.firstErr != nil {
		t.Fatalf("clean run: %d failed (%v)", r.failed, r.firstErr)
	}
}

func TestPreloadFillsTheModel(t *testing.T) {
	s := specs[0]
	cfg := s.workloadConfig(1, 10, s.rate)
	st, err := buildStack(s, serveObserver)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := st.svc.OpenSession(tenantName(0))
	if err != nil {
		t.Fatal(err)
	}
	m := newModel()
	n, err := preload(doerCaller{sess}, m, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Keys + 1; n != want {
		t.Errorf("preload issued %d requests, want %d puts and a sync", n, want)
	}
	for key := 0; key < cfg.Keys; key++ {
		o := m.objs[uint64(key)]
		if o == nil || !o.exists || int64(len(o.data)) != cfg.ObjectBytes {
			t.Fatalf("key %d not fully preloaded", key)
		}
		resp, err := sess.Do(server.Request{Kind: server.OpGet, Key: uint64(key), Size: cfg.ObjectBytes})
		if err != nil || !bytes.Equal(resp.Data, o.data) {
			t.Fatalf("key %d: the service does not hold what the model does (%v)", key, err)
		}
	}
}
