// A session reaches an object by the handle it kept from its first
// request: the inode and the generation it had then. These tests hold
// that a handle never outlives what it named — an object deleted and made
// again, one truncated to nothing, one whose inode the file system's free
// list handed to another key — and that a miss through a stale handle
// answers exactly as a miss always has.
package server_test

import (
	"bytes"
	"errors"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/server"
)

// handleRig is one tenant served to two sessions, as two clients of the
// same tenant are.
type handleRig struct {
	t    *testing.T
	sys  *core.SolidStateSystem
	a, b *server.Session
}

func newHandleRig(t *testing.T) *handleRig {
	t.Helper()
	sys, srv := newStack(t, core.SolidStateConfig{})
	r := &handleRig{t: t, sys: sys}
	for _, s := range []**server.Session{&r.a, &r.b} {
		var err error
		if *s, err = srv.Open("h"); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *handleRig) put(s *server.Session, key uint64, off int64, data []byte) {
	r.t.Helper()
	if _, err := s.Do(server.Request{Kind: server.OpPut, Key: key, Offset: off, Data: data}); err != nil {
		r.t.Fatalf("put %d: %v", key, err)
	}
}

func (r *handleRig) do(s *server.Session, kind server.OpKind, key uint64, size int64) (server.Response, error) {
	return s.Do(server.Request{Kind: kind, Key: key, Size: size})
}

// holds fails unless the session reads exactly want from the key.
func (r *handleRig) holds(s *server.Session, key uint64, want []byte) {
	r.t.Helper()
	resp, err := r.do(s, server.OpGet, key, 1<<20)
	if err != nil || !bytes.Equal(resp.Data, want) {
		r.t.Fatalf("get %d = %q, %v; want %q", key, resp.Data, err, want)
	}
}

// missing fails unless a get and a truncate of the key both answer the
// not-found error a never-seen key gets, to the byte.
func (r *handleRig) missing(s *server.Session, key uint64, want string) {
	r.t.Helper()
	for _, kind := range []server.OpKind{server.OpGet, server.OpTruncate} {
		_, err := r.do(s, kind, key, 0)
		if !errors.Is(err, server.ErrNotFound) || err.Error() != want {
			r.t.Fatalf("%v %d: %v, want %s", kind, key, err, want)
		}
	}
}

// TestHandleDeletedAndRecreated: a key deleted and made again is read
// fresh by the session that did it and by a second session whose handle
// went stale in between.
func TestHandleDeletedAndRecreated(t *testing.T) {
	r := newHandleRig(t)
	r.put(r.a, 1, 0, []byte("first life"))
	r.holds(r.a, 1, []byte("first life"))
	r.holds(r.b, 1, []byte("first life"))

	if _, err := r.do(r.a, server.OpDelete, 1, 0); err != nil {
		t.Fatal(err)
	}
	r.missing(r.a, 1, "server: object not found: /srv/h/o1")
	r.missing(r.b, 1, "server: object not found: /srv/h/o1")

	r.put(r.a, 1, 0, []byte("second"))
	r.holds(r.a, 1, []byte("second"))
	r.holds(r.b, 1, []byte("second"))

	// The other way round: the session holding a current handle is not
	// the one that deletes, and it re-creates the key itself.
	if _, err := r.do(r.b, server.OpDelete, 1, 0); err != nil {
		t.Fatal(err)
	}
	r.put(r.a, 1, 4, []byte("third"))
	r.holds(r.a, 1, []byte("\x00\x00\x00\x00third"))
	r.holds(r.b, 1, []byte("\x00\x00\x00\x00third"))

	// A delete of what is already gone still succeeds, from either side.
	for _, s := range []*server.Session{r.a, r.b, r.a} {
		if _, err := r.do(s, server.OpDelete, 1, 0); err != nil {
			t.Fatalf("delete of a deleted key: %v", err)
		}
	}
	r.missing(r.b, 1, "server: object not found: /srv/h/o1")
}

// TestHandleTruncatedToZero: an object truncated to nothing is still the
// same object; its handle reads nothing and then takes writes.
func TestHandleTruncatedToZero(t *testing.T) {
	r := newHandleRig(t)
	r.put(r.a, 3, 0, bytes.Repeat([]byte{7}, 9000))
	r.holds(r.b, 3, bytes.Repeat([]byte{7}, 9000))
	if _, err := r.do(r.a, server.OpTruncate, 3, 0); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*server.Session{r.a, r.b} {
		resp, err := r.do(s, server.OpGet, 3, 100)
		if err != nil || resp.N != 0 {
			t.Fatalf("get after truncate to zero: %d bytes, %v", resp.N, err)
		}
	}
	r.put(r.b, 3, 0, []byte("regrown"))
	r.holds(r.a, 3, []byte("regrown"))
	r.holds(r.b, 3, []byte("regrown"))
}

// TestHandleInodeRecycledForAnotherKey: a key's inode is freed by a delete
// and handed to the next key made; the first key's handle must miss, not
// read or write the other key's object.
func TestHandleInodeRecycledForAnotherKey(t *testing.T) {
	r := newHandleRig(t)
	r.put(r.a, 5, 0, []byte("five"))
	r.holds(r.b, 5, []byte("five"))
	freed, ok := r.sys.FS.Lookup("/srv/h/o5")
	if !ok {
		t.Fatal("o5 not found")
	}
	if _, err := r.do(r.a, server.OpDelete, 5, 0); err != nil {
		t.Fatal(err)
	}
	r.put(r.a, 6, 0, []byte("six"))
	if reused, _ := r.sys.FS.Lookup("/srv/h/o6"); reused != freed {
		t.Fatal("the free list did not hand o5's inode to o6; the test proves nothing")
	}
	r.missing(r.b, 5, "server: object not found: /srv/h/o5")
	r.holds(r.b, 6, []byte("six"))

	// A put through the stale handle makes a new object and leaves the
	// recycled one alone.
	r.holds(r.a, 6, []byte("six"))
	r.put(r.b, 5, 0, []byte("five again"))
	r.holds(r.a, 5, []byte("five again"))
	r.holds(r.a, 6, []byte("six"))
	r.holds(r.b, 6, []byte("six"))
}

// TestStaleMissMatchesFreshMiss: the not-found error a stale handle's miss
// returns is the one a session that never saw the key returns, to the
// byte, and stays the same error value on repeat.
func TestStaleMissMatchesFreshMiss(t *testing.T) {
	r := newHandleRig(t)
	r.put(r.a, 42, 0, []byte("x"))
	r.holds(r.a, 42, []byte("x"))
	if _, err := r.do(r.b, server.OpDelete, 42, 0); err != nil {
		t.Fatal(err)
	}
	_, stale := r.do(r.a, server.OpGet, 42, 1)
	_, again := r.do(r.a, server.OpTruncate, 42, 1)
	_, fresh := r.do(r.b, server.OpGet, 42, 1)
	want := "server: object not found: /srv/h/o42"
	for _, err := range []error{stale, again, fresh} {
		if !errors.Is(err, server.ErrNotFound) || err.Error() != want {
			t.Fatalf("miss = %v, want %s", err, want)
		}
	}
	if stale != again {
		t.Fatal("a repeated miss formatted a new error")
	}
}
