package main

import (
	"bytes"
	"errors"
	"fmt"

	"ssmobile/internal/server"
	"ssmobile/internal/workload"
)

// model is one tenant's shadow of the service: for every object the
// bytes it must hold, and whether it exists. Every acknowledged put,
// truncate and delete is applied to it, and every get — and every
// notfound — is checked against it, so the benchmark never times a
// server that is returning wrong answers quickly. A tenant's requests
// are issued one at a time, which is all the ordering the model needs.
type model struct {
	objs map[uint64]*object
}

type object struct {
	data   []byte // len(data) is the object's length
	exists bool
}

func newModel() *model { return &model{objs: make(map[uint64]*object)} }

func (m *model) obj(key uint64) *object {
	o := m.objs[key]
	if o == nil {
		o = &object{}
		m.objs[key] = o
	}
	return o
}

// outcome classifies one verified reply.
type outcome uint8

const (
	completed outcome = iota // served, and the reply matches the model
	notFound                 // notfound, and the model agrees the object is missing
	shed                     // refused by admission control; nothing was applied
	failed                   // an unexpected error or a reply the model contradicts
)

// apply checks one reply against the model and folds an acknowledged
// mutation into it. data is the get payload (or nil); n the byte count
// the reply reported. The returned error describes a mismatch.
func (m *model) apply(op workload.Op, payload []byte, n int, data []byte, err error) (outcome, error) {
	o := m.obj(op.Key)
	if errors.Is(err, server.ErrOverloaded) {
		if op.Kind == workload.Write || op.Kind == workload.Truncate {
			return shed, nil
		}
		return failed, fmt.Errorf("%v shed, but only writes are ever shed", op.Kind)
	}
	if errors.Is(err, server.ErrNotFound) {
		if o.exists || op.Kind == workload.Write || op.Kind == workload.Delete || op.Kind == workload.Sync {
			return failed, fmt.Errorf("%v key %d: notfound, but the model says exists=%v", op.Kind, op.Key, o.exists)
		}
		return notFound, nil
	}
	if err != nil {
		return failed, fmt.Errorf("%v key %d: %w", op.Kind, op.Key, err)
	}
	switch op.Kind {
	case workload.Read:
		if !o.exists {
			return failed, fmt.Errorf("get key %d: served, but the model says the object does not exist", op.Key)
		}
		want := o.slice(op.Offset, int64(op.Size))
		if n != len(want) || !bytes.Equal(data, want) {
			return failed, fmt.Errorf("get key %d off %d len %d: reply of %d bytes differs from the model's %d bytes%s",
				op.Key, op.Offset, op.Size, len(data), len(want), firstDiff(data, want))
		}
	case workload.Write:
		if n != len(payload) {
			return failed, fmt.Errorf("put key %d: acknowledged %d of %d bytes", op.Key, n, len(payload))
		}
		o.write(op.Offset, payload)
	case workload.Truncate:
		if !o.exists {
			return failed, fmt.Errorf("trunc key %d: served, but the model says the object does not exist", op.Key)
		}
		o.truncate(int64(op.Size))
	case workload.Delete:
		o.exists = false
		o.data = o.data[:0]
	}
	return completed, nil
}

// slice is the model's answer to a get: short at end of object.
func (o *object) slice(off, n int64) []byte {
	size := int64(len(o.data))
	if off >= size {
		return nil
	}
	end := off + n
	if end > size {
		end = size
	}
	return o.data[off:end]
}

// write extends the object with zeros up to off, as the file system
// does for a write past the end, then lays the payload over it.
func (o *object) write(off int64, p []byte) {
	o.exists = true
	if end := off + int64(len(p)); end > int64(len(o.data)) {
		o.truncate(end)
	}
	copy(o.data[off:], p)
}

// truncate sets the length; growth reads back as zeros.
func (o *object) truncate(size int64) {
	if size <= int64(len(o.data)) {
		o.data = o.data[:size]
		return
	}
	old := len(o.data)
	if size <= int64(cap(o.data)) {
		o.data = o.data[:size]
		clear(o.data[old:])
		return
	}
	grown := make([]byte, size)
	copy(grown, o.data)
	o.data = grown
}

func firstDiff(got, want []byte) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf(" (first at byte %d: got %#02x, want %#02x)", i, got[i], want[i])
		}
	}
	return ""
}
