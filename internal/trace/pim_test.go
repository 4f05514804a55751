package trace

import (
	"reflect"
	"testing"

	"ssmobile/internal/sim"
)

func TestPIMDeterministic(t *testing.T) {
	a, err := GeneratePIM(DefaultPIM(4*sim.Hour, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePIM(DefaultPIM(4*sim.Hour, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Ops, b.Ops) {
		t.Fatal("same seed differs")
	}
}

func TestPIMWellFormed(t *testing.T) {
	tr, err := GeneratePIM(DefaultPIM(8*sim.Hour, 3))
	if err != nil {
		t.Fatal(err)
	}
	created := map[FileID]bool{}
	var last sim.Time
	for _, op := range tr.Ops {
		if op.Time < last {
			t.Fatal("ops out of order")
		}
		last = op.Time
		switch op.Kind {
		case Create:
			if created[op.File] {
				t.Fatalf("file %d created twice", op.File)
			}
			created[op.File] = true
		case Read, Write:
			if !created[op.File] {
				t.Fatalf("%v of uncreated record %d", op.Kind, op.File)
			}
		case Delete:
			t.Fatal("PIM records are never deleted")
		}
	}
}

func TestPIMShape(t *testing.T) {
	tr, err := GeneratePIM(DefaultPIM(8*sim.Hour, 7))
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Creates < 200 {
		t.Fatalf("initial database missing: %d creates", s.Creates)
	}
	if s.Deletes != 0 {
		t.Fatal("PIM workload deleted records")
	}
	// Records are tiny.
	if mean := float64(s.BytesWritten) / float64(s.Writes); mean > 1024 {
		t.Errorf("mean write %f bytes; records should be small", mean)
	}
	// Bursty: the busiest 10%% of 5-minute bins should hold a large share
	// of the post-setup ops.
	bins := map[int64]int{}
	total := 0
	for _, op := range tr.Ops {
		if op.Time == 0 {
			continue
		}
		bins[int64(op.Time)/int64(5*sim.Minute)]++
		total++
	}
	max := 0
	for _, c := range bins {
		if c > max {
			max = c
		}
	}
	if max < total/20 {
		t.Errorf("busiest bin has %d of %d ops; expected bursts", max, total)
	}
}

func TestPIMValidation(t *testing.T) {
	if _, err := GeneratePIM(DefaultPIM(0, 1)); err == nil {
		t.Fatal("zero duration accepted")
	}
}
