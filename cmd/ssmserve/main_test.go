package main

import (
	"errors"
	"path/filepath"
	"testing"

	"ssmobile/internal/obs"
	"ssmobile/internal/server"
)

// TestClusterBuildHonoursAdmissionFlags pins what -nodes N used to drop:
// every node of a cluster build gets the -high/-low watermarks, and a
// node that starts shedding fires the shed-engage flight dump under its
// own name, from its own observer: the record holds that node's spans
// and its server's series, not the router's.
func TestClusterBuildHonoursAdmissionFlags(t *testing.T) {
	svc, err := build(buildConfig{
		nodes:  3,
		dramMB: 8, flashMB: 8, bufferMB: 1,
		// A free-block target the 128-block card cannot meet, so the
		// cleaner always lags and admission hinges on the watermark alone.
		idleClean: 129,
		engine:    "ftl",
		high:      0.05, low: 0.01,
		obs: obs.New(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := svc.recordFlights(dir); err != nil {
		t.Fatal(err)
	}

	// 13 of the 1MB buffer's 256 pages cross the 0.05 watermark; the
	// default 0.9 would take 231.
	const shedder = 1
	sess, err := svc.cards[shedder].Srv.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	for key := uint64(0); key < 32 && !svc.cards[shedder].Srv.Shedding(); key++ {
		_, err := sess.Do(server.Request{Kind: server.OpPut, Key: key, Data: data})
		if err != nil && !errors.Is(err, server.ErrOverloaded) {
			t.Fatal(err)
		}
	}
	for i, card := range svc.cards {
		if got, want := card.Srv.Shedding(), i == shedder; got != want {
			t.Errorf("node %s shedding = %v, want %v", card.Name, got, want)
		}
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "*", "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := svc.cards[shedder].Name
	if len(dumps) != 1 || filepath.Base(filepath.Dir(dumps[0])) != name {
		t.Fatalf("flight dumps %v, want exactly the shedding node's, under %s", dumps, name)
	}
	rec, err := obs.ReadFlightRecord(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := "shed-engage-" + name; rec.Reason != want {
		t.Errorf("flight record reason %q, want %q", rec.Reason, want)
	}
	if len(rec.Spans) == 0 {
		t.Error("the shed-engage record holds no spans")
	}
	for _, sp := range rec.Spans {
		if sp.Node != name {
			t.Fatalf("shed-engage record holds a span of node %q, want only %q: %+v", sp.Node, name, sp)
		}
	}
	// The router's registry has no server series; the card's has.
	// It was taken because the card started shedding, so it must say so.
	if m, ok := rec.Metrics.Find("shedding", obs.Labels{"layer": "server"}); !ok {
		t.Errorf("shed-engage record lacks shedding{layer=server}: %d series, none the card's", len(rec.Metrics.Metrics))
	} else if m.Value != 1 {
		t.Errorf("shed-engage record reads shedding{layer=server} = %v, want 1", m.Value)
	}
}
