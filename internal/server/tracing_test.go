// Span-tree golden test: the causal shape of a synchronous PUT that
// lands on a full write buffer and drags the cleaner onto its critical
// path. The structural rendering (layers, ops, stages, induced links —
// no IDs, no times, no payload bytes) is pinned against a committed
// golden and must be identical for every seed: payload CONTENT must
// never change what the simulation does, only what the bytes say.
package server_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/obs"
	"ssmobile/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite the span-tree golden file")

// spanNode is one span with its children in record (close) order.
type spanNode struct {
	span obs.Span
	kids []*spanNode
}

// firstTreeWithInducedClean reconstructs request trees from the span
// stream in order and returns the first one containing an induced
// cleaner pass, along with its ordinal among traced requests.
func firstTreeWithInducedClean(spans []obs.Span) (*spanNode, int) {
	var pending []obs.Span
	ordinal := 0
	for _, sp := range spans {
		if sp.ID == 0 {
			continue
		}
		if sp.Parent != 0 || sp.FollowFrom != 0 {
			pending = append(pending, sp)
			continue
		}
		ordinal++
		root := buildTree(sp, pending)
		pending = pending[:0]
		if hasInducedClean(root) {
			return root, ordinal
		}
	}
	return nil, 0
}

// buildTree resolves one request's tree from its root span and the
// buffered candidate children (children close before parents, so a
// span's parent appears later in the stream).
func buildTree(root obs.Span, pending []obs.Span) *spanNode {
	nodes := map[uint64]*spanNode{root.ID: {span: root}}
	member := make([]bool, len(pending))
	for i := len(pending) - 1; i >= 0; i-- {
		if _, ok := nodes[pending[i].Parent]; ok {
			member[i] = true
			nodes[pending[i].ID] = &spanNode{span: pending[i]}
		}
	}
	// Attach children in stream order so the rendering is deterministic.
	for i, sp := range pending {
		if member[i] {
			p := nodes[sp.Parent]
			p.kids = append(p.kids, nodes[sp.ID])
		}
	}
	return nodes[root.ID]
}

func hasInducedClean(n *spanNode) bool {
	if n.span.FollowFrom != 0 && n.span.Op == "clean" {
		return true
	}
	for _, k := range n.kids {
		if hasInducedClean(k) {
			return true
		}
	}
	return false
}

// render writes the structural shape of the tree: layer/op, resolved
// stage, and induced markers — everything a trace viewer keys on, and
// nothing (IDs, virtual times, energies) that would make the golden
// brittle for no diagnostic gain.
func render(n *spanNode, depth int, b *strings.Builder) {
	fmt.Fprintf(b, "%s%s/%s", strings.Repeat("  ", depth), n.span.Layer, n.span.Op)
	if n.span.Stage != "" {
		fmt.Fprintf(b, " stage=%s", n.span.Stage)
	}
	if n.span.FollowFrom != 0 {
		b.WriteString(" induced")
	}
	b.WriteByte('\n')
	for _, k := range n.kids {
		render(k, depth+1, b)
	}
}

// runCleanScenario stages the satellite's exact situation — ONE
// synchronous PUT arriving on a full write buffer that must evict and
// clean on its own clock — and returns the structural rendering of that
// PUT's span tree plus the tree itself. Payload bytes come from the
// seed; the op sequence is fixed, so the tree must not depend on the
// seed at all.
func runCleanScenario(t *testing.T, seed int64) (string, *spanNode) {
	t.Helper()
	o := obs.New(1 << 17)
	sys, srv := newStack(t, core.SolidStateConfig{
		DRAMBytes:   4 << 20,
		FlashBytes:  2 << 20,
		BufferBytes: 64 << 10,
		RBoxBytes:   256 << 10,
		// IdleCleanBlocks stays 0: no background cleaning, so the only way
		// a block gets reclaimed is synchronously, on a request's clock.
		Obs: o,
	})
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, 4096)

	// Age the card outside any request (anonymous background spans):
	// overwrite a 1MB region until the free pool is down to the cleaning
	// margin and the first background cleans have run, then drain the
	// buffer so the foreground scenario below starts from a known state.
	if err := sys.Create("aged"); err != nil {
		t.Fatal(err)
	}
	for round := 0; sys.Engine.Stats().Cleans == 0; round++ {
		if round == 64 {
			t.Fatal("aging never drove the FTL into cleaning")
		}
		for off := 0; off < 256; off++ {
			rng.Read(payload)
			if _, err := sys.WriteAt("aged", int64(off)*4096, payload); err != nil {
				t.Fatalf("aging write: %v", err)
			}
		}
	}
	if err := sys.Sync(); err != nil {
		t.Fatal(err)
	}

	sess, err := srv.Open("golden")
	if err != nil {
		t.Fatal(err)
	}
	// Fill the write buffer exactly: 16 one-page PUTs take its 16 pages.
	// The cleaner is not behind (the aging pass left the free pool at its
	// margin), so admission control lets them through.
	for i := 0; i < 16; i++ {
		rng.Read(payload)
		if _, err := sess.Do(server.Request{
			Kind: server.OpPut, Key: 1, Offset: int64(i) * 4096,
			Data: append([]byte(nil), payload...),
		}); err != nil {
			t.Fatalf("fill put %d: %v", i, err)
		}
	}

	// The PUT under test: 256KB against a buffer with no free page. Every
	// block it writes must first evict a victim to flash, and the free
	// pool is shallow enough that those migrations drag the cleaner onto
	// this request's critical path, mid-PUT.
	big := make([]byte, 256<<10)
	rng.Read(big)
	if _, err := sess.Do(server.Request{Kind: server.OpPut, Key: 2, Data: big}); err != nil {
		t.Fatalf("triggering put: %v", err)
	}

	tree, ord := firstTreeWithInducedClean(o.Tracer.Spans())
	if tree == nil {
		t.Fatal("the triggering PUT induced no cleaner pass")
	}
	if tree.span.Op != "put" {
		t.Fatalf("request with induced clean is %s/%s, want server/put", tree.span.Layer, tree.span.Op)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "traced request #%d with induced clean:\n", ord)
	render(tree, 0, &b)
	return b.String(), tree
}

func TestPutSpanTreeGolden(t *testing.T) {
	seeds := []int64{1993, 1, 42}
	trees := make(map[int64]string, len(seeds))
	var first *spanNode
	for _, seed := range seeds {
		rendered, tree := runCleanScenario(t, seed)
		trees[seed] = rendered
		if first == nil {
			first = tree
		}
	}
	for _, seed := range seeds[1:] {
		if trees[seed] != trees[seeds[0]] {
			t.Fatalf("span tree differs between seed %d and seed %d:\n--- seed %d ---\n%s--- seed %d ---\n%s",
				seeds[0], seed, seeds[0], trees[seeds[0]], seed, trees[seed])
		}
	}

	golden := filepath.Join("testdata", "put_span_tree.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(trees[seeds[0]]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with go test -run TestPutSpanTreeGolden -update)", err)
	}
	if got := trees[seeds[0]]; got != string(want) {
		t.Fatalf("span tree drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}

	// Structural assertions the golden alone cannot express: the induced
	// clean follows from the REQUEST ROOT (not its direct parent), it
	// erases a block, and everything beneath it is cleaning stall.
	var clean *spanNode
	var findClean func(n *spanNode)
	findClean = func(n *spanNode) {
		if clean == nil && n.span.FollowFrom != 0 && n.span.Op == "clean" {
			clean = n
		}
		for _, k := range n.kids {
			findClean(k)
		}
	}
	findClean(first)
	if clean == nil {
		t.Fatal("no induced clean in the accepted tree")
	}
	if clean.span.FollowFrom != first.span.ID {
		t.Fatalf("clean.FollowFrom = %d, want request root %d", clean.span.FollowFrom, first.span.ID)
	}
	erases, nonClean := 0, 0
	var walk func(n *spanNode)
	walk = func(n *spanNode) {
		if strings.HasPrefix(n.span.Op, "erase") {
			erases++
		}
		if n.span.Stage != obs.StageClean.String() {
			nonClean++
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(clean)
	if erases == 0 {
		t.Fatal("induced clean erased no blocks")
	}
	if nonClean > 0 {
		t.Fatalf("%d spans under the induced clean escaped StageClean (stickiness broken)", nonClean)
	}
}

// getBreakdown is the per-stage attribution of the get in
// TestGetSpanTreeGolden as first recorded, before the engine and the
// device read a run of pages in one call each. How a read is batched
// may change the get's span tree; it must not move a nanosecond of its
// time from one stage to another.
var getBreakdown = obs.Breakdown{obs.StageFlash: 10449050}

// TestGetSpanTreeGolden pins the span tree of one 64 KB get read in
// place from flash: the object is put, synced out of the write buffer
// and read at an offset that cuts a block at both ends, the shape of
// the benchmark's scan_read get.
func TestGetSpanTreeGolden(t *testing.T) {
	const bs = 4096
	o := obs.New(1 << 14)
	sys, srv := newStack(t, core.SolidStateConfig{Obs: o})
	sess, err := srv.Open("golden")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 17*bs)
	rand.New(rand.NewSource(1993)).Read(data)
	for _, req := range []server.Request{
		{Kind: server.OpPut, Key: 1, Data: data},
		{Kind: server.OpSync},
	} {
		if _, err := sess.Do(req); err != nil {
			t.Fatalf("%v: %v", req.Kind, err)
		}
	}
	if n := sys.Storage.Stats().DRAMPagesInUse; n != 0 {
		t.Fatalf("%d blocks still in DRAM after the sync", n)
	}
	const off, size = bs / 2, 64 << 10
	resp, err := sess.Do(server.Request{Kind: server.OpGet, Key: 1, Offset: off, Size: size})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, data[off:off+size]) {
		t.Fatal("the get returned the wrong bytes")
	}

	spans := o.Tracer.Spans()
	reqs, _ := obs.Attribute(spans)
	get := reqs[len(reqs)-1]
	if get.Root.Op != "get" {
		t.Fatalf("last request is %s/%s, want server/get", get.Root.Layer, get.Root.Op)
	}
	var pending []obs.Span
	for _, sp := range spans[:len(spans)-1] {
		if sp.ID != 0 && (sp.Parent != 0 || sp.FollowFrom != 0) {
			pending = append(pending, sp)
		}
	}
	var b strings.Builder
	render(buildTree(get.Root, pending), 0, &b)
	fmt.Fprintf(&b, "%d spans\n", get.Spans)
	got := b.String()

	golden := filepath.Join("testdata", "get_span_tree.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with go test -run TestGetSpanTreeGolden -update)", err)
	}
	if got != string(want) {
		t.Fatalf("span tree drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	if get.Breakdown != getBreakdown {
		t.Fatalf("get breakdown %#v, recorded %#v", get.Breakdown, getBreakdown)
	}
}
