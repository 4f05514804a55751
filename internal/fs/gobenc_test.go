package fs

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// gobBytes is the reference encoding the hand encoder must reproduce.
func gobBytes(t *testing.T, st snapshotState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	return buf.Bytes()
}

// plain copies what of st is serialised — the exported fields, sharing the
// Entries maps — without the kept encoding that rides along in memory:
// what reflect.DeepEqual should compare, and a cold-cache twin of st for
// the encoder.
func plain(st snapshotState) snapshotState {
	out := snapshotState{NextIno: st.NextIno}
	if st.Inodes != nil {
		out.Inodes = make(map[uint64]*Inode, len(st.Inodes))
	}
	for ino, n := range st.Inodes {
		out.Inodes[ino] = &Inode{Ino: n.Ino, Kind: n.Kind, Size: n.Size, Nlink: n.Nlink, MtimeNs: n.MtimeNs, Entries: n.Entries}
	}
	return out
}

// TestSnapCodecSelfCheck asserts the startup self-check passed: if this
// fails, encodeState is silently falling back to encoding/gob and the
// zero-allocation snapshot path is gone.
func TestSnapCodecSelfCheck(t *testing.T) {
	if _, err := appendState(nil, snapshotState{}); err != nil {
		t.Fatalf("appendState: %v", err)
	}
	if snapCodecErr != nil {
		t.Fatalf("hand gob codec self-check failed: %v", snapCodecErr)
	}
}

// TestEncodeStateMatchesGobDeterministic compares hand bytes against
// encoding/gob exactly, on states whose maps have at most one entry each
// (the only case where gob's own output is deterministic).
func TestEncodeStateMatchesGobDeterministic(t *testing.T) {
	cases := []snapshotState{
		{},
		{NextIno: 1},
		{NextIno: 0, Inodes: map[uint64]*Inode{0: {}}},
		{NextIno: 5, Inodes: map[uint64]*Inode{}},
		{NextIno: 2, Inodes: map[uint64]*Inode{
			1: {Ino: 1, Kind: KindDir, Nlink: 1, Entries: map[string]uint64{}},
		}},
		{NextIno: 2, Inodes: map[uint64]*Inode{1: {Ino: 1, Kind: KindDir, Nlink: 1}}},
		{NextIno: 300, Inodes: map[uint64]*Inode{
			200: {Ino: 200, Kind: KindFile, Size: 1 << 40, Nlink: 3, MtimeNs: -5},
		}},
		{NextIno: 9, Inodes: map[uint64]*Inode{
			7: {Ino: 7, Kind: KindDir, Nlink: 1, MtimeNs: 1234567890123,
				Entries: map[string]uint64{"object-with-a-long-name": 1 << 50}},
		}},
		{NextIno: 128, Inodes: map[uint64]*Inode{
			127: {Ino: 127, Size: 127, Nlink: 127, MtimeNs: 127},
		}},
		{NextIno: 129, Inodes: map[uint64]*Inode{
			128: {Ino: 128, Size: 128, Nlink: 128, MtimeNs: 128},
		}},
		// The widest scalar body there is: it must fit inodeEnc.scalars.
		{NextIno: math.MaxUint64, Inodes: map[uint64]*Inode{
			math.MaxUint64: {Ino: math.MaxUint64, Kind: 255, Size: math.MinInt64, Nlink: math.MinInt, MtimeNs: math.MinInt64,
				Entries: map[string]uint64{"": math.MaxUint64}},
		}},
	}
	for i, st := range cases {
		want := gobBytes(t, st)
		got, err := appendState(nil, st)
		if err != nil {
			t.Fatalf("case %d: appendState: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: hand encoding differs from gob\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestEncodeStateMultiEntry pins the two properties that matter for
// multi-entry maps, where gob's iteration order is random: identical
// byte LENGTH (snapshot length feeds simulated DRAM latency) and exact
// round-trip through the unchanged gob-based decodeState.
func TestEncodeStateMultiEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		st := snapshotState{NextIno: rng.Uint64() >> uint(rng.Intn(64)), Inodes: map[uint64]*Inode{}}
		for i := 0; i < 1+rng.Intn(20); i++ {
			node := &Inode{
				Ino:     rng.Uint64() >> uint(rng.Intn(64)),
				Kind:    Kind(rng.Intn(3)),
				Size:    rng.Int63() >> uint(rng.Intn(63)),
				Nlink:   rng.Intn(4),
				MtimeNs: rng.Int63() - rng.Int63(),
			}
			if node.Kind == KindDir {
				node.Entries = map[string]uint64{}
				for j := 0; j < rng.Intn(5); j++ {
					node.Entries[string(rune('a'+j))+"entry"] = rng.Uint64() >> uint(rng.Intn(64))
				}
			}
			st.Inodes[node.Ino] = node
		}
		want := gobBytes(t, st)
		got, err := appendState(nil, st)
		if err != nil {
			t.Fatalf("trial %d: appendState: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d, gob length %d", trial, len(got), len(want))
		}
		dec, err := decodeState(got)
		if err != nil {
			t.Fatalf("trial %d: decodeState of hand bytes: %v", trial, err)
		}
		if !reflect.DeepEqual(plain(dec), plain(st)) {
			t.Fatalf("trial %d: round-trip mismatch\n got %+v\nwant %+v", trial, dec, st)
		}
	}
}

// TestAppendStateReusesBuffer verifies appending into a warm buffer
// neither allocates nor corrupts earlier bytes, once the state carries
// its inode order the way the FS's does.
func TestAppendStateReusesBuffer(t *testing.T) {
	st := snapshotState{NextIno: 4, Inodes: map[uint64]*Inode{
		1: {Ino: 1, Kind: KindDir, Nlink: 1, Entries: map[string]uint64{"f": 2, "g": 3}},
		2: {Ino: 2, Kind: KindFile, Nlink: 1, Size: 9000},
		3: {Ino: 3, Kind: KindFile, Nlink: 1, Size: 77},
	}}
	st.order = inoOrder(st.Inodes)
	first, err := appendState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(first))
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = appendState(buf[:0], st)
		if err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(buf, first) {
		t.Fatalf("warm-buffer encoding differs from cold encoding")
	}
	if allocs > 0 {
		t.Fatalf("appendState into warm buffer allocated %.1f times per run", allocs)
	}
}
