package fs

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

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

// TestSnapshotPinnedBytes holds the format to the byte, so that changing
// it shows as a diff here: every recovery-box snapshot and flash image is
// charged by its length.
func TestSnapshotPinnedBytes(t *testing.T) {
	for i, c := range []struct {
		st  snapshotState
		hex string
	}{
		{emptyState(), "020101010002000100"},
		// A directory of two entries held out of name order, an empty
		// directory, a file; two-byte varints of both signs.
		{snapshotState{NextIno: 300, Inodes: map[uint64]*Inode{
			1:   {Ino: 1, Kind: KindDir, Nlink: 1, MtimeNs: 64, Entries: map[string]uint64{"b": 299, "a": 2}},
			2:   {Ino: 2, Kind: KindDir, Nlink: 1, Entries: map[string]uint64{}},
			299: {Ino: 299, Size: 4097, Nlink: 2, MtimeNs: -65},
		}}, "ac020301010002800101020161020162ab0202010002000100ab0200824004810100"},
		// The widest an inode can be: it must fit inodeEnc.elem.
		{snapshotState{NextIno: math.MaxUint64, Inodes: map[uint64]*Inode{
			math.MaxUint64: {Ino: math.MaxUint64, Kind: 255, Size: math.MinInt64, Nlink: math.MinInt, MtimeNs: math.MinInt64,
				Entries: map[string]uint64{"": math.MaxUint64}},
		}}, "ffffffffffffffffff0101ffffffffffffffffff01ff01ffffffffffffffffff01ffffffffffffffffff01ffffffffffffffffff01010100ffffffffffffffffff01"},
	} {
		got := encodeState(c.st)
		if hex.EncodeToString(got) != c.hex {
			t.Errorf("case %d: encoding\n got %x\nwant %s", i, got, c.hex)
		}
		dec, err := decodeState(got)
		if err != nil || !reflect.DeepEqual(plain(dec), plain(c.st)) {
			t.Errorf("case %d: round trip: %v\n got %+v\nwant %+v", i, err, dec, c.st)
		}
	}
}

// TestDecodeStateRefuses is what the decoder turns away: every proper
// prefix of a valid encoding, and whole encodings that no encoder wrote.
func TestDecodeStateRefuses(t *testing.T) {
	good := encodeState(snapshotState{NextIno: 9, Inodes: map[uint64]*Inode{
		1: {Ino: 1, Kind: KindDir, Nlink: 1, Entries: map[string]uint64{"a": 2, "bee": 8}},
		2: {Ino: 2, Nlink: 1, Size: 4097, MtimeNs: 1 << 40},
		8: {Ino: 8, Nlink: 1},
	}})
	if _, err := decodeState(good); err != nil {
		t.Fatalf("the valid encoding: %v", err)
	}
	for n := range good {
		if _, err := decodeState(good[:n]); err == nil {
			t.Errorf("the first %d of %d bytes decoded", n, len(good))
		}
	}
	bomb := binary.AppendUvarint(nil, 1<<40)
	file := []byte{0, 0, 0, 0, 0} // Kind, Size, Nlink, MtimeNs, no entries
	for name, p := range map[string][]byte{
		"trailing byte":         append(bytes.Clone(good), 0),
		"2^40 inodes":           append(append([]byte{9}, bomb...), make([]byte, 64)...),
		"2^40 entries":          append(append([]byte{9, 1, 1, 1, 0, 2, 0, 1}, bomb...), make([]byte, 64)...),
		"2^40-byte name":        append(append([]byte{9, 1, 1, 1, 0, 2, 0, 1, 1}, bomb...), make([]byte, 64)...),
		"inode repeated":        slices.Concat([]byte{9, 2, 5}, file, []byte{5}, file),
		"inodes out of order":   slices.Concat([]byte{9, 2, 5}, file, []byte{4}, file),
		"name repeated":         {9, 1, 1, 1, 0, 2, 0, 1, 2, 1, 'a', 2, 1, 'a', 3},
		"names out of order":    {9, 1, 1, 1, 0, 2, 0, 1, 2, 1, 'b', 2, 1, 'a', 3},
		"flag neither 0 nor 1":  {9, 1, 1, 1, 0, 2, 0, 2},
		"kind wider than uint8": {9, 1, 1, 0x80, 0x02, 0, 2, 0, 0},
	} {
		if _, err := decodeState(p); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestEncodeStateMultiEntry round-trips random states through the codec.
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
		dec, err := decodeState(encodeState(st))
		if err != nil {
			t.Fatalf("trial %d: decodeState: %v", trial, err)
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
	st.order = st.inoOrder()
	first := appendState(nil, st)
	buf := make([]byte, 0, 2*len(first))
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	allocs := testing.AllocsPerRun(100, func() { buf = appendState(buf[:0], st) })
	if !bytes.Equal(buf, first) {
		t.Fatalf("warm-buffer encoding differs from cold encoding")
	}
	if allocs > 0 {
		t.Fatalf("appendState into warm buffer allocated %.1f times per run", allocs)
	}
}
