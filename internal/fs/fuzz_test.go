package fs

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecodeRecords checks the journal-record decoder never panics on
// arbitrary bytes (a corrupted recovery box must fail cleanly, not crash
// the recovery path).
func FuzzDecodeRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRecord(nil, recCreate, 2, 1, uint64(KindFile), 10_008_525, "name", ""))
	f.Add(appendRecord(nil, recRename, 2, 1, 3, 1<<40, "old", "new"))
	f.Add(appendRecord(appendRecord(nil, recCreate, 2, 1, uint64(KindDir), 7, "d", ""), recSetSize, 2, 4097, 0, 8, "", ""))
	f.Add(appendRecord(nil, recLink, 2, 1, 0, 9, "alias", "")[:recordFixedBytes+3]) // cut inside the name
	f.Add([]byte{recSetSize, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeRecords(data)
		if err != nil {
			return
		}
		// Whatever decodes must replay without panicking (errors are
		// fine: dangling references are reported, not crashed on).
		st := emptyState()
		for _, rec := range recs {
			if err := applyRecord(&st, rec); err != nil {
				return
			}
		}
	})
}

// FuzzDecodeState checks the snapshot decoder fails cleanly on
// corruption, and that whatever does decode — a state no FS built, so
// the encoder meets it cold — encodes to the same bytes cold and warm
// and decodes back to itself.
func FuzzDecodeState(f *testing.F) {
	good := encodeState(snapshotState{
		NextIno: 5,
		Inodes:  map[uint64]*Inode{1: {Ino: 1, Kind: KindDir, Nlink: 1, Entries: map[string]uint64{"x": 2}}},
	})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x42})
	tree := encodeState(snapshotState{
		NextIno: 9,
		Inodes: map[uint64]*Inode{
			1: {Ino: 1, Kind: KindDir, Nlink: 1, Entries: map[string]uint64{"b": 3, "a": 2, "c": 8}},
			2: {Ino: 2, Kind: KindDir, Nlink: 1, MtimeNs: 77, Entries: map[string]uint64{}},
			3: {Ino: 3, Nlink: 2, Size: 4097, MtimeNs: 1 << 40},
			8: {Ino: 8, Nlink: 1},
		},
	})
	f.Add(tree)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeState(data) // must not panic
		if err != nil {
			return
		}
		cold := encodeState(st)
		warm := encodeState(st)
		if !bytes.Equal(cold, warm) {
			t.Fatalf("warm encoding differs from cold")
		}
		back, err := decodeState(cold)
		if err != nil || !reflect.DeepEqual(plain(back), plain(st)) {
			t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, back, st)
		}
	})
}

// FuzzDecodeCheckpointLog checks the flash log's replay on arbitrary
// bytes: it never panics, every frame it applies opens as the next frame
// of the generation, and the first it leaves does not — so no record past
// the first bad seal is ever applied.
func FuzzDecodeCheckpointLog(f *testing.F) {
	const gen = 7
	log, ends := testLog(gen)
	f.Add(log)
	f.Add(log[:ends[2]-1])                 // truncated payload
	f.Add(log[:ends[1]+ckptHeaderBytes-1]) // truncated header
	flipped := bytes.Clone(log)
	flipped[ends[0]+ckptHeaderBytes+3] ^= 1
	f.Add(flipped)
	other, _ := testLog(gen + 1)
	f.Add(append(bytes.Clone(log[:ends[0]]), other[ends[0]:]...))                                // wrong generation from frame 1 on
	f.Add(append(append(bytes.Clone(log[:ends[0]]), log[ends[1]:]...), log[ends[0]:ends[1]]...)) // frames 1 and 2 swapped
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st := emptyState()
		frames, err := replayLog(&st, data, gen) // must not panic
		// Walk the frames independently of replayLog's loop.
		opens := func(p []byte, seq uint32) int {
			if len(p) < ckptHeaderBytes {
				return 0
			}
			n := ckptHeaderBytes + int(binary.LittleEndian.Uint32(p[16:]))
			if n > len(p) || !sealed(ckptFrameMagic, p[:n]) ||
				binary.LittleEndian.Uint64(p[4:]) != gen || binary.LittleEndian.Uint32(p[12:]) != seq {
				return 0
			}
			return n
		}
		rest := data
		for seq := uint32(0); seq < frames; seq++ {
			n := opens(rest, seq)
			if n == 0 {
				t.Fatalf("applied %d frames, but frame %d does not open", frames, seq)
			}
			rest = rest[n:]
		}
		if err == nil && opens(rest, frames) != 0 {
			t.Fatalf("stopped after %d frames, but the next one opens", frames)
		}
	})
}
