package fs

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeRecords checks the journal-record decoder never panics on
// arbitrary bytes (a corrupted recovery box must fail cleanly, not crash
// the recovery path).
func FuzzDecodeRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRecord(recCreate, 2, 1, uint64(KindFile), "name", ""))
	f.Add(encodeRecord(recRename, 2, 1, 3, "old", "new"))
	f.Add([]byte{recSetSize, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeRecords(data)
		if err != nil {
			return
		}
		// Whatever decodes must replay without panicking (errors are
		// fine: dangling references are reported, not crashed on).
		st := snapshotState{
			NextIno: RootIno + 1,
			Inodes:  map[uint64]*Inode{RootIno: {Ino: RootIno, Kind: KindDir, Nlink: 1, Entries: map[string]uint64{}}},
		}
		for _, rec := range recs {
			if err := applyRecord(&st, rec); err != nil {
				return
			}
		}
	})
}

// FuzzDecodeState checks the gob snapshot decoder fails cleanly on
// corruption, and that whatever does decode — a state no FS built, so
// the encoder meets it cold — encodes to the same bytes cold and warm
// and decodes back to itself.
func FuzzDecodeState(f *testing.F) {
	good, _ := encodeState(snapshotState{
		NextIno: 5,
		Inodes:  map[uint64]*Inode{1: {Ino: 1, Kind: KindDir, Nlink: 1, Entries: map[string]uint64{"x": 2}}},
	})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x42})
	tree, _ := encodeState(snapshotState{
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
		cold, err := encodeState(st)
		if err != nil {
			t.Fatalf("encode of a decoded state: %v", err)
		}
		warm, _ := encodeState(st)
		if !bytes.Equal(cold, warm) {
			t.Fatalf("warm encoding differs from cold")
		}
		back, err := decodeState(cold)
		if err != nil || !reflect.DeepEqual(plain(back), plain(st)) {
			t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, back, st)
		}
	})
}
