package storman

import "testing"

// BenchmarkManager is the manager's rung, one op at a time on the
// placement table's paths:
//   - overwrite: a 512-byte write absorbed by a DRAM-resident block of a
//     128-block object, each op the next block;
//   - write-sync: a 512-byte write to one block of a flushed 128-block
//     object (a copy-on-write), then SyncObject, as a checkpoint does;
//   - read-flash: ReadAt of a whole flushed 128-block object;
//   - truncate: DeleteBlocksFrom(0) of a 128-block object in DRAM (the
//     object is rebuilt between ops, off the clock).
func BenchmarkManager(b *testing.B) {
	const objBlocks = 128
	data := blockOf(0x5A, 512)
	fill := func(b *testing.B, m *Manager, obj uint64) {
		for blk := range int64(objBlocks) {
			if err := m.WriteBlockAt(Key{obj, blk}, 0, blockOf(byte(blk), 4096)); err != nil {
				b.Fatal(err)
			}
		}
	}
	flushed := func(b *testing.B) *Manager {
		r := newRig(b, 1<<20, 0)
		fill(b, r.m, 1)
		if err := r.m.Sync(); err != nil {
			b.Fatal(err)
		}
		return r.m
	}

	b.Run("overwrite", func(b *testing.B) {
		m := newRig(b, 1<<20, 0).m
		fill(b, m, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if err := m.WriteBlockAt(Key{1, int64(i % objBlocks)}, 0, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write-sync", func(b *testing.B) {
		m := flushed(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if err := m.WriteBlockAt(Key{1, int64(i % objBlocks)}, 0, data); err != nil {
				b.Fatal(err)
			}
			if err := m.SyncObject(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-flash", func(b *testing.B) {
		m := flushed(b)
		buf := make([]byte, objBlocks*4096)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if err := m.ReadAt(1, 0, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("truncate", func(b *testing.B) {
		r := newRig(b, 1<<20, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			b.StopTimer()
			fill(b, r.m, 1)
			b.StartTimer()
			if err := r.m.DeleteBlocksFrom(1, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
