package flash

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"ssmobile/internal/device"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

func testConfig() Config {
	return Config{
		Banks:         2,
		BlocksPerBank: 8,
		BlockBytes:    4096,
		Params:        device.IntelFlash,
	}
}

func newTestDevice(t *testing.T, cfg Config) (*Device, *sim.Clock, *sim.EnergyMeter) {
	t.Helper()
	clock := sim.NewClock()
	meter := sim.NewEnergyMeter()
	d, err := New(cfg, clock, meter)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, clock, meter
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Banks: 0, BlocksPerBank: 1, BlockBytes: 1, Params: device.IntelFlash}).Validate(); err == nil {
		t.Error("zero banks accepted")
	}
	if err := (Config{Banks: 1, BlocksPerBank: 1, BlockBytes: 512, Params: device.NECDram}).Validate(); err == nil {
		t.Error("DRAM params accepted for flash device")
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestGeometry(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	if d.Capacity() != 2*8*4096 {
		t.Fatalf("capacity %d", d.Capacity())
	}
	if d.NumBlocks() != 16 || d.Banks() != 2 || d.BlockBytes() != 4096 {
		t.Fatal("geometry accessors wrong")
	}
	if d.BlockOf(0) != 0 || d.BlockOf(4095) != 0 || d.BlockOf(4096) != 1 {
		t.Fatal("BlockOf wrong")
	}
	if d.BankOf(0) != 0 || d.BankOf(7) != 0 || d.BankOf(8) != 1 {
		t.Fatal("BankOf wrong")
	}
	if d.BlockAddr(3) != 3*4096 {
		t.Fatal("BlockAddr wrong")
	}
}

func TestNewDeviceIsErased(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	buf := make([]byte, 64)
	if _, err := d.Read(100, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0xFF {
			t.Fatal("fresh device not erased")
		}
	}
}

func TestProgramThenRead(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	msg := []byte("solid-state mobile computers")
	if _, err := d.Program(128, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := d.Read(128, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q, want %q", got, msg)
	}
}

func TestEraseBeforeRewriteRule(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	if _, err := d.Program(0, []byte{0x0F}); err != nil {
		t.Fatal(err)
	}
	// Clearing more bits is legal flash behaviour.
	if _, err := d.Program(0, []byte{0x0E}); err != nil {
		t.Fatalf("bit-clearing overprogram rejected: %v", err)
	}
	// Setting a bit back requires an erase.
	if _, err := d.Program(0, []byte{0x1F}); !errors.Is(err, ErrOverwrite) {
		t.Fatalf("got %v, want ErrOverwrite", err)
	}
	if _, err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, []byte{0x1F}); err != nil {
		t.Fatalf("program after erase failed: %v", err)
	}
}

func TestEraseResetsWholeBlockOnly(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	if _, err := d.Program(10, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(4096+10, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if d.Peek(10) != 0xFF {
		t.Fatal("erase did not reset block 0")
	}
	if d.Peek(4096+10) != 0 {
		t.Fatal("erase of block 0 disturbed block 1")
	}
}

func TestOutOfRange(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	if _, err := d.Read(d.Capacity()-1, make([]byte, 2)); !errors.Is(err, ErrOutOfRange) {
		t.Error("read past end accepted")
	}
	if _, err := d.Program(-1, []byte{0}); !errors.Is(err, ErrOutOfRange) {
		t.Error("negative address accepted")
	}
	if _, err := d.Erase(16); !errors.Is(err, ErrOutOfRange) {
		t.Error("bad block erase accepted")
	}
	if err := d.EraseAsync(-1); !errors.Is(err, ErrOutOfRange) {
		t.Error("bad block async erase accepted")
	}
}

func TestProgramMayNotSpanBanks(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	bankBoundary := int64(8 * 4096)
	if _, err := d.Program(bankBoundary-2, []byte{0, 0, 0, 0}); err == nil {
		t.Fatal("cross-bank program accepted")
	}
}

func TestReadSpanningBanks(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	boundary := int64(8 * 4096)
	if _, err := d.Program(boundary-2, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(boundary, []byte{3, 4}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := d.Read(boundary-2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{1, 2, 3, 4}) {
		t.Fatalf("cross-bank read %v", buf)
	}
}

func TestLatencyWriteSlowerThanRead(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	n := 1024
	rd, err := d.Read(0, make([]byte, n))
	if err != nil {
		t.Fatal(err)
	}
	wr, err := d.Program(0, make([]byte, n))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(wr) / float64(rd); ratio < 20 {
		t.Errorf("program/read latency ratio %.1f, want ~two orders of magnitude", ratio)
	}
}

func TestClockAdvancesOnSyncOps(t *testing.T) {
	d, clock, _ := newTestDevice(t, testConfig())
	before := clock.Now()
	lat, err := d.Read(0, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now().Sub(before) != lat {
		t.Fatal("clock advance != reported read latency")
	}
	before = clock.Now()
	lat, err = d.Erase(0)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now().Sub(before) != lat {
		t.Fatal("clock advance != reported erase latency")
	}
}

func TestAsyncEraseDoesNotAdvanceClockButOccupiesBank(t *testing.T) {
	d, clock, _ := newTestDevice(t, testConfig())
	before := clock.Now()
	if err := d.EraseAsync(0); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != before {
		t.Fatal("async erase advanced the clock")
	}
	if d.BankBusyUntil(0) <= before {
		t.Fatal("async erase did not occupy the bank")
	}
	// A read on the busy bank stalls...
	lat0, err := d.Read(0, make([]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	eraseDur := sim.Duration(device.IntelFlash.EraseLatencyNs)
	if lat0 < eraseDur {
		t.Fatalf("read on erasing bank took %v, want >= erase %v", lat0, eraseDur)
	}
}

func TestBankingIsolatesReads(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	if err := d.EraseAsync(0); err != nil { // bank 0 busy
		t.Fatal(err)
	}
	// Read on bank 1 proceeds at device speed.
	lat, err := d.Read(int64(8*4096), make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	unloaded := sim.Duration(device.IntelFlash.ReadLatencyNs(64))
	if lat != unloaded {
		t.Fatalf("read on idle bank took %v, want unloaded %v", lat, unloaded)
	}
}

func TestAsyncProgramQueuesBehindErase(t *testing.T) {
	d, clock, _ := newTestDevice(t, testConfig())
	if err := d.EraseAsync(0); err != nil {
		t.Fatal(err)
	}
	busyAfterErase := d.BankBusyUntil(0)
	if err := d.ProgramAsync(4096, []byte{0xAA}); err != nil { // block 1, same bank
		t.Fatal(err)
	}
	if d.BankBusyUntil(0) <= busyAfterErase {
		t.Fatal("async program did not extend bank occupancy")
	}
	if clock.Now() != 0 {
		t.Fatal("async ops advanced the clock")
	}
	if d.Peek(4096) != 0xAA {
		t.Fatal("async program data not applied")
	}
}

// Where the waiting is, on the record: a program that finds its bank
// erasing is charged the wait under op="program" (reads keep their own
// series), one to another bank is charged nothing, and each bank's busy
// total is the program and erase time issued to it, posted or not.
func TestStallByOpAndBusyByBank(t *testing.T) {
	cfg := testConfig()
	cfg.SpareUnitBytes, cfg.SpareBytes = 1024, 16
	o := obs.New(0)
	cfg.Obs = o
	d, _, _ := newTestDevice(t, cfg)
	lbl := func(k, v string) obs.Labels {
		return obs.Labels{"layer": "flash", "device": "flash", k: v}
	}
	stall := func(op string) int64 { return o.Registry.Counter("stall_ns_total", lbl("op", op)).Value() }
	busy := func(bank string) int64 { return o.Registry.Counter("bank_busy_ns_total", lbl("bank", bank)).Value() }

	erase := int64(device.IntelFlash.EraseLatencyNs)
	page := int64(device.IntelFlash.WriteLatencyNs(1024))
	spare := int64(device.IntelFlash.WriteLatencyNs(16))
	if err := d.EraseAsync(0); err != nil { // bank 0 busy for one erase
		t.Fatal(err)
	}
	data := make([]byte, 1024)
	if _, err := d.Program(int64(8*4096), data); err != nil { // bank 1: no wait
		t.Fatal(err)
	}
	if got := stall("program"); got != 0 {
		t.Fatalf("program to an idle bank stalled %d ns", got)
	}
	if _, err := d.Program(4096, data); err != nil { // bank 0: waits out what is left of the erase
		t.Fatal(err)
	}
	if got, want := stall("program"), erase-page; got != want {
		t.Fatalf("program stall %d ns, want the erase less the first program, %d", got, want)
	}
	if _, err := d.ProgramSpare(4, make([]byte, 16)); err != nil { // bank 0 again, now idle
		t.Fatal(err)
	}
	if got, want := stall("program"), erase-page; got != want {
		t.Fatalf("spare program to an idle bank moved the stall to %d ns", got)
	}
	if got := stall("read"); got != 0 {
		t.Fatalf("read stall %d ns with no read issued", got)
	}
	if got, want := busy("0"), erase+page+spare; got != want {
		t.Fatalf("bank 0 busy %d ns, want erase + page + spare = %d", got, want)
	}
	if got := busy("1"); got != page {
		t.Fatalf("bank 1 busy %d ns, want one page program, %d", got, page)
	}
}

func TestEnduranceWearOut(t *testing.T) {
	cfg := testConfig()
	cfg.Params.EnduranceCycles = 5
	d, _, _ := newTestDevice(t, cfg)
	for i := 0; i < 5; i++ {
		if _, err := d.Erase(3); err != nil {
			t.Fatalf("erase %d failed: %v", i, err)
		}
	}
	if !d.WornOut(3) {
		t.Fatal("block not marked worn after guaranteed cycles")
	}
	if _, err := d.Erase(3); !errors.Is(err, ErrWornOut) {
		t.Fatalf("erase past endurance: %v, want ErrWornOut", err)
	}
	if d.EraseCount(3) != 5 {
		t.Fatalf("erase count %d, want 5", d.EraseCount(3))
	}
	if d.WornOut(2) {
		t.Fatal("wear leaked to another block")
	}
	if s := d.Stats(); s.WornOutBlocks != 1 {
		t.Fatalf("stats report %d worn blocks, want 1", s.WornOutBlocks)
	}
}

func TestUnlimitedEnduranceWhenZero(t *testing.T) {
	cfg := testConfig()
	cfg.Params.EnduranceCycles = 0
	d, _, _ := newTestDevice(t, cfg)
	for i := 0; i < 100; i++ {
		if _, err := d.Erase(0); err != nil {
			t.Fatal(err)
		}
	}
	if d.WornOut(0) {
		t.Fatal("zero endurance should mean unlimited")
	}
}

func TestStatsAccounting(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	if _, err := d.Program(0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(0, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(1); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Programs != 1 || s.BytesProgrammed != 100 {
		t.Errorf("program stats %+v", s)
	}
	if s.Reads != 1 || s.BytesRead != 40 {
		t.Errorf("read stats %+v", s)
	}
	if s.Erases != 1 || s.MaxEraseCount != 1 {
		t.Errorf("erase stats %+v", s)
	}
	if s.EraseCountCoV <= 0 {
		t.Error("one erased block among many should give positive CoV")
	}
}

func TestEnergyCharged(t *testing.T) {
	d, _, meter := newTestDevice(t, testConfig())
	if _, err := d.Program(0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if meter.Category("flash") <= 0 {
		t.Fatal("program charged no energy")
	}
	before := meter.Total()
	d.ChargeIdle()
	if meter.Total() < before {
		t.Fatal("idle charge decreased meter")
	}
}

func TestEraseCountsCopy(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	if _, err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	counts := d.EraseCounts()
	counts[0] = 99
	if d.EraseCount(0) != 1 {
		t.Fatal("EraseCounts returned a live reference")
	}
}

func spareConfig() Config {
	cfg := testConfig()
	cfg.SpareUnitBytes = 1024
	cfg.SpareBytes = 32
	return cfg
}

func TestSpareConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.SpareBytes = 16
	bad.SpareUnitBytes = 3000 // does not divide block size
	if err := bad.Validate(); err == nil {
		t.Error("bad spare unit accepted")
	}
}

func TestSpareDisabledByDefault(t *testing.T) {
	d, _, _ := newTestDevice(t, testConfig())
	if d.SpareUnits() != 0 {
		t.Fatal("spare units on spare-less device")
	}
	if _, err := d.ReadSpare(0, make([]byte, 4)); err == nil {
		t.Fatal("spare read on spare-less device accepted")
	}
	if d.PeekSpare(0) != nil {
		t.Fatal("PeekSpare on spare-less device")
	}
}

func TestSpareProgramReadRoundTrip(t *testing.T) {
	d, _, _ := newTestDevice(t, spareConfig())
	if d.SpareUnits() != d.Capacity()/1024 {
		t.Fatalf("spare units %d", d.SpareUnits())
	}
	rec := []byte("page-metadata-record")
	if _, err := d.ProgramSpare(7, rec); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(rec))
	if _, err := d.ReadSpare(7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, rec) {
		t.Fatalf("spare round trip %q", buf)
	}
	// Unwritten spare reads erased.
	if _, err := d.ReadSpare(8, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xFF {
		t.Fatal("fresh spare not erased")
	}
}

func TestSpareBitRules(t *testing.T) {
	d, _, _ := newTestDevice(t, spareConfig())
	if _, err := d.ProgramSpare(0, []byte{0x0F}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramSpare(0, []byte{0xF0}); !errors.Is(err, ErrOverwrite) {
		t.Fatalf("spare overwrite: %v", err)
	}
}

func TestSpareErasedWithBlock(t *testing.T) {
	d, _, _ := newTestDevice(t, spareConfig())
	// Block 0 covers spare units 0..3 (4096/1024); block 1 starts at 4.
	if _, err := d.ProgramSpare(2, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramSpare(4, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if d.PeekSpare(2)[0] != 0xFF {
		t.Fatal("spare not erased with its block")
	}
	if d.PeekSpare(4)[0] != 0 {
		t.Fatal("erase disturbed another block's spare")
	}
}

func TestSpareOutOfRange(t *testing.T) {
	d, _, _ := newTestDevice(t, spareConfig())
	if _, err := d.ReadSpare(d.SpareUnits(), make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
		t.Error("spare read past end accepted")
	}
	if _, err := d.ProgramSpare(0, make([]byte, 64)); !errors.Is(err, ErrOutOfRange) {
		t.Error("oversized spare write accepted")
	}
}

// Property: any sequence of erase+program operations, read back, matches a
// plain map model of the same bytes.
func TestReadYourWritesProperty(t *testing.T) {
	type op struct {
		Block uint8
		Off   uint16
		Val   byte
	}
	cfg := testConfig()
	f := func(ops []op) bool {
		clock := sim.NewClock()
		d, err := New(cfg, clock, sim.NewEnergyMeter())
		if err != nil {
			return false
		}
		model := make(map[int64]byte)
		for _, o := range ops {
			block := int(o.Block) % d.NumBlocks()
			addr := d.BlockAddr(block) + int64(o.Off)%int64(cfg.BlockBytes)
			// Erase-then-program to sidestep the overwrite rule; the model
			// must reflect the erase too.
			if _, err := d.Erase(block); err != nil {
				return false
			}
			start := d.BlockAddr(block)
			for a := range model {
				if a >= start && a < start+int64(cfg.BlockBytes) {
					delete(model, a)
				}
			}
			if _, err := d.Program(addr, []byte{o.Val}); err != nil {
				return false
			}
			model[addr] = o.Val
		}
		buf := make([]byte, 1)
		for a, want := range model {
			if _, err := d.Read(a, buf); err != nil {
				return false
			}
			if buf[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
