package flash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ssmobile/internal/device"
)

// eagerDevice is the byte model the frontier replaced: erased bytes are
// stored as 0xFF, an erase fills its block, and a program checks every
// byte it lands on. It models contents and errors only, not time.
type eagerDevice struct {
	cfg         Config
	data, spare []byte
	lost        bool
}

func newEagerDevice(cfg Config) *eagerDevice {
	units := cfg.Capacity() / int64(cfg.SpareUnitBytes)
	return &eagerDevice{
		cfg:   cfg,
		data:  bytes.Repeat([]byte{0xFF}, int(cfg.Capacity())),
		spare: bytes.Repeat([]byte{0xFF}, int(units)*cfg.SpareBytes),
	}
}

// land applies an op that passed its checks: full for Run and CutAfter,
// torn for CutDuring, nothing for CutBefore; any cut kills the device.
func (e *eagerDevice) land(fate Outcome, full, torn func()) error {
	switch fate {
	case Run, CutAfter:
		full()
	case CutDuring:
		torn()
	}
	if fate != Run {
		e.lost = true
		return ErrPowerCut
	}
	return nil
}

func (e *eagerDevice) program(addr int64, p []byte, fate Outcome) error {
	if e.lost {
		return ErrPowerCut
	}
	dst := e.data[addr : addr+int64(len(p))]
	if i := refFirstOverwrite(dst, p); i >= 0 {
		return fmt.Errorf("%w: addr %d old %02x new %02x", ErrOverwrite, addr+int64(i), dst[i], p[i])
	}
	return e.land(fate, func() { copy(dst, p) }, func() { tearProgram(dst, p) })
}

func (e *eagerDevice) programSpare(unit int64, p []byte, fate Outcome) error {
	if e.lost {
		return ErrPowerCut
	}
	dst := e.spare[unit*int64(e.cfg.SpareBytes):][:len(p)]
	if i := refFirstOverwrite(dst, p); i >= 0 {
		return fmt.Errorf("%w: spare unit %d byte %d old %02x new %02x", ErrOverwrite, unit, i, dst[i], p[i])
	}
	return e.land(fate, func() { copy(dst, p) }, func() { tearProgram(dst, p) })
}

func (e *eagerDevice) erase(block int, fate Outcome) error {
	if e.lost {
		return ErrPowerCut
	}
	bb := int64(e.cfg.BlockBytes)
	sb := bb / int64(e.cfg.SpareUnitBytes) * int64(e.cfg.SpareBytes)
	regions := [][]byte{e.data[int64(block)*bb:][:bb], e.spare[int64(block)*sb:][:sb]}
	return e.land(fate, func() {
		for _, r := range regions {
			fillErased(r)
		}
	}, func() {
		for _, r := range regions {
			for i := range r {
				r[i] = trembleByte(r[i], int64(i))
			}
		}
	})
}

// TestErasedFrontierMatchesEagerDevice drives a seeded op sequence on a
// device whose block size is not a power of two and on the eager byte
// model beside it: programs below, at and past a block's frontier, with
// gaps, some spanning two blocks of a bank, sync and async; spare
// programs; sync and async erases; and every cut on every destructive
// kind, each followed by Restore. After every op the two must agree on
// the error text, every Peek, a Read of every block and of the whole
// device, every spare unit, and each block's first non-erased byte. It
// runs with the data array whole, in pieces of two blocks (a piece
// boundary inside a bank and one at a bank boundary) and of one block.
func TestErasedFrontierMatchesEagerDevice(t *testing.T) {
	cfg := Config{Banks: 2, BlocksPerBank: 3, BlockBytes: 300, Params: device.IntelFlash, SpareUnitBytes: 100, SpareBytes: 7}
	cfg.Params.EnduranceCycles = 0
	bb := int64(cfg.BlockBytes)
	defer func(n int) { segmentBytes = n }(segmentBytes)
	for _, seg := range []int{segmentBytes, 2 * cfg.BlockBytes, cfg.BlockBytes} {
		segmentBytes = seg
		t.Run(fmt.Sprintf("piece=%d", seg), func(t *testing.T) { matchEagerDevice(t, cfg, bb) })
	}
}

func matchEagerDevice(t *testing.T, cfg Config, bb int64) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fate := Run
		cfg.Injector = InjectorFunc(func(int64, OpKind, int64, int) Outcome { return fate })
		d, _, _ := newTestDevice(t, cfg)
		ref := newEagerDevice(cfg)
		seen := map[string]int{}

		// legal returns a program over old that only clears bits, with
		// one illegal bit planted now and then.
		legal := func(old []byte) []byte {
			p := make([]byte, len(old))
			for i := range p {
				p[i] = old[i] & byte(rng.Intn(256))
			}
			if i := rng.Intn(len(p)); rng.Intn(8) == 0 && old[i] != 0xFF {
				p[i] |= ^old[i]
				seen["illegal"]++
			}
			return p
		}
		check := func(step int, op string, got, want error) {
			t.Helper()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d %s: error %v, eager model %v", seed, step, op, got, want)
			}
			for a := int64(0); a < d.Capacity(); a++ {
				if g := d.Peek(a); g != ref.data[a] {
					t.Fatalf("seed %d step %d %s: Peek(%d) = %02x, eager model %02x", seed, step, op, a, g, ref.data[a])
				}
			}
			for b := 0; b < d.NumBlocks(); b++ {
				buf := make([]byte, bb)
				_, err := d.Read(d.BlockAddr(b), buf)
				if ref.lost {
					if !errors.Is(err, ErrPowerCut) {
						t.Fatalf("seed %d step %d %s: Read of block %d on a dead device: %v", seed, step, op, b, err)
					}
				} else if err != nil || !bytes.Equal(buf, ref.data[d.BlockAddr(b):][:bb]) {
					t.Fatalf("seed %d step %d %s: Read of block %d differs from the eager model (err %v)", seed, step, op, b, err)
				}
				wantOff, wantOK := int64(0), false
				if i := firstNonErased(ref.data[d.BlockAddr(b):][:bb]); i >= 0 {
					wantOff, wantOK = int64(i), true
				}
				if off, ok := d.NonErasedAt(b); off != wantOff || ok != wantOK {
					t.Fatalf("seed %d step %d %s: NonErasedAt(%d) = %d, %v; eager model %d, %v", seed, step, op, b, off, ok, wantOff, wantOK)
				}
			}
			if !ref.lost {
				buf := make([]byte, d.Capacity())
				if _, err := d.Read(0, buf); err != nil || !bytes.Equal(buf, ref.data) {
					t.Fatalf("seed %d step %d %s: whole-device Read differs from the eager model (err %v)", seed, step, op, err)
				}
			}
			for u := int64(0); u < d.SpareUnits(); u++ {
				if g := d.PeekSpare(u); !bytes.Equal(g, ref.spare[u*int64(cfg.SpareBytes):][:cfg.SpareBytes]) {
					t.Fatalf("seed %d step %d %s: spare unit %d = %x, eager model %x", seed, step, op, u, g, ref.spare[u*int64(cfg.SpareBytes):][:cfg.SpareBytes])
				}
			}
		}

		for step := 0; step < 1500; step++ {
			fate = Run
			if rng.Intn(6) == 0 {
				fate = Outcome(1 + rng.Intn(3))
			}
			var kind, op string
			var got, want error
			switch k := rng.Intn(10); {
			case k < 6:
				kind = "program"
				b := rng.Intn(d.NumBlocks())
				f := d.erasedFrom[b]
				var off int64
				switch pos := rng.Intn(4); {
				case pos == 0 && f > 0:
					off, op = rng.Int63n(f), "program below"
				case pos == 1 && f < bb:
					off, op = f, "program at"
				case pos == 2 && f+1 < bb:
					off, op = f+1+rng.Int63n(bb-f-1), "program past"
				default: // near the block's end, spanning into the next when the bank has one
					off, op = bb-1-rng.Int63n(40), "program at end"
				}
				addr := d.BlockAddr(b) + off
				bankEnd := d.BlockAddr((d.BankOf(b) + 1) * cfg.BlocksPerBank)
				n := min(1+rng.Int63n(120), bankEnd-addr)
				if d.BlockOf(addr+n-1) != b {
					op = "program spanning blocks"
				}
				p := legal(ref.data[addr : addr+n])
				if rng.Intn(2) == 0 {
					_, got = d.Program(addr, p)
				} else {
					op += " async"
					got = d.ProgramAsync(addr, p)
				}
				want = ref.program(addr, p, fate)
			case k < 8:
				u := rng.Int63n(d.SpareUnits())
				n := 1 + rng.Intn(cfg.SpareBytes)
				p := legal(ref.spare[u*int64(cfg.SpareBytes):][:n])
				kind, op = "program spare", "program spare"
				_, got = d.ProgramSpare(u, p)
				want = ref.programSpare(u, p, fate)
			default:
				b := rng.Intn(d.NumBlocks())
				if kind, op = "erase", "erase"; rng.Intn(2) == 0 {
					_, got = d.Erase(b)
				} else {
					op = "erase async"
					got = d.EraseAsync(b)
				}
				want = ref.erase(b, fate)
			}
			seen[fmt.Sprintf("%s/%d", kind, fate)]++
			seen[op]++
			check(step, op, got, want)
			if ref.lost {
				d.Restore()
				ref.lost = false
				check(step, op+" then Restore", nil, nil)
			}
		}
		for _, want := range []string{"program below", "program at", "program past", "program spanning blocks", "program at async", "erase async", "illegal"} {
			if seen[want] == 0 {
				t.Errorf("seed %d never ran %q", seed, want)
			}
		}
		for _, kind := range []string{"program", "program spare", "erase"} {
			for f := Run; f <= CutAfter; f++ {
				if seen[fmt.Sprintf("%s/%d", kind, f)] == 0 {
					t.Errorf("seed %d never ran %s with outcome %d", seed, kind, f)
				}
			}
		}
	}
}

// firstNonErased is the byte walk NonErasedAt replaces: the index of the
// first byte of b that is not 0xFF, or -1.
func firstNonErased(b []byte) int {
	for i, c := range b {
		if c != 0xFF {
			return i
		}
	}
	return -1
}
