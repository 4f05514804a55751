package flash

import (
	"bytes"
	"errors"
	"testing"
)

// TestReadPagesChargesEachPage holds ReadPages to the Reads it batches:
// two identical devices, one bank busy with a background erase, read the
// same pages across both banks, one in a single call and the other a
// page at a time. The bytes, the latency returned, the clock, the energy
// and every read counter must agree.
func TestReadPagesChargesEachPage(t *testing.T) {
	const page = 1024
	addrs := []int64{0, 9 * 4096, 3 * page, 8*4096 + page, 0, 15*4096 + 3*page}
	twin := func() (*Device, func() [2]float64) {
		d, clock, meter := newTestDevice(t, testConfig())
		for a := int64(0); a < d.Capacity(); a += page {
			if _, err := d.Program(a, bytes.Repeat([]byte{byte(a / page)}, page)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.EraseAsync(12); err != nil {
			t.Fatal(err)
		}
		return d, func() [2]float64 { return [2]float64{float64(clock.Now()), float64(meter.Total())} }
	}
	batched, batchedAt := twin()
	single, singleAt := twin()

	got := make([]byte, len(addrs)*page)
	lat, err := batched.ReadPages(addrs, got)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(got))
	var wantLat int64
	for i, a := range addrs {
		l, err := single.Read(a, want[i*page:(i+1)*page])
		if err != nil {
			t.Fatal(err)
		}
		wantLat += int64(l)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ReadPages returned other bytes than the Reads")
	}
	if int64(lat) != wantLat || batchedAt() != singleAt() {
		t.Fatalf("ReadPages took %d ns to %v (clock, energy), the Reads %d ns to %v", lat, batchedAt(), wantLat, singleAt())
	}
	if b, s := batched.Stats(), single.Stats(); b != s || b.ReadStallNs == 0 {
		t.Fatalf("ReadPages stats %+v, the Reads %+v (a read must have stalled on the erase)", b, s)
	}

	before, at := batched.Stats(), batchedAt()
	for _, c := range []struct {
		addrs []int64
		n     int
	}{
		{nil, 0},
		{[]int64{0, 4096}, page + 1},
		{[]int64{0, batched.Capacity() - page + 1}, 2 * page},
	} {
		if _, err := batched.ReadPages(c.addrs, make([]byte, c.n)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ReadPages(%v, %d bytes) = %v, want ErrOutOfRange", c.addrs, c.n, err)
		}
	}
	if batched.Stats() != before || batchedAt() != at {
		t.Fatal("a rejected ReadPages charged the device")
	}
}
