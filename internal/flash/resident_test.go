//go:build linux

package flash

import (
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"ssmobile/internal/device"
)

// residentBytes reads the process's resident set from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no statm: %v", err)
	}
	f := strings.Fields(string(b))
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		t.Fatalf("statm %q: %v", b, err)
	}
	return pages * int64(os.Getpagesize())
}

// keptCards stays reachable so that no card built here is freed: a later
// card landing on an earlier one's memory would be cleared whole, in
// pieces or not.
var keptCards []*Device

// TestNewLeavesArrayUntouched builds cards right after the heap has freed
// memory it used before: each time a 4 MB buffer is filled, dropped and
// returned to the OS, so a card may land partly on memory the runtime must
// clear by hand. Only the pieces that land there may become resident; a
// card allocated whole was cleared, and so made resident, whole (in about
// one run of this test in two, always on its first build).
func TestNewLeavesArrayUntouched(t *testing.T) {
	cfg := Config{Banks: 4, BlocksPerBank: 256, BlockBytes: 64 << 10, Params: device.IntelFlash}
	for i := 0; i < 4; i++ {
		junk := make([]byte, 4<<20)
		fillErased(junk)
		junk = nil
		debug.FreeOSMemory()
		before := residentBytes(t)
		d, err := New(cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		keptCards = append(keptCards, d)
		if grew := residentBytes(t) - before; grew > 16<<20 {
			t.Fatalf("build %d: a %d MB card made %d MB resident; want at most 16", i, d.Capacity()>>20, grew>>20)
		}
	}
}
