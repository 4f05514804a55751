package main

import (
	"strings"
	"testing"

	"ssmobile/internal/core"
	"ssmobile/internal/obs"
)

// TestStabilitySession drives the shell through §3.1's stability story:
// a file synced to flash and one left in battery-backed DRAM both
// survive an OS crash, and only the synced one survives a power failure.
func TestStabilitySession(t *testing.T) {
	o := obs.New(0)
	sys, err := core.NewSolidState(core.SolidStateConfig{DRAMBytes: 8 << 20, FlashBytes: 32 << 20, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sh := &shell{sys: sys, obs: o, out: &out}
	sh.session(strings.NewReader(`mkdir /pda
write /pda/saved synced before the crash
sync
write /pda/draft still in DRAM

crash
cat /pda/draft
ls /pda
powerfail
cat /pda/saved
cat /pda/draft
stats
time
exit
cat /pda/saved
`))
	got := out.String()
	for _, want := range []string{
		"ssmfs> OS crashed and recovered from the recovery box: 4 inodes, 0 bytes lost\n",
		"ssmfs> still in DRAM\n",
		"ssmfs> file        13  draft\nfile        23  saved\n",
		"ssmfs> power failed; device-scan remount recovered 3 of 4 inodes\n",
		"ssmfs> synced before the crash\n",
		"ssmfs> error: ",
		// The storage manager is rebuilt by the remount, so its line
		// says it counts from there, beside flash counts since power-on.
		"ssmfs> storage: since mount, wrote 0KB, flushed 0KB to flash",
		"ssmfs> virtual time ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("transcript lacks %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "synced before the crash\n") != 1 {
		t.Errorf("the session ran past exit:\n%s", got)
	}
	if sys.FS.Exists("/pda/draft") || !sys.FS.Exists("/pda/saved") {
		t.Errorf("after powerfail: draft exists %v, saved exists %v", sys.FS.Exists("/pda/draft"), sys.FS.Exists("/pda/saved"))
	}
}
