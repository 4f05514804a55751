// PDA: a personal digital assistant in the mould of the paper's examples
// (Sharp Wizard, Apple Newton, HP OmniBook) — bundled applications
// executed in place from a flash card, an appointment database kept in
// the memory-resident file system, and a demonstration that an OS crash
// loses nothing while a battery death loses only unflushed data.
//
//	go run ./examples/pda
package main

import (
	"fmt"
	"log"

	"ssmobile/internal/core"
	"ssmobile/internal/dram"
	"ssmobile/internal/fs"
	"ssmobile/internal/sim"
	"ssmobile/internal/trace"
	"ssmobile/internal/vm"
)

func main() {
	// A palmtop: 2MB DRAM, 8MB flash.
	sys, err := core.NewSolidState(core.SolidStateConfig{
		DRAMBytes:   2 << 20,
		FlashBytes:  8 << 20,
		BufferBytes: 512 << 10,
		RBoxBytes:   256 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("palmtop:", sys.Name())

	// --- Execute in place: the bundled datebook application ships in
	// flash (as the OmniBook shipped software in memory cards) and runs
	// without being loaded into precious DRAM.
	const appSize = 256 << 10
	app := make([]byte, appSize)
	for i := range app {
		app[i] = byte(i * 31)
	}
	// The installer programs the application image into the read-mostly
	// code card, where the cleaner never touches it.
	if err := sys.InstallImage(0, app); err != nil {
		log.Fatal(err)
	}
	space := sys.VM.NewSpace()
	start := sys.Clock().Now()
	if err := sys.VM.MapFlash(space, 0x400000, 0, appSize, vm.PermRead|vm.PermExec); err != nil {
		log.Fatal(err)
	}
	if err := sys.VM.Exec(space, 0x400000, appSize); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("datebook launched in %v, executing in place (0 DRAM frames used of %d)\n",
		sys.Clock().Now().Sub(start), sys.VM.Stats().FramesTotal)

	// --- The appointment database lives in the file system.
	must(sys.FS.MkdirAll("/pda/datebook"))
	for day := 1; day <= 31; day++ {
		path := fmt.Sprintf("/pda/datebook/jan-%02d", day)
		entry := fmt.Sprintf("09:00 standup\n14:00 design review (day %d)\n", day)
		must(sys.FS.WriteFile(path, []byte(entry)))
	}
	infos, err := sys.FS.ReadDir("/pda/datebook")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("datebook holds %d days\n", len(infos))

	// --- The user pops the batteries without warning... but this is an
	// OS crash equivalent for the in-core FS object only if power holds.
	// First: an OS crash. Battery-backed DRAM keeps everything; the
	// recovery box restores the namespace in microseconds.
	recovered, err := fs.RecoverAfterCrash(fs.Config{RBoxBytes: 256 << 10},
		sys.Clock(), sys.Storage, sys.DRAM)
	if err != nil {
		log.Fatal(err)
	}
	entry, err := recovered.ReadFile("/pda/datebook/jan-15")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after OS crash: datebook intact (%d inodes), jan-15 reads %q...\n",
		recovered.NumInodes(), string(entry[:13]))

	// --- Now the real thing: checkpoint, keep working, then lose power.
	must(recovered.Sync())
	must(recovered.WriteFile("/pda/datebook/feb-01", []byte("unsaved entry")))
	sys.DRAM.PowerFail()
	after, lost, err := fs.RecoverAfterPowerFailure(fs.Config{RBoxBytes: 256 << 10},
		sys.Clock(), sys.Storage, sys.DRAM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after battery death: lost %d bytes (the unsaved entry); january survives: %v\n",
		lost, after.Exists("/pda/datebook/jan-15"))
	fmt.Printf("feb-01 survived: %v (written after the last checkpoint)\n",
		after.Exists("/pda/datebook/feb-01"))

	// --- A full day of PIM usage: bursts of tiny record updates with
	// long idle gaps. The write buffer absorbs the in-place rewrites, so
	// the flash card barely wears.
	day, err := trace.GeneratePIM(trace.DefaultPIM(8*sim.Hour, 7))
	if err != nil {
		log.Fatal(err)
	}
	progBefore := sys.Flash.Stats().BytesProgrammed
	smBefore := sys.Storage.Stats().HostBytesWritten
	flushedBefore := sys.Storage.Stats().FlushedBytes
	scratch := make([]byte, 4096)
	base := sys.Clock().Now()
	for _, op := range day.Ops {
		if at := base.Add(sim.Duration(op.Time)); at > sys.Clock().Now() {
			sys.Clock().AdvanceTo(at)
		}
		if err := sys.Tick(); err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("/pda/db/r%d", op.File)
		switch op.Kind {
		case trace.Create:
			must(sys.FS.MkdirAll("/pda/db"))
			must(sys.FS.Create(name))
		case trace.Write:
			if _, err := sys.FS.WriteAt(name, op.Offset, scratch[:op.Size]); err != nil {
				log.Fatal(err)
			}
		case trace.Read:
			if _, err := sys.FS.ReadAt(name, op.Offset, scratch[:op.Size]); err != nil {
				log.Fatal(err)
			}
		}
	}
	ss := sys.Storage.Stats()
	hostKB := (ss.HostBytesWritten - smBefore) >> 10
	flushedKB := (ss.FlushedBytes - flushedBefore) >> 10
	physKB := (sys.Flash.Stats().BytesProgrammed - progBefore) >> 10
	absorbed := 0.0
	if hostKB > 0 {
		absorbed = 100 * (1 - float64(flushedKB)/float64(hostKB))
	}
	fmt.Printf("\na day of datebook use: %d ops, %dKB of record updates,\n", len(day.Ops), hostKB)
	fmt.Printf("  %dKB migrated to flash (%.0f%% absorbed by overwrites in battery-backed DRAM);\n",
		flushedKB, absorbed)
	fmt.Printf("  physical flash programs %dKB — tiny records pay page-granularity\n", physKB)
	fmt.Printf("  amplification, which the DRAM buffer keeps off the foreground path\n")

	// --- Battery outlook while idle in a briefcase.
	idle := sys.DRAM.IdleMilliwatts() + 0.05*8 // DRAM self-refresh + flash standby
	pack := dram.NewPack(2, 0.1)               // 2Wh AA pair + 0.1Wh coin cell
	fmt.Printf("\nidle draw %.2f mW: a 2Wh pack preserves memory for %.0f days\n",
		idle, pack.RetentionAt(idle).Seconds()/86400)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
