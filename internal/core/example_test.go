package core_test

import (
	"fmt"
	"log"

	"ssmobile/internal/core"
)

// Example shows the minimal life of the solid-state organisation: write a
// file into battery-backed DRAM, sync it to flash, and read it back in
// place.
func Example() {
	sys, err := core.NewSolidState(core.SolidStateConfig{
		DRAMBytes:  8 << 20,
		FlashBytes: 32 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Create("notes"); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.WriteAt("notes", 0, []byte("no disk required")); err != nil {
		log.Fatal(err)
	}
	if err := sys.Sync(); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := sys.ReadAt("notes", 0, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", buf)
	fmt.Printf("dirty blocks left in DRAM: %d\n", sys.Storage.Stats().DRAMPagesInUse)
	// Output:
	// no disk required
	// dirty blocks left in DRAM: 0
}

// Example_tempFiles shows the write buffer absorbing short-lived files:
// a file written and removed before the write-back delay passes never
// reaches flash.
func Example_tempFiles() {
	sys, err := core.NewSolidState(core.SolidStateConfig{
		DRAMBytes:  8 << 20,
		FlashBytes: 32 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := sys.FS.WriteFile("/tmp", make([]byte, 8192)); err != nil {
			log.Fatal(err)
		}
		if err := sys.FS.Remove("/tmp"); err != nil {
			log.Fatal(err)
		}
	}
	ss := sys.Storage.Stats()
	fmt.Printf("host wrote %d KB, %d KB reached flash (%.0f%% absorbed in DRAM)\n",
		ss.HostBytesWritten>>10, ss.FlushedBytes>>10, ss.Reduction()*100)
	fmt.Printf("absorbed by deletes: %d KB\n", ss.DeleteAbsorbedBytes>>10)
	// Output:
	// host wrote 800 KB, 0 KB reached flash (100% absorbed in DRAM)
	// absorbed by deletes: 800 KB
}

// ExampleSolidStateSystem_RemountAfterPowerFailure shows the honest
// power-failure path: nothing survives in memory, and the system comes
// back from the flash device alone.
func ExampleSolidStateSystem_RemountAfterPowerFailure() {
	sys, err := core.NewSolidState(core.SolidStateConfig{
		DRAMBytes: 8 << 20, FlashBytes: 32 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.FS.WriteFile("/saved", []byte("checkpointed")); err != nil {
		log.Fatal(err)
	}
	if err := sys.Sync(); err != nil {
		log.Fatal(err)
	}
	if err := sys.FS.WriteFile("/unsaved", []byte("still in DRAM")); err != nil {
		log.Fatal(err)
	}

	sys.DRAM.PowerFail()
	recovered, err := sys.RemountAfterPowerFailure()
	if err != nil {
		log.Fatal(err)
	}
	data, _ := recovered.FS.ReadFile("/saved")
	fmt.Printf("saved: %s\n", data)
	fmt.Printf("unsaved exists: %v\n", recovered.FS.Exists("/unsaved"))
	// Output:
	// saved: checkpointed
	// unsaved exists: false
}
