package crashtest

// DefaultScript is the reference workload for crash-point enumeration
// (experiment E11 and the CI crash suite). It mixes every operation the
// storage manager offers — writes, in-place overwrites, copy-on-write
// overwrites of flash-resident blocks, truncations (both of dirty and of
// flushed blocks), single-block deletes, whole-object deletes, explicit
// syncs and daemon ticks — and repeats enough churn that the translation
// layer's cleaner runs, so the enumeration space includes cleaning
// relocations and block erases, not just host-driven flushes.
//
// Scripts must keep object 999 free (the usability pass writes there)
// and must not hold more dirty blocks at once than dramPages.
func DefaultScript() Script {
	return Script{
		// Populate two objects and make them durable.
		W(1, 0, 700, 0x11),
		W(1, 1, 1024, 0x22),
		W(1, 2, 300, 0x33),
		W(2, 0, 512, 0x44),
		S(),
		// Copy-on-write overwrites, a fresh block, and a truncation of a
		// flush-resident block (non-durable on its own).
		W(1, 0, 200, 0x55),
		W(2, 1, 900, 0x66),
		T(1, 1, 400),
		S(),
		// Delete a flushed block, recreate it, and let the daemon flush.
		D(1, 2),
		W(1, 2, 1000, 0x77),
		W(2, 2, 640, 0x88),
		Tk(),
		// Overwrite churn.
		W(1, 0, 1024, 0x99),
		W(1, 1, 800, 0xAB),
		W(2, 0, 450, 0xCD),
		S(),
		// Drop a whole object, reuse its space, truncate a dirty block.
		DObj(2),
		W(2, 0, 333, 0xEF),
		W(1, 3, 1024, 0x21),
		T(1, 3, 256),
		S(),
		// More churn to push the device into cleaning.
		W(1, 0, 600, 0x43),
		W(1, 1, 512, 0x65),
		S(),
		W(1, 0, 777, 0x87),
		W(1, 2, 888, 0xA9),
		S(),
		W(1, 1, 999, 0xCB),
		W(1, 3, 444, 0xED),
		Tk(),
	}
}
