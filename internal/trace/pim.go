package trace

import (
	"fmt"

	"ssmobile/internal/sim"
)

// PIMConfig parameterises a personal-information-manager workload — the
// Sharp Wizard / Casio Boss / Apple Newton class of machine the paper
// names as the first all-solid-state computers. The access pattern is
// very different from the office workload:
//
//   - a modest, slowly growing set of small record files (appointments,
//     addresses, notes), almost never deleted;
//   - bursts of activity (the user opens the datebook, edits a handful of
//     records) separated by long idle gaps — the duty cycle that makes
//     power management matter;
//   - updates are tiny in-place record rewrites, the worst case for flash
//     without a write buffer and the best case with one.
type PIMConfig struct {
	// Duration is the span to generate.
	Duration sim.Duration
	// Seed makes the trace reproducible.
	Seed int64
}

// The PIM workload's calibration.
const (
	// pimSessionsPerHour is the mean rate of usage bursts.
	pimSessionsPerHour = 6
	// pimSessionOps is the mean number of operations per burst.
	pimSessionOps = 30
	// pimRecordBytes is the typical record size.
	pimRecordBytes = 256
	// pimInitialRecords seeds the database before the trace starts.
	pimInitialRecords = 200
	// pimNewRecordFrac is the fraction of session ops that create a
	// record (the rest split between reads and updates).
	pimNewRecordFrac = 0.1
	// pimReadFrac is the fraction of non-create ops that read.
	pimReadFrac = 0.7
)

// DefaultPIM returns the PIM configuration covering the given span.
func DefaultPIM(d sim.Duration, seed int64) PIMConfig {
	return PIMConfig{Duration: d, Seed: seed}
}

// Validate checks the configuration.
func (c PIMConfig) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("trace: non-positive PIM duration")
	}
	return nil
}

// GeneratePIM synthesises a PIM trace. Records are FileIDs starting at 1;
// the initial database is created in a setup burst at time zero.
func GeneratePIM(cfg PIMConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := sim.NewRNG(cfg.Seed)
	var t Trace
	nextID := FileID(1)
	now := sim.Time(0)

	addRecord := func(at sim.Time) FileID {
		id := nextID
		nextID++
		size := pimRecordBytes/2 + g.Intn(pimRecordBytes)
		t.Ops = append(t.Ops,
			Op{Time: at, Kind: Create, File: id, Size: size},
			Op{Time: at, Kind: Write, File: id, Offset: 0, Size: size})
		return id
	}

	// Initial database load (synced to the device at the factory or
	// during first setup; time zero).
	for i := 0; i < pimInitialRecords; i++ {
		addRecord(0)
	}

	end := sim.Time(cfg.Duration)
	meanGap := sim.Duration(float64(sim.Hour) / pimSessionsPerHour)
	for {
		now = now.Add(sim.Duration(g.Exp(float64(meanGap))))
		if now > end {
			break
		}
		// One usage burst: ops a few hundred milliseconds apart. The user
		// is editing a handful of specific records (today's appointments),
		// so writes concentrate on a small session working set — which is
		// exactly what the battery-backed write buffer absorbs.
		ops := 1 + g.Intn(2*pimSessionOps)
		focus := make([]FileID, 1+g.Intn(4))
		for i := range focus {
			focus[i] = FileID(1 + g.Intn(int(nextID)-1))
		}
		at := now
		for i := 0; i < ops && at <= end; i++ {
			at = at.Add(sim.Duration(g.Exp(float64(300 * sim.Millisecond))))
			switch {
			case g.Bool(pimNewRecordFrac):
				focus = append(focus, addRecord(at))
			case g.Bool(pimReadFrac):
				// Browsing reads range over the whole database.
				id := FileID(1 + g.Intn(int(nextID)-1))
				t.Ops = append(t.Ops, Op{Time: at, Kind: Read, File: id, Offset: 0, Size: pimRecordBytes / 2})
			default:
				// Edits hit the session's working set.
				id := focus[g.Intn(len(focus))]
				t.Ops = append(t.Ops, Op{Time: at, Kind: Write, File: id, Offset: 0, Size: pimRecordBytes / 2})
			}
		}
		now = at
	}
	return &t, nil
}
