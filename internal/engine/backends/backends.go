// Package backends is the one place a storage engine is named,
// configured and built. Every served stack — the solid-state system core
// assembles, the crash-point enumerator's — opens its engine here, so
// adding an engine is adding a name and a case.
//
// It is a package of its own because internal/engine cannot hold it:
// both engines import the contract they implement.
package backends

import (
	"fmt"
	"strings"

	"ssmobile/internal/engine"
	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

// Config holds what callers choose per stack. Everything else a served
// stack runs with is written once, in Open: for ftl, cost-benefit
// cleaning with hot/cold separation and a persisted mapping. The
// cleaning reserve (blocks.Reserve) and background erases are the same
// on every engine.
type Config struct {
	// PageBytes is the engine's page, the storage manager's block.
	PageBytes int
	// IdleCleanThreshold lets the engine clean in idle time until this
	// many blocks are free; zero keeps idle cleaning off.
	IdleCleanThreshold int
	// Obs receives the engine's metrics and op spans.
	Obs *obs.Observer
}

// Names lists every engine Open builds; Names[0] is the default.
var Names = []string{"ftl", "pdl"}

// Open builds the named engine on dev: fresh, or with mount set from
// what dev already holds (the power-failure recovery path). An empty
// name opens Names[0].
func Open(name string, mount bool, dev *flash.Device, clock *sim.Clock, cfg Config) (engine.Engine, error) {
	if name == "" {
		name = Names[0]
	}
	switch name {
	case "ftl":
		c := ftl.Config{
			PageBytes: cfg.PageBytes, IdleCleanThreshold: cfg.IdleCleanThreshold,
			Policy: ftl.PolicyCostBenefit, HotCold: true, PersistMapping: true,
			Obs: cfg.Obs,
		}
		if mount {
			return opened(ftl.Mount(dev, clock, c))
		}
		return opened(ftl.New(dev, clock, c))
	case "pdl":
		c := pdl.Config{
			PageBytes: cfg.PageBytes, IdleCleanThreshold: cfg.IdleCleanThreshold,
			Obs: cfg.Obs,
		}
		if mount {
			return opened(pdl.Mount(dev, clock, c))
		}
		return opened(pdl.New(dev, clock, c))
	}
	return nil, fmt.Errorf("backends: unknown storage engine %q (want %s)", name, strings.Join(Names, " or "))
}

// opened hands a built engine back as an engine.Engine, and a failed
// build as a nil one rather than a typed nil pointer.
func opened[E engine.Engine](e E, err error) (engine.Engine, error) {
	if err != nil {
		return nil, err
	}
	return e, nil
}
