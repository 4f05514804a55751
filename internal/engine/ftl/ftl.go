// Package engineftl adapts the flash translation layer (internal/ftl) to
// the storage-engine interface. The FTL is embedded, so every method the
// interface shares with *ftl.FTL devirtualizes to the original code with
// zero wrapping cost — the adapter only names the backend, picks the
// engine-shaped stats, and supplies the no-op Sync (the FTL programs
// synchronously).
package engineftl

import (
	"ssmobile/internal/engine"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/sim"
)

// Engine wraps one *ftl.FTL as a storage engine.
type Engine struct {
	*ftl.FTL
}

var _ engine.Engine = (*Engine)(nil)

// Wrap adapts an existing FTL (whatever policy it was built with).
func Wrap(f *ftl.FTL) *Engine { return &Engine{FTL: f} }

// New builds a fresh FTL over dev and wraps it.
func New(dev *flash.Device, clock *sim.Clock, cfg ftl.Config) (*Engine, error) {
	f, err := ftl.New(dev, clock, cfg)
	if err != nil {
		return nil, err
	}
	return Wrap(f), nil
}

// Mount rebuilds an FTL from a device that already holds data — the
// power-failure recovery path — and wraps it.
func Mount(dev *flash.Device, clock *sim.Clock, cfg ftl.Config) (*Engine, error) {
	f, err := ftl.Mount(dev, clock, cfg)
	if err != nil {
		return nil, err
	}
	return Wrap(f), nil
}

// Name identifies the backend.
func (e *Engine) Name() string { return "ftl" }

// Sync is a no-op: the FTL programs every page synchronously.
func (e *Engine) Sync() error { return nil }

// PersistsMapping reports whether OOB records make the mapping
// crash-recoverable.
func (e *Engine) PersistsMapping() bool { return e.FTL.Config().PersistMapping }

// Stats is the FTL's block-pool view of its counters and the device.
func (e *Engine) Stats() engine.Stats { return e.FTL.Stats().Stats }
