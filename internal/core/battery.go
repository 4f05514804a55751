package core

import (
	"ssmobile/internal/dram"
	"ssmobile/internal/sim"
)

// BatteryMonitor ties a battery pack to a solid-state system: every Tick
// it drains the pack by the energy the system consumed since the last
// Tick, and when the primary batteries run out — the gradual, predictable
// discharge the paper describes — it triggers one emergency Sync while
// the lithium backup still holds the machine up, so a subsequent complete
// power loss costs nothing.
type BatteryMonitor struct {
	sys  *SolidStateSystem
	pack *dram.Pack

	lastDrained    sim.Energy
	emergencyDone  bool
	emergencyAt    sim.Time
	emergencyError error
}

// AttachBattery wires a pack to the system and returns the monitor. The
// system's Tick path does not know about the monitor; callers invoke
// monitor.Tick alongside (or instead of) the system's.
func AttachBattery(sys *SolidStateSystem, pack *dram.Pack) *BatteryMonitor {
	return &BatteryMonitor{sys: sys, pack: pack, lastDrained: sys.Meter().Total()}
}

// Tick settles idle power, drains the pack by the consumption since the
// last call, and performs the emergency flush when the primary empties.
// It returns dram.ErrBatteryDead once both batteries are exhausted (the
// caller decides whether to model the resulting power failure), or any
// error from the emergency Sync.
func (m *BatteryMonitor) Tick() error {
	m.sys.SettleIdle()
	if err := m.sys.Tick(); err != nil {
		return err
	}
	total := m.sys.Meter().Total()
	delta := total - m.lastDrained
	m.lastDrained = total
	drainErr := m.pack.Drain(delta)

	if m.pack.Primary.Empty() && !m.emergencyDone {
		m.emergencyDone = true
		m.emergencyAt = m.sys.Clock().Now()
		if err := m.sys.Sync(); err != nil {
			m.emergencyError = err
			return err
		}
		// The flush itself consumed energy; charge it to the backup so
		// the books stay balanced.
		total = m.sys.Meter().Total()
		if err := m.pack.Drain(total - m.lastDrained); err != nil {
			m.lastDrained = total
			return err
		}
		m.lastDrained = total
	}
	return drainErr
}
