package sim

import "fmt"

// Energy is an amount of energy in picojoules. Picojoule resolution makes
// nanosecond × milliwatt products exact (1 mW for 1 ns is exactly 1 pJ)
// while leaving headroom for multi-day simulations of watt-class loads:
// the int64 range covers about 9.2 MJ, three orders of magnitude above a
// typical notebook battery.
type Energy int64 // picojoules

// Energy units.
const (
	Picojoule  Energy = 1
	Nanojoule         = 1000 * Picojoule
	Microjoule        = 1000 * Nanojoule
	Millijoule        = 1000 * Microjoule
	Joule             = 1000 * Millijoule
)

// Joules reports the energy as floating-point joules.
func (e Energy) Joules() float64 { return float64(e) / float64(Joule) }

// String formats the energy with an adaptive unit.
func (e Energy) String() string {
	j := e.Joules()
	switch {
	case j >= 1:
		return fmt.Sprintf("%.3f J", j)
	case j >= 1e-3:
		return fmt.Sprintf("%.3f mJ", j*1e3)
	case j >= 1e-6:
		return fmt.Sprintf("%.3f uJ", j*1e6)
	default:
		return fmt.Sprintf("%.3f nJ", j*1e9)
	}
}

// EnergyFor computes the energy drawn by a load of p milliwatts held for d.
// 1 mW × 1 ns = 1 pJ, so the product is exact in picojoules.
func EnergyFor(pMilliwatts float64, d Duration) Energy {
	return Energy(pMilliwatts * float64(d))
}

// EnergyMeter accumulates per-component energy draw. Device models charge
// it for every operation and for idle power over elapsed time; experiment
// drivers read it to report battery impact. A device resolves its
// categories to accounts once (Account) and charges through them, so an
// operation's charge is two adds, not a map lookup.
type EnergyMeter struct {
	total           Energy
	accounts        map[string]*EnergyAccount
	droppedNegative int64
}

// EnergyAccount is one category of a meter, resolved once by
// EnergyMeter.Account. Charging through it is Charge with that category.
type EnergyAccount struct {
	m *EnergyMeter
	e Energy
}

// NewEnergyMeter returns an empty meter.
func NewEnergyMeter() *EnergyMeter {
	return &EnergyMeter{accounts: make(map[string]*EnergyAccount)}
}

// Account returns the category's account, creating it on first use. It
// stays valid for the meter's lifetime. A nil meter has no
// accounts and returns nil.
func (m *EnergyMeter) Account(category string) *EnergyAccount {
	if m == nil {
		return nil
	}
	a := m.accounts[category]
	if a == nil {
		a = &EnergyAccount{m: m}
		m.accounts[category] = a
	}
	return a
}

// Charge records e of consumption against the account's category. A
// negative charge is a modelling bug, not physics: it is clamped to zero
// (the meter stays monotone) and counted, so telemetry can surface it as
// a dropped_negative_charges metric instead of silently corrupting the
// energy story.
func (a *EnergyAccount) Charge(e Energy) {
	m := a.m
	if e < 0 {
		m.droppedNegative++
		return
	}
	m.total += e
	a.e += e
}

// Charge records e of consumption attributed to category; see
// EnergyAccount.Charge.
func (m *EnergyMeter) Charge(category string, e Energy) { m.Account(category).Charge(e) }

// DroppedNegativeCharges reports how many negative charges were clamped.
func (m *EnergyMeter) DroppedNegativeCharges() int64 { return m.droppedNegative }

// Total reports the accumulated energy across all categories.
func (m *EnergyMeter) Total() Energy { return m.total }

// Category reports the accumulated energy for one category.
func (m *EnergyMeter) Category(c string) Energy {
	if a := m.accounts[c]; a != nil {
		return a.e
	}
	return 0
}
