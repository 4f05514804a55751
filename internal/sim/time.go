// Package sim provides the deterministic discrete-event simulation kernel
// shared by every device model and operating-system layer in this
// repository: a virtual clock, an event queue, seeded random-number
// streams, statistics collectors, and an energy meter.
//
// All simulated components are passive: an operation on a device model
// computes a latency and an energy cost, charges them to the meters, and
// advances the shared clock. Components that need background activity
// (write-back daemons, cleaners) register timers on the event queue, which
// the driving layer pumps before each foreground operation.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Virtual time is completely decoupled from wall-clock time.
type Time int64

// Forever is the end of virtual time: the horizon a caller states when
// nobody is waiting for background work to finish.
const Forever Time = math.MaxInt64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration so the usual constants (time.Millisecond, ...) convert
// directly.
type Duration int64

// Common durations, re-exported for convenience so callers of this package
// do not need to import time for simple literals.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// D converts a time.Duration into a sim.Duration.
func D(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Std converts a sim.Duration back into a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration using the time package's humane notation.
func (d Duration) String() string { return time.Duration(d).String() }

// Add offsets a point in time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration elapsed between u and t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time as a floating-point number of seconds since the
// start of the simulation.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as an offset from the simulation epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Clock is the shared virtual clock. The zero value is a clock at the
// simulation epoch, ready to use.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at the simulation epoch.
func NewClock() *Clock { return &Clock{} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative durations are a
// programming error and panic: virtual time never runs backwards.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %v", d))
	}
	c.now += Time(d)
}

// AdvanceTo moves the clock forward to t. Moving backwards panics.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moved backwards from %v to %v", c.now, t))
	}
	c.now = t
}
