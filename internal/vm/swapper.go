package vm

import (
	"errors"
	"fmt"

	"ssmobile/internal/sim"
)

// ErrSwapFull reports swap-space exhaustion.
var ErrSwapFull = errors.New("vm: swap space full")

// BlockDevice is the device interface the swapper pages against. Both
// disk.Device and dram.Device satisfy it, so the same VM can model a
// conventional disk-paging machine or a memory-to-memory migration.
type BlockDevice interface {
	Read(addr int64, buf []byte) (sim.Duration, error)
	Write(addr int64, p []byte) (sim.Duration, error)
}

// DeviceSwapper implements Swapper over a contiguous region of a block
// device, with slot-granularity allocation.
type DeviceSwapper struct {
	dev       BlockDevice
	base      int64
	slotBytes int
	freeSlots []int64
	inUse     map[int64]bool
}

// NewDeviceSwapper builds a swapper over [base, base+size) of dev, divided
// into slots of slotBytes.
func NewDeviceSwapper(dev BlockDevice, base, size int64, slotBytes int) (*DeviceSwapper, error) {
	if slotBytes <= 0 || size < int64(slotBytes) {
		return nil, fmt.Errorf("vm: swap region of %d too small for %d-byte slots", size, slotBytes)
	}
	s := &DeviceSwapper{dev: dev, base: base, slotBytes: slotBytes, inUse: make(map[int64]bool)}
	for slot := size/int64(slotBytes) - 1; slot >= 0; slot-- {
		s.freeSlots = append(s.freeSlots, slot)
	}
	return s, nil
}

// PageOut stores data into a fresh slot.
func (s *DeviceSwapper) PageOut(data []byte) (int64, error) {
	if len(data) > s.slotBytes {
		return 0, fmt.Errorf("vm: page of %d exceeds slot size %d", len(data), s.slotBytes)
	}
	n := len(s.freeSlots)
	if n == 0 {
		return 0, ErrSwapFull
	}
	slot := s.freeSlots[n-1]
	s.freeSlots = s.freeSlots[:n-1]
	s.inUse[slot] = true
	if _, err := s.dev.Write(s.base+slot*int64(s.slotBytes), data); err != nil {
		return 0, err
	}
	return slot, nil
}

// PageIn retrieves a slot and releases it.
func (s *DeviceSwapper) PageIn(slot int64, buf []byte) error {
	if !s.inUse[slot] {
		return fmt.Errorf("vm: page-in of unallocated slot %d", slot)
	}
	if _, err := s.dev.Read(s.base+slot*int64(s.slotBytes), buf); err != nil {
		return err
	}
	delete(s.inUse, slot)
	s.freeSlots = append(s.freeSlots, slot)
	return nil
}
