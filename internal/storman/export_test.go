package storman

// DRAMPagesFree reports the free DRAM buffer pages.
func (m *Manager) DRAMPagesFree() int { return len(m.freeDRAM) }

// InDRAM reports whether the block currently lives in DRAM.
func (m *Manager) InDRAM(key Key) bool {
	_, _, loc := m.find(key)
	return loc != nil && loc.inDRAM()
}
