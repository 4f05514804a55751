package dram

// Peek returns the byte at addr without charging latency.
func (d *Device) Peek(addr int64) byte { return d.data[addr] }
