package server

// Test hooks for the external test package.

// Draining reports whether Shutdown has begun the drain.
func (t *TCP) Draining() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.draining
}
