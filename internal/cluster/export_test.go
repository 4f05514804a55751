package cluster

import (
	"fmt"
	"sort"
	"strings"

	"ssmobile/internal/sim"
)

// Test hooks for the external test package (which exists because real
// node stacks are assembled through core, and core imports cluster).

// SweepHealth runs one health sweep, exactly as Session.Do does every
// RebalanceCheckEvery requests.
func (c *Cluster) SweepHealth(arrival sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checkHealth(arrival)
}

// DumpDirectory renders the key directory in sorted (tenant, key) order,
// one entry per line, so two clusters' placements can be compared.
func (c *Cluster) DumpDirectory() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lines []string
	for tn, m := range c.dir {
		for k, e := range m {
			lines = append(lines, fmt.Sprintf("%s/%020d holders=%v size=%d deleted=%v stale=%v",
				tn, k, e.holders, e.size, e.deleted, e.stale))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
