// Placement: a consistent-hash ring with a directory of per-key
// overrides layered on top.
//
// The ring answers "where does a key live by default": each node
// projects virtualPoints points onto a 64-bit circle, and a key's
// primary is the first point clockwise of its hash, with replicas on
// the next distinct nodes. Virtual points keep the load split even when
// node counts are small, and adding a node moves only the keys whose
// arc it captures — the property that makes scale-out cheap.
//
// The directory overrides the ring for keys that have been written (so
// a later rebalance can move them without rehashing the world) and for
// keys migrated off an aging node. Ring placement is the default;
// directory entries pin the truth.
package cluster

import (
	"fmt"
	"sort"
)

// fnv64a hashes bytes with FNV-1a; placement must be a pure function of
// (tenant, key, node names), never of map order or pointer values.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// avalanche is the 64-bit mix finalizer (splitmix64's): FNV-1a over the
// short, low-entropy inputs placement hashes (small integer keys, "c7")
// barely diffuses into the high bits, and the ring successor search is
// decided almost entirely by high bits — without this, sequential keys
// land in periodic arcs and some nodes get no primaries at all.
func avalanche(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return avalanche(h)
}

func hashKey(tenant string, key uint64) uint64 {
	h := hashString(tenant)
	h ^= '#'
	h *= fnvPrime
	for i := 0; i < 8; i++ {
		h ^= (key >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return avalanche(h)
}

// ringPoint is one virtual point on the hash circle.
type ringPoint struct {
	hash uint64
	node int
}

// buildRing projects every node onto the circle. Points are sorted by
// hash with node index breaking ties, so the ring is a pure function of
// the node names.
func buildRing(names []string, virtualPoints int) []ringPoint {
	ring := make([]ringPoint, 0, len(names)*virtualPoints)
	for i, name := range names {
		for v := 0; v < virtualPoints; v++ {
			ring = append(ring, ringPoint{hash: hashString(fmt.Sprintf("%s|%d", name, v)), node: i})
		}
	}
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].hash != ring[b].hash {
			return ring[a].hash < ring[b].hash
		}
		return ring[a].node < ring[b].node
	})
	return ring
}

// walkRing visits distinct nodes clockwise from the key's hash point,
// calling visit for each until it returns false or every node has been
// seen once.
func (c *Cluster) walkRing(tenant string, key uint64, visit func(node int) bool) {
	if len(c.ring) == 0 {
		return
	}
	h := hashKey(tenant, key)
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	seen := make([]bool, len(c.nodes))
	distinct := 0
	for i := 0; i < len(c.ring) && distinct < len(c.nodes); i++ {
		p := c.ring[(start+i)%len(c.ring)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		distinct++
		if !visit(p.node) {
			return
		}
	}
}

// ringPlace computes the default holder set for a key: primary plus
// cfg.Replicas distinct replicas, preferring nodes that are neither
// down nor cordoned. If the healthy pool is too small the walk relaxes
// to cordoned (then down) nodes rather than returning nothing — a
// degraded placement beats an unplaceable key.
func (c *Cluster) ringPlace(tenant string, key uint64) []int {
	want := c.cfg.Replicas + 1
	holders := make([]int, 0, want)
	taken := make([]bool, len(c.nodes))
	pass := func(ok func(node int) bool) {
		c.walkRing(tenant, key, func(n int) bool {
			if len(holders) >= want {
				return false
			}
			if !taken[n] && ok(n) {
				taken[n] = true
				holders = append(holders, n)
			}
			return true
		})
	}
	pass(func(n int) bool { return !c.down[n] && !c.cordoned[n] })
	if len(holders) < want {
		pass(func(n int) bool { return !c.down[n] })
	}
	if len(holders) < want {
		pass(func(n int) bool { return true })
	}
	return holders
}

// ringReplacement picks the first node clockwise of the key that is
// healthy and not already a holder, or -1 when no such node exists.
func (c *Cluster) ringReplacement(tenant string, key uint64, holders []int) int {
	repl := -1
	c.walkRing(tenant, key, func(n int) bool {
		if c.down[n] || c.cordoned[n] {
			return true
		}
		for _, h := range holders {
			if h == n {
				return true
			}
		}
		repl = n
		return false
	})
	return repl
}
