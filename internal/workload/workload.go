// Package workload generates the seeded, deterministic multi-client
// request streams that drive the object-storage service (internal/server)
// and the E12 saturation study.
//
// The paper's write-buffering and cleaning story (§3.3) holds only while
// the cleaner keeps up with the offered write load; to find the point
// where it stops keeping up, we need a load model, not a trace: a
// population of clients, each issuing an independent stream of reads,
// writes, truncates, deletes and syncs against its own objects, with a
// skewed key popularity (hot objects absorb overwrites in DRAM, cold
// objects force flash traffic) and open-loop arrivals (a fixed arrival
// rate, the queueing-theory stressor).
//
// Determinism is the package's contract: a client's stream is a pure
// function of (Config.Seed, client id). Each random component — op kind,
// key popularity, offsets and sizes, arrival spacing — draws from its own
// forked stream, so streams never perturb one another, and generating
// clients concurrently (or in any order) yields exactly the sequences a
// serial generation would.
package workload

import (
	"fmt"

	"ssmobile/internal/sim"
)

// Kind is the type of one generated request.
type Kind uint8

// Request kinds.
const (
	Read Kind = iota
	Write
	Truncate
	Delete
	Sync
)

var kindNames = [...]string{"read", "write", "truncate", "delete", "sync"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Mix gives the probability of each request kind. The fractions are
// normalised by their sum, so {Read: 3, Write: 1} means 75% reads.
type Mix struct {
	Read, Write, Truncate, Delete, Sync float64
}

// weights returns the mix as a slice indexed by Kind.
func (m Mix) weights() [5]float64 {
	return [5]float64{m.Read, m.Write, m.Truncate, m.Delete, m.Sync}
}

// sum reports the total weight.
func (m Mix) sum() float64 {
	var s float64
	for _, w := range m.weights() {
		s += w
	}
	return s
}

// Popularity selects how keys are drawn from the key space.
type Popularity uint8

// Popularity models.
const (
	// Uniform draws every key with equal probability.
	Uniform Popularity = iota
	// Zipf draws key k with probability ∝ 1/(k+1)^s: key 0 is hottest.
	Zipf
)

// Arrival selects the client's issue discipline.
type Arrival uint8

// OpenLoop, the one arrival model, issues requests at exponentially
// spaced arrival times regardless of completions — offered load is
// fixed, and queueing delay appears as latency once the server falls
// behind.
const OpenLoop Arrival = 0

// Config parameterises the generated workload.
type Config struct {
	// Seed fixes every random stream; equal seeds give equal workloads.
	Seed int64
	// Clients is the number of independent client streams.
	Clients int
	// OpsPerClient bounds each stream's length.
	OpsPerClient int
	// Keys is the per-client object key space; requests address keys
	// [0, Keys).
	Keys int
	// ObjectBytes bounds each object's size: offsets are drawn in
	// [0, ObjectBytes) and truncate sizes in [0, ObjectBytes].
	ObjectBytes int64
	// MinWriteBytes and MaxWriteBytes bound write (and read) transfer
	// sizes; sizes are drawn uniformly in [min, max].
	MinWriteBytes, MaxWriteBytes int

	// Mix weights the request kinds (normalised by their sum).
	Mix Mix

	// Popularity selects the key distribution; ZipfSkew parameterises
	// Zipf (s > 1, more skewed as it grows).
	Popularity Popularity
	ZipfSkew   float64

	// Arrival selects the issue discipline. RatePerClient is the
	// open-loop arrival rate in requests per second.
	Arrival       Arrival
	RatePerClient float64
}

// withDefaults fills the zero fields with usable values.
func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.OpsPerClient <= 0 {
		c.OpsPerClient = 1000
	}
	if c.Keys <= 0 {
		c.Keys = 64
	}
	if c.ObjectBytes <= 0 {
		c.ObjectBytes = 32 << 10
	}
	if c.MaxWriteBytes <= 0 {
		c.MaxWriteBytes = 4096
	}
	if c.MinWriteBytes <= 0 {
		c.MinWriteBytes = c.MaxWriteBytes
	}
	if c.MinWriteBytes > c.MaxWriteBytes {
		c.MinWriteBytes = c.MaxWriteBytes
	}
	if c.Mix.sum() <= 0 {
		c.Mix = Mix{Read: 0.55, Write: 0.35, Truncate: 0.02, Delete: 0.03, Sync: 0.05}
	}
	if c.ZipfSkew <= 1 {
		c.ZipfSkew = 1.1
	}
	if c.RatePerClient <= 0 {
		c.RatePerClient = 10
	}
	return c
}

// Op is one generated request.
type Op struct {
	// Client and Seq identify the op within the workload: Seq is the
	// op's index in its client's stream.
	Client, Seq int
	// Kind is the request type.
	Kind Kind
	// Key is the target object within the client's namespace.
	Key uint64
	// Offset and Size address the transfer (reads and writes); Size is
	// the new length for truncates.
	Offset int64
	Size   int
	// Arrival is the op's issue time, relative to the workload's start.
	Arrival sim.Time
}

// Payload fills buf with the op's deterministic write body — a pure
// function of the op's identity, so reruns and remounts can validate
// content without storing it. buf's capacity is reused when it fits
// (drivers keep one buffer per client and amortise the allocation to
// the largest op in the stream); the filled prefix is returned.
func (op Op) Payload(buf []byte) []byte {
	if cap(buf) < op.Size {
		buf = make([]byte, op.Size)
	}
	buf = buf[:op.Size]
	Ramp(buf, byte(op.Key*131+uint64(op.Client)*31+uint64(op.Seq)))
	return buf
}

// Ramp fills buf with seed, seed+1, seed+2, … wrapping at 256: the
// deterministic payload every write body is, cheap to make and with mixed
// bits for flash programs to see. It writes one period byte by byte and
// then doubles the filled prefix with copy.
func Ramp(buf []byte, seed byte) {
	n := min(len(buf), 256)
	for i := range buf[:n] {
		buf[i] = seed + byte(i)
	}
	for n < len(buf) {
		n += copy(buf[n:], buf[:n])
	}
}

// Client generates one client's request stream. Not safe for concurrent
// use; distinct Clients are fully independent and may be driven from
// different goroutines.
type Client struct {
	cfg Config
	id  int
	seq int

	kindR, keyR, addrR, arrR *sim.RNG
	zipf                     *sim.Zipf
	cum                      [5]float64
	nextArrival              sim.Time
}

// clientSeed derives the per-client seed: a fixed odd-constant mix of the
// workload seed and the client id, so every (seed, id) pair lands on an
// unrelated stream without any cross-client draw ordering.
func clientSeed(seed int64, id int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// NewClient returns the generator for client id under cfg. The stream
// depends only on (cfg.Seed, id).
func NewClient(cfg Config, id int) *Client {
	cfg = cfg.withDefaults()
	root := sim.NewRNG(clientSeed(cfg.Seed, id))
	c := &Client{
		cfg:   cfg,
		id:    id,
		kindR: root.Fork(),
		keyR:  root.Fork(),
		addrR: root.Fork(),
		arrR:  root.Fork(),
	}
	if cfg.Popularity == Zipf {
		c.zipf = c.keyR.Zipf(cfg.ZipfSkew, uint64(cfg.Keys))
	}
	w := cfg.Mix.weights()
	total := cfg.Mix.sum()
	acc := 0.0
	for i, v := range w {
		acc += v / total
		c.cum[i] = acc
	}
	c.cum[len(c.cum)-1] = 1 // absorb rounding
	return c
}

// Config reports the (defaulted) configuration the client runs under.
func (c *Client) Config() Config { return c.cfg }

// key draws the next target key under the popularity model.
func (c *Client) key() uint64 {
	switch c.cfg.Popularity {
	case Zipf:
		return c.zipf.Next()
	default:
		return uint64(c.keyR.Intn(c.cfg.Keys))
	}
}

// Next returns the stream's next op, or ok=false once OpsPerClient ops
// have been produced.
func (c *Client) Next() (op Op, ok bool) {
	if c.seq >= c.cfg.OpsPerClient {
		return Op{}, false
	}
	op = Op{Client: c.id, Seq: c.seq, Key: c.key()}
	c.seq++

	u := c.kindR.Float64()
	for k, edge := range c.cum {
		if u < edge || k == len(c.cum)-1 {
			op.Kind = Kind(k)
			break
		}
	}

	// Address draws happen for every op, whatever its kind, so the kind
	// mix never perturbs the key/offset streams.
	span := c.cfg.MaxWriteBytes - c.cfg.MinWriteBytes
	size := c.cfg.MinWriteBytes
	if span > 0 {
		size += c.addrR.Intn(span + 1)
	}
	maxOff := c.cfg.ObjectBytes - int64(size)
	if maxOff < 0 {
		maxOff = 0
	}
	off := c.addrR.Int63n(maxOff + 1)
	switch op.Kind {
	case Read, Write:
		op.Offset, op.Size = off, size
	case Truncate:
		op.Size = int(c.addrR.Int63n(c.cfg.ObjectBytes + 1))
	}

	gap := sim.Duration(c.arrR.Exp(float64(sim.Second) / c.cfg.RatePerClient))
	c.nextArrival = c.nextArrival.Add(gap)
	op.Arrival = c.nextArrival
	return op, true
}
