package trace

import (
	"fmt"

	"ssmobile/internal/sim"
)

// BlockConfig parameterises a raw block-level workload for the flash
// translation layer and banking experiments: a stream of reads and writes
// over a fixed logical block range, with controllable skew. Skewed write
// streams are what make wear leveling matter — without leveling, the hot
// blocks' erase blocks wear out while cold ones stay fresh.
type BlockConfig struct {
	// Ops is the number of operations to generate.
	Ops int
	// Blocks is the logical block range [0, Blocks) of blockSize-byte
	// blocks: an op's Offset is block × blockSize, its Size blockSize.
	Blocks int
	// ReadFrac is the fraction of operations that are reads.
	ReadFrac float64
	// Skew selects the address distribution: 0 means uniform; above 1 it
	// is the Zipf exponent (block 0 hottest).
	Skew float64
	// Seed makes the stream reproducible.
	Seed int64
}

const (
	// blockSize is a block workload's block.
	blockSize = 4096
	// blockMeanGap is the mean of the exponential gap between a block
	// workload's operations.
	blockMeanGap = sim.Microsecond
)

// Validate checks the configuration.
func (c BlockConfig) Validate() error {
	if c.Ops <= 0 || c.Blocks <= 0 {
		return fmt.Errorf("trace: non-positive block workload dimensions")
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 {
		return fmt.Errorf("trace: ReadFrac out of [0,1]")
	}
	return nil
}

// GenerateBlocks synthesises a block-level trace. All operations address
// FileID 0; Offset carries the byte address of the block.
func GenerateBlocks(cfg BlockConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := sim.NewRNG(cfg.Seed)
	var z *sim.Zipf
	if cfg.Skew > 0 {
		z = g.Zipf(cfg.Skew, uint64(cfg.Blocks))
	}
	t := &Trace{Ops: make([]Op, 0, cfg.Ops)}
	now := sim.Time(0)
	for i := 0; i < cfg.Ops; i++ {
		now = now.Add(sim.Duration(g.Exp(float64(blockMeanGap))))
		var block int64
		if z != nil {
			block = int64(z.Next())
		} else {
			block = g.Int63n(int64(cfg.Blocks))
		}
		kind := Write
		if g.Bool(cfg.ReadFrac) {
			kind = Read
		}
		t.Ops = append(t.Ops, Op{
			Time:   now,
			Kind:   kind,
			Offset: block * blockSize,
			Size:   blockSize,
		})
	}
	return t, nil
}
