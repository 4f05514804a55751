package ftl

// This file holds the incremental indexes that replace the translation
// layer's per-allocation linear scans:
//
//   - victimIndex: lazily-invalidated min-heaps per flash bank (one a
//     bank for FIFO and greedy, one per bank and valid-count for
//     cost-benefit), so pickVictim compares a handful of roots instead of
//     every block;
//   - the wear index (wearHeap + a maintained maximum erase count), so
//     static wear leveling stops rescanning every block on every write;
//   - bankPool: the free-block pool, still the exact swap-remove list the
//     scan-based code used (tie-breaks depend on its internal order) but
//     indexed by two position-aware heaps so wear-aware allocation is
//     O(log n) instead of a scan of the free list.
//
// Every index reproduces the linear scans' choices exactly — including
// tie-breaking — which the policy-equivalence tests assert against the
// retained scan implementations (pickVictimScan, wearScan).

import "ssmobile/internal/engine/blocks"

// lazyEntry is one heap element: a block snapshotted with the two sort
// keys it had when pushed. Entries are never updated in place; a block
// whose keys change is re-pushed, and entries whose snapshot no longer
// matches the block's live state are discarded when they surface.
type lazyEntry struct {
	k1, k2 int64
	block  int
}

// lazyHeap is a binary min-heap over (k1, k2, block) with lazy deletion.
type lazyHeap struct {
	es []lazyEntry
}

func (h *lazyHeap) len() int { return len(h.es) }

func entryLess(a, b lazyEntry) bool {
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	return a.block < b.block
}

func (h *lazyHeap) push(e lazyEntry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(h.es[i], h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *lazyHeap) popTop() {
	n := len(h.es) - 1
	h.es[0] = h.es[n]
	h.es = h.es[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && entryLess(h.es[l], h.es[m]) {
			m = l
		}
		if r < n && entryLess(h.es[r], h.es[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.es[i], h.es[m] = h.es[m], h.es[i]
		i = m
	}
}

// peekValid discards stale tops until the minimum live entry surfaces and
// returns it without removing it (the entry stays until the block's state
// changes and invalidates it). valid reports whether an entry still
// matches the block's live state.
func (h *lazyHeap) peekValid(valid func(lazyEntry) bool) (lazyEntry, bool) {
	for len(h.es) > 0 {
		if valid(h.es[0]) {
			return h.es[0], true
		}
		h.popTop()
	}
	return lazyEntry{}, false
}

// compact drops every stale entry in one pass, bounding heap growth on
// long runs (each overwrite pushes an entry; without compaction the heap
// would grow with total writes, not with live blocks).
func (h *lazyHeap) compact(valid func(lazyEntry) bool) {
	kept := h.es[:0]
	for _, e := range h.es {
		if valid(e) {
			kept = append(kept, e)
		}
	}
	h.es = kept
	// Re-establish the heap property bottom-up.
	n := len(h.es)
	for i := n/2 - 1; i >= 0; i-- {
		j := i
		for {
			l, r := 2*j+1, 2*j+2
			m := j
			if l < n && entryLess(h.es[l], h.es[m]) {
				m = l
			}
			if r < n && entryLess(h.es[r], h.es[m]) {
				m = r
			}
			if m == j {
				break
			}
			h.es[j], h.es[m] = h.es[m], h.es[j]
			j = m
		}
	}
}

// victimIndex tracks cleaning-eligible blocks (closed, not retired, at
// least one dead page) so pickVictim needs no device-wide scan. Where a
// victim is outranks what it holds (blocks.Victim), and which banks are
// good places to erase changes from one pick to the next, so the index
// is kept per bank: each bank offers its own best candidates and the pick
// ranks those by the bank's class of the moment.
type victimIndex struct {
	policy Policy
	// heaps[bank] orders the bank's candidates so that the policy's best
	// is at a root. FIFO and greedy keep one heap per bank, of
	// (allocSeq, block) and (-dead, block) entries — both "min wins"
	// orders that reproduce the scan's strict-improvement tie-breaking.
	// Cost-benefit keeps one heap per valid-page count, of
	// (lastWrite, valid, block) entries: within one valid count the score
	// age×(1−u)/(1+u) is strictly monotone in age, so a heap's root is
	// that count's best and a pick compares banks × pagesPerBlock roots,
	// independent of device size.
	heaps  [][]lazyHeap
	pushes int
}

// newVictimIndex sizes every heap for an equal share of the entries the
// index holds between two compactions (see noteEligible), so the heaps of
// a card in steady state were allocated here and a push costs no growth.
func newVictimIndex(policy Policy, banks, pagesPerBlock, numBlocks int) *victimIndex {
	v := &victimIndex{policy: policy, heaps: make([][]lazyHeap, banks)}
	perBank := 1
	if policy == PolicyCostBenefit {
		perBank = pagesPerBlock
	}
	share := compactAfter(numBlocks)/(banks*perBank) + 1
	for bank := range v.heaps {
		v.heaps[bank] = make([]lazyHeap, perBank)
		for i := range v.heaps[bank] {
			v.heaps[bank][i].es = make([]lazyEntry, 0, share)
		}
	}
	return v
}

// compactAfter is how many pushes the index takes before it drops its
// stale entries in one pass: enough that compaction is rare, few enough
// that the heaps stay proportional to the card and not to its history.
func compactAfter(numBlocks int) int { return 4*numBlocks + 64 }

// eligible reports whether the block can be cleaned right now.
func (f *FTL) victimEligible(b int) bool {
	info := &f.blocks[b]
	return !info.isActive && info.dead > 0 && f.pool.InUse(b)
}

// victimEntry snapshots the block's current sort keys and names the heap
// of its bank they belong in.
func (f *FTL) victimEntry(b int) (e lazyEntry, heap int) {
	info := &f.blocks[b]
	switch f.victims.policy {
	case PolicyFIFO:
		return lazyEntry{k1: info.allocSeq, block: b}, 0
	case PolicyCostBenefit:
		return lazyEntry{k1: int64(info.lastWrite), k2: int64(info.valid), block: b}, info.valid
	default: // greedy, and the greedy fallback for unknown policies
		return lazyEntry{k1: -int64(info.dead), block: b}, 0
	}
}

// victimLive reports whether a heap entry still describes its block: the
// block is eligible and has the keys it was pushed with.
func (f *FTL) victimLive(e lazyEntry) bool {
	if !f.victimEligible(e.block) {
		return false
	}
	cur, _ := f.victimEntry(e.block)
	return cur == e
}

// noteEligible records the block's current keys; callers invoke it
// whenever a block enters the eligible set or an eligible block's keys
// change (a page dies). Stale snapshots are discarded lazily. FIFO's key
// is frozen while the block is closed, so one push per closure is enough
// and only the 0→1 dead transition (or closing with dead pages) lands
// here — the caller filters.
func (f *FTL) noteEligible(b int) {
	v := f.victims
	if v == nil || !f.victimEligible(b) {
		return
	}
	e, heap := f.victimEntry(b)
	v.heaps[f.dev.BankOf(b)][heap].push(e)
	v.pushes++
	if v.pushes > compactAfter(f.numBlocks) {
		v.pushes = 0
		for _, bank := range v.heaps {
			for i := range bank {
				bank[i].compact(f.victimLive)
			}
		}
	}
}

// pickVictimIndexed returns the same block pickVictimScan would, without
// scanning: -1 if nothing is eligible. Every root is scored with the
// scan's own expression, so scores are bit-identical.
func (f *FTL) pickVictimIndexed() int {
	classes := f.pool.VictimClasses()
	pick := blocks.NoVictim()
	now := f.clock.Now()
	for bank, heaps := range f.victims.heaps {
		for i := range heaps {
			if e, ok := heaps[i].peekValid(f.victimLive); ok {
				pick.Offer(e.block, classes[bank], f.victimScore(e.block, now))
			}
		}
	}
	return pick.Block
}

// onBlockClosed indexes a block the moment it stops being a log head: it
// joins the wear index unconditionally and the victim index if any of its
// pages already died while it was active.
func (f *FTL) onBlockClosed(b int) {
	if f.wear != nil {
		f.wear.push(lazyEntry{k1: f.dev.EraseCount(b), block: b})
	}
	f.noteEligible(b)
}

// onPageDied updates the indexes after markDead on a closed block: greedy
// re-keys on the new dead count, cost-benefit moves buckets, FIFO becomes
// eligible on the first death only.
func (f *FTL) onPageDied(b int) {
	if f.victims == nil {
		return
	}
	info := &f.blocks[b]
	if info.isActive || !f.pool.InUse(b) {
		return // an active head's deaths are indexed when it closes
	}
	if f.victims.policy == PolicyFIFO && info.dead != 1 {
		return // already present with the same frozen key
	}
	f.noteEligible(b)
}

// wearColdest returns the least-erased closed block — the static
// wear-leveling candidate — or -1 when no block is closed. Ties break to
// the lowest block id, exactly as wearScan's strict < does.
func (f *FTL) wearColdest() (int, int64) {
	if f.wear == nil {
		return -1, 0
	}
	e, ok := f.wear.peekValid(func(e lazyEntry) bool {
		return !f.blocks[e.block].isActive && f.pool.InUse(e.block) && f.dev.EraseCount(e.block) == e.k1
	})
	if !ok {
		return -1, 0
	}
	return e.block, e.k1
}

// noteErase keeps the maintained maximum erase count current; erase
// counts only grow, so the running maximum equals the scan's device-wide
// maximum at every point.
func (f *FTL) noteErase(b int) {
	if c := f.dev.EraseCount(b); c > f.maxErase {
		f.maxErase = c
	}
}

// bankPool is one bank's free-block pool. The list field preserves the
// legacy swap-remove list byte for byte — wear-aware allocation broke
// ties by position in that list, and the experiments' outputs depend on
// those choices — while two heaps order the same blocks by
// (eraseCount, position) and (-eraseCount, position) so takeFreeBlock
// peeks a root instead of scanning. Positions change only on the single
// swap-remove a take performs, costing one heap Fix each.
type bankPool struct {
	list []int
	pos  map[int]int
	min  poolHeap
	max  poolHeap
}

// newBankPool sizes the list, position map and both heaps for n blocks
// up front (the bank's block count is known at construction), so filling
// the pool performs no growth reallocations.
func newBankPool(n int) *bankPool {
	p := &bankPool{
		list: make([]int, 0, n),
		pos:  make(map[int]int, n),
	}
	p.min.p, p.max.p = p, p
	p.min.blocks = make([]int, 0, n)
	p.max.blocks = make([]int, 0, n)
	p.max.desc = true
	return p
}

// poolHeap orders a bank's free blocks by erase count (ascending, or
// descending when desc) then by list position. The sift routines mirror
// container/heap exactly, but the interface-free entry points avoid
// boxing every block id into an `any` on each push — that boxing showed
// up as a steady hot-path allocation. idx tracks each block's heap slot
// so position changes can fix in O(log n).
type poolHeap struct {
	p      *bankPool
	blocks []int
	idx    map[int]int
	desc   bool
	count  func(int) int64
}

func (h *poolHeap) less(i, j int) bool {
	bi, bj := h.blocks[i], h.blocks[j]
	ci, cj := h.count(bi), h.count(bj)
	if ci != cj {
		if h.desc {
			return ci > cj
		}
		return ci < cj
	}
	return h.p.pos[bi] < h.p.pos[bj]
}

func (h *poolHeap) swap(i, j int) {
	h.blocks[i], h.blocks[j] = h.blocks[j], h.blocks[i]
	h.idx[h.blocks[i]] = i
	h.idx[h.blocks[j]] = j
}

func (h *poolHeap) push(b int) {
	h.idx[b] = len(h.blocks)
	h.blocks = append(h.blocks, b)
	h.up(len(h.blocks) - 1)
}

// removeAt deletes the element in slot i, exactly as heap.Remove does.
func (h *poolHeap) removeAt(i int) {
	n := len(h.blocks) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	b := h.blocks[n]
	h.blocks = h.blocks[:n]
	delete(h.idx, b)
}

// fix re-establishes the ordering after the element in slot i changed
// its key, exactly as heap.Fix does.
func (h *poolHeap) fix(i int) {
	if !h.down(i, len(h.blocks)) {
		h.up(i)
	}
}

func (h *poolHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *poolHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (p *bankPool) init(count func(int) int64) {
	p.min.count, p.max.count = count, count
	p.min.idx = make(map[int]int, cap(p.min.blocks))
	p.max.idx = make(map[int]int, cap(p.max.blocks))
}

func (p *bankPool) len() int { return len(p.list) }

// add appends the block, exactly where the legacy list put it.
func (p *bankPool) add(b int) {
	p.pos[b] = len(p.list)
	p.list = append(p.list, b)
	p.min.push(b)
	p.max.push(b)
}

// best returns the block the legacy wear-aware scan would pick: the
// first-positioned block with the extreme erase count.
func (p *bankPool) best(preferWorn bool) int {
	if preferWorn {
		return p.max.blocks[0]
	}
	return p.min.blocks[0]
}

// first returns the block at list head — the non-wear-aware choice.
func (p *bankPool) first() int { return p.list[0] }

// remove deletes block b with the legacy swap-remove, then repairs both
// heaps: the removed block leaves, and the block that slid into its list
// position re-sorts under its new position key.
func (p *bankPool) remove(b int) {
	i := p.pos[b]
	last := len(p.list) - 1
	moved := p.list[last]
	p.list[i] = moved
	p.list = p.list[:last]
	delete(p.pos, b)
	p.min.removeAt(p.min.idx[b])
	p.max.removeAt(p.max.idx[b])
	if moved != b {
		p.pos[moved] = i
		p.min.fix(p.min.idx[moved])
		p.max.fix(p.max.idx[moved])
	}
}

// contains reports whether the block is in this pool.
func (p *bankPool) contains(b int) bool {
	_, ok := p.pos[b]
	return ok
}
