// Package blockcache implements the shared machinery behind the fast
// emulator cores: a translation cache of predecoded basic blocks and a
// last-hit interval hint cache for load/store protection checks.
//
// The cache itself is deliberately dumb — it never decides whether an
// access is allowed. Permission decisions come from the port's accessmap
// (itself differentially verified against the hardware Check oracle), and
// every cached decision is guarded by a configuration stamp: when the
// underlying MPU/PMP registers change (WriteRegion/ClearRegion/SetEntry/
// FlipBits/Restore all bump the PR-4 generation counter folded into the
// stamp), stale blocks fail their stamp comparison on next entry and
// recompute their cover, and load/store hints drop wholesale. A stale
// entry can therefore never authorize an access the current registers
// would deny; see docs/SPEED.md for the full soundness argument.
//
// Blocks are generic over the port's decoded instruction type so armv7m
// and rv32 share one table implementation without interface-call overhead
// in the dispatch loop.
package blockcache

import (
	"ticktock/internal/accessmap"
	"ticktock/internal/mpu"
)

// Stats counts fast-core cache behaviour for tests, specs and the
// ablation tooling. Single-threaded like the machines themselves.
//
// Hits counts block entries served from the table: a Lookup that found
// the block, plus one per extra pass a self-loop chain ran back to back
// (each pass re-enters the block at Base, so a chained pass is the same
// entry an unchained core would have looked up). The other counters
// keep their per-lookup or per-instruction meaning.
type Stats struct {
	Hits          uint64 // block entries served from the table
	Misses        uint64 // block not cached (built, cold- or slow-stepped)
	Builds        uint64 // blocks decoded and inserted
	Flushes       uint64 // whole-table invalidations (program load)
	CoverRechecks uint64 // block cover recomputed after a stamp change
	SlowSteps     uint64 // oracle Step fallbacks: execute denial or no program at pc
	ColdSteps     uint64 // oracle Steps at a pc not yet warm enough to build
	HintHits      uint64 // load/store checks answered by the interval hint
	HintMisses    uint64 // load/store checks that fell back to the full map
}

// Block is one predecoded basic block: the quickened instruction
// sequence starting at Base, plus the cached execute-permission cover
// for the configuration stamp it was last checked under.
type Block[I any] struct {
	Base   uint32
	Instrs []I
	// Prefix[i] is the summed Cost of the first i instructions
	// (len(Prefix) == len(Instrs)+1), so a batch of n instructions
	// charges Prefix[n] to the meter and timer in one call, and a trap
	// at index i charges exactly Prefix[i+1] — byte-identical with the
	// oracle's per-instruction accounting.
	Prefix []uint64
	// Stamp and Priv key the cached Cover: it is valid only while the
	// port's configuration stamp and the executing privilege both match.
	Stamp uint64
	Priv  bool
	// Cover is the number of leading instructions whose first byte is
	// execute-allowed under (Stamp, Priv), mirroring the oracle fetch
	// which checks only the first byte of each instruction. -1 means
	// not yet computed.
	Cover int
	// Pure is a bitmask (bit i ⇒ Instrs[i]) of instructions the port has
	// classified as pure: Exec always returns nil, never reads or writes
	// the PC, and touches no memory or trap state. The dispatch loop may
	// skip the per-instruction PC store and the error/PC-written breaks
	// for them — with a stale PC unobservable during a pure run, the
	// shortcut is invisible. Ports must classify conservatively: an unset
	// bit is always safe. Bits past index 63 are never set (fastBlockMax
	// in both ports is ≤ 64).
	Pure uint64
	// Loop, when non-zero, marks a self-loop of Loop instructions:
	// Instrs[:Loop-1] are pure and Instrs[Loop-1] is a direct branch
	// whose target is Base. The fast core may run whole passes of it
	// back to back, each costing Prefix[Loop], without re-entering the
	// table (see SelfLoop). Zero is always safe.
	Loop int
}

// SelfLoop returns the Loop length of b: the index+1 of the first
// instruction backEdge reports as a direct branch to b.Base, provided
// every instruction before it is pure, or 0. Call it once Pure is set;
// a loop can only be as long as the Pure mask is wide.
func SelfLoop[I any](b *Block[I], backEdge func(in I) bool) int {
	for k, in := range b.Instrs {
		if backEdge(in) {
			return k + 1
		}
		if b.Pure&(1<<uint(k)) == 0 {
			return 0
		}
	}
	return 0
}

// Table is a direct-mapped block cache with a map backing store: the
// slot array makes the hit path a single masked index plus one compare,
// while the map keeps conflicting blocks alive so rebuilding is never
// needed for a clean-slot miss.
type Table[I any] struct {
	slots   []*Block[I]
	mask    uint32
	backing map[uint32]*Block[I]
	// heat counts the cold misses per slot, up to buildAfter-1: the
	// next miss in the slot builds. Slots are shared, so a collision
	// can only warm a block sooner.
	heat  []uint8
	Stats Stats
}

// buildAfter is the miss count at which a block is predecoded. Code that
// runs once — most of a short fault-campaign board — costs less to
// interpret through the oracle Step than to decode, so the first
// buildAfter-1 misses at a slot step instead of building.
const buildAfter = 2

// NewTable returns a table with 1<<slotBits direct-mapped slots.
func NewTable[I any](slotBits uint) *Table[I] {
	n := uint32(1) << slotBits
	return &Table[I]{
		slots:   make([]*Block[I], n),
		mask:    n - 1,
		backing: make(map[uint32]*Block[I]),
		heat:    make([]uint8, n),
	}
}

// Lookup returns the cached block starting exactly at pc, or nil.
func (t *Table[I]) Lookup(pc uint32) *Block[I] {
	s := (pc >> 2) & t.mask
	if b := t.slots[s]; b != nil && b.Base == pc {
		t.Stats.Hits++
		return b
	}
	if b, ok := t.backing[pc]; ok {
		t.slots[s] = b
		t.Stats.Hits++
		return b
	}
	t.Stats.Misses++
	return nil
}

// Cold records a miss at pc and reports whether the block there is still
// cold, in which case the caller interprets the instruction at pc rather
// than building (counted in ColdSteps). Call it only after Lookup missed.
func (t *Table[I]) Cold(pc uint32) bool {
	s := (pc >> 2) & t.mask
	if t.heat[s]+1 < buildAfter {
		t.heat[s]++
		t.Stats.ColdSteps++
		return true
	}
	return false
}

// Insert adds a freshly built block to the table.
func (t *Table[I]) Insert(b *Block[I]) {
	t.slots[(b.Base>>2)&t.mask] = b
	t.backing[b.Base] = b
	t.Stats.Builds++
}

// Flush drops every cached block. Ports call it when the set of loaded
// programs changes; register mutations do not need it (the stamp guard
// on Cover handles those).
func (t *Table[I]) Flush() {
	clear(t.slots)
	clear(t.backing)
	clear(t.heat)
	t.Stats.Flushes++
}

// CoverFromInterval returns how many of a block's n fixed-width
// instructions, starting at base, have their first byte inside the
// execute-allow interval iv. The first-byte rule mirrors the oracle
// fetch exactly: an instruction whose first byte is allowed executes
// even if the interval ends mid-instruction. Returns 0 when base itself
// is outside iv. Exhausting the cover is not a fault — the next
// instruction's first byte may land in a later allow interval, so the
// fast core simply re-enters block lookup at the new PC.
func CoverFromInterval(base uint32, n int, width uint32, iv accessmap.Interval) int {
	a := uint64(base)
	if a < iv.Start || a >= iv.End {
		return 0
	}
	c := (iv.End - a + uint64(width) - 1) / uint64(width)
	if c > uint64(n) {
		return n
	}
	return int(c)
}

// BatchLimit returns the largest n ≤ max with Prefix[n] ≤ budget: the
// number of instructions that can retire before cumulative cost crosses
// budget. The result can be 0 — callers clamp to ≥1 so a tick due
// mid-instruction still lets the current instruction finish, exactly as
// the oracle's post-Exec Advance does.
func BatchLimit(prefix []uint64, max int, budget uint64) int {
	n := max
	for n > 0 && prefix[n] > budget {
		n--
	}
	return n
}

// numSlots covers (read, write, execute) × (user, privileged).
const numSlots = 6

func slotOf(kind mpu.AccessKind, privileged bool) int {
	s := int(kind) * 2
	if privileged {
		s++
	}
	return s
}

// Hints caches the last-hit accessmap allow interval per (kind,
// privilege) slot, stamped with the configuration stamp it was read
// under. A hint can only ever short-circuit the *success* case of a
// protection check — any miss falls through to the full check, so fault
// values and denial behaviour stay byte-identical with the oracle.
type Hints struct {
	iv    [numSlots]accessmap.Interval
	valid [numSlots]bool
	stamp uint64
}

// Allows reports whether a size-byte access at addr is proven allowed by
// the cached interval for (kind, privileged) under the given stamp.
func (h *Hints) Allows(addr, size uint32, kind mpu.AccessKind, privileged bool, stamp uint64) bool {
	if stamp != h.stamp {
		return false
	}
	s := slotOf(kind, privileged)
	if !h.valid[s] {
		return false
	}
	a := uint64(addr)
	return h.iv[s].Start <= a && a+uint64(size) <= h.iv[s].End
}

// Update refreshes the hint slot from the map after a miss and reports
// whether the access is allowed. A stamp change drops every slot first,
// so intervals read under an old configuration never survive.
func (h *Hints) Update(addr, size uint32, kind mpu.AccessKind, privileged bool, stamp uint64, m *accessmap.Map) bool {
	if stamp != h.stamp {
		*h = Hints{stamp: stamp}
	}
	iv, ok := m.Lookup(addr, kind, privileged)
	if !ok {
		return false
	}
	s := slotOf(kind, privileged)
	h.iv[s], h.valid[s] = iv, true
	a := uint64(addr)
	return a+uint64(size) <= iv.End
}

// Invalidate drops every cached interval unconditionally.
func (h *Hints) Invalidate() { *h = Hints{} }
