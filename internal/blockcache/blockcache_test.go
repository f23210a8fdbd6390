package blockcache

import "testing"

// TestColdBlocksBuildOnLaterMiss pins the cold-block rule: a pc is
// interpreted on its first buildAfter-1 misses and built on the next,
// the interpreted misses are ColdSteps (never SlowSteps), and Flush
// cools every slot again.
func TestColdBlocksBuildOnLaterMiss(t *testing.T) {
	tb := NewTable[int](4)
	const pc = 0x100
	for i := 1; i < buildAfter; i++ {
		if tb.Lookup(pc) != nil || !tb.Cold(pc) {
			t.Fatalf("miss %d at a fresh pc was not cold", i)
		}
	}
	if tb.Lookup(pc) != nil || tb.Cold(pc) {
		t.Fatalf("miss %d still cold, want a build", buildAfter)
	}
	tb.Insert(&Block[int]{Base: pc})
	if tb.Lookup(pc) == nil {
		t.Fatal("built block not found")
	}
	if tb.Stats.ColdSteps != buildAfter-1 || tb.Stats.SlowSteps != 0 {
		t.Fatalf("ColdSteps=%d SlowSteps=%d, want %d and 0", tb.Stats.ColdSteps, tb.Stats.SlowSteps, buildAfter-1)
	}

	tb.Flush()
	if tb.Lookup(pc) != nil {
		t.Fatal("block survived Flush")
	}
	if buildAfter > 1 && !tb.Cold(pc) {
		t.Fatal("Flush left the slot warm")
	}
}

// TestColdSlotsAreShared: pcs that collide in one slot share its heat,
// so a collision can only make a block warm sooner.
func TestColdSlotsAreShared(t *testing.T) {
	tb := NewTable[int](4) // 16 slots: pcs 0x0 and 0x40 collide
	for i := 1; i < buildAfter; i++ {
		if !tb.Cold(0x0) {
			t.Fatalf("miss %d in the slot was not cold", i)
		}
	}
	if tb.Cold(0x40) {
		t.Fatal("colliding pc stayed cold after its slot warmed")
	}
}
