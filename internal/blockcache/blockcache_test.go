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

// TestSelfLoopShape: a loop is a run of pure instructions closed by the
// first back edge; an impure instruction before it, or no back edge at
// all, is no loop. Instructions are ints here: negative means a back
// edge, and Pure marks the rest as the test says.
func TestSelfLoopShape(t *testing.T) {
	backEdge := func(in int) bool { return in < 0 }
	for _, tc := range []struct {
		name   string
		instrs []int
		pure   uint64
		want   int
	}{
		{"branch to self", []int{-1, 7}, 0, 1},
		{"pure body", []int{1, 2, -1, 3}, 0b011, 3},
		{"impure body", []int{1, 2, -1}, 0b001, 0},
		{"no back edge", []int{1, 2, 3}, 0b111, 0},
	} {
		b := &Block[int]{Instrs: tc.instrs, Pure: tc.pure}
		if got := SelfLoop(b, backEdge); got != tc.want {
			t.Errorf("%s: SelfLoop = %d, want %d", tc.name, got, tc.want)
		}
	}
}
