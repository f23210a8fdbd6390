package faultinject

import (
	"sync/atomic"
	"testing"
)

// TestFaultCampaignCoreParity runs the fault-injection campaign under
// the byte-scan oracle core and demands the rendered report be
// byte-identical to the default fast core's. The campaign is the harshest
// invalidation stressor in the repo — FlipBits corruption lands at
// quantum boundaries, exactly where cached blocks and load/store hints
// would go stale — so identical classifications on ≥500 scenarios is
// the acceptance proof that invalidation is sound, not merely that the
// happy path agrees.
func TestFaultCampaignCoreParity(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 60
	}
	// Count the runs on each core per arm: a parity check whose oracle
	// arm ran the fast core compares the fast core with itself.
	var slowOnFast, slowRuns, fastOnFast, fastRuns atomic.Int64
	slow := Run(Config{Seed: 1009, N: n, oracle: true, onCore: func(fast bool) {
		slowRuns.Add(1)
		if fast {
			slowOnFast.Add(1)
		}
	}})
	fast := Run(Config{Seed: 1009, N: n, onCore: func(fast bool) {
		fastRuns.Add(1)
		if fast {
			fastOnFast.Add(1)
		}
	}})
	if slowRuns.Load() == 0 || slowOnFast.Load() != 0 {
		t.Fatalf("oracle arm: %d of %d kernel runs on the fast core, want 0 of >0", slowOnFast.Load(), slowRuns.Load())
	}
	if fastRuns.Load() == 0 || fastOnFast.Load() != fastRuns.Load() {
		t.Fatalf("fast arm: %d of %d kernel runs on the fast core, want all", fastOnFast.Load(), fastRuns.Load())
	}
	if got, want := fast.Text(), slow.Text(); got != want {
		t.Fatalf("fast-core campaign report diverges from oracle over %d scenarios:\n-- oracle --\n%s\n-- fast --\n%s",
			n, want, got)
	}
}
