package difftest

import (
	"strings"
	"testing"

	"ticktock/internal/campaign"
	"ticktock/internal/kernel"
)

// TestFastCoreOracleParity is the tentpole acceptance check: the
// block-cache fast core must reproduce the byte-scan oracle core's
// console output and final process states byte for byte on every
// release-test case and both kernel flavours — zero divergences.
func TestFastCoreOracleParity(t *testing.T) {
	rows := RunCoreOracle(0)
	if len(rows) != 42 { // 21 cases × 2 flavours
		t.Fatalf("core-oracle campaign ran %d comparisons, want 42", len(rows))
	}
	bad := 0
	for _, r := range rows {
		if !r.OK() {
			bad++
			if r.Err != nil {
				t.Errorf("%s/%s: %v", r.Name, r.Flavour, r.Err)
			} else {
				t.Errorf("%s/%s: cores diverged\n-- oracle --\n%s\n-- fast --\n%s",
					r.Name, r.Flavour, r.Oracle, r.Fast)
			}
		}
	}
	if bad != 0 {
		t.Fatalf("%d/%d core comparisons diverged; the fast core broke observational equality", bad, len(rows))
	}
}

// TestFastCoreCampaignMatchesOracleCampaign re-runs the §6.1
// cross-flavour campaign entirely on the oracle core: the campaign
// verdicts (which cases match, which differ) must be identical to the
// default fast-core campaign's. Metrics prove which core each arm ran:
// only a fast-core run publishes blockcache_* series.
func TestFastCoreCampaignMatchesOracleCampaign(t *testing.T) {
	slow := mustRunAll(t, Config{NoTraceDump: true, Metrics: true, oracle: true}, campaign.Config{})
	fast := mustRunAll(t, Config{NoTraceDump: true, Metrics: true}, campaign.Config{})
	if len(slow) != len(fast) {
		t.Fatalf("row counts differ: %d vs %d", len(slow), len(fast))
	}
	for i := range slow {
		s, f := slow[i], fast[i]
		if s.Err != nil || f.Err != nil {
			t.Errorf("%s: errors oracle=%v fast=%v", s.Name, s.Err, f.Err)
			continue
		}
		if n := blockcacheLookups(s.TickTockMetrics) + blockcacheLookups(s.TockMetrics); n != 0 {
			t.Errorf("%s: oracle arm published %d blockcache lookups: it ran the fast core", s.Name, n)
		}
		if blockcacheLookups(f.TickTockMetrics) == 0 || blockcacheLookups(f.TockMetrics) == 0 {
			t.Errorf("%s: fast arm published no blockcache lookups: it ran the oracle core", s.Name)
		}
		if s.Equal != f.Equal || s.TickTock != f.TickTock || s.Tock != f.Tock ||
			s.TickTockStates != f.TickTockStates || s.TockStates != f.TockStates {
			t.Errorf("%s: campaign row diverges between cores", s.Name)
		}
	}
}

// TestCoreOracleTableRendering smoke-tests the text rendering.
func TestCoreOracleTableRendering(t *testing.T) {
	rows := []CoreRow{
		{Name: "a", Flavour: kernel.FlavourTickTock, Equal: true},
		{Name: "b", Flavour: kernel.FlavourTock, Equal: false},
	}
	out := CoreOracleTable(rows)
	if !strings.Contains(out, "DIVERGED") || !strings.Contains(out, "1 divergent") {
		t.Fatalf("table rendering broken:\n%s", out)
	}
}
