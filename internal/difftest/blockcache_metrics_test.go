package difftest

import (
	"fmt"
	"strings"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/kernel"
	"ticktock/internal/metrics"
	"ticktock/internal/monolithic"
)

// TestBlockcacheCountersThreeWayAccounting closes the PR-9 fast-core
// metrics blind spot: for a fast-core run, the machine's own
// blockcache.Stats, the registry's blockcache_*_total series, and the
// Prometheus text exposition (parsed back) must all describe the same
// cache behaviour.
func TestBlockcacheCountersThreeWayAccounting(t *testing.T) {
	// temperature loops enough to exercise both the hit and miss paths.
	var tc apps.TestCase
	for _, c := range apps.All() {
		if c.Name == "temperature" {
			tc = c
		}
	}
	if tc.Name == "" {
		t.Fatal("temperature case missing from the suite")
	}
	for _, fl := range []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock} {
		reg := metrics.NewRegistry()
		k, _, _, err := runOn(tc, fl, monolithic.BugSet{}, nil, reg, nil, false)
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.Name, fl, err)
		}
		st := k.Board.Machine.FastStats()
		if st == nil {
			t.Fatalf("%s on %s: fast core not enabled", tc.Name, fl)
		}
		if st.Hits == 0 {
			t.Fatalf("%s on %s: vacuous run, no cache hits", tc.Name, fl)
		}

		flavour := metrics.L("flavour", fl.String())
		want := map[string]uint64{
			"blockcache_hits_total":             st.Hits,
			"blockcache_misses_total":           st.Misses,
			"blockcache_invalidations_total":    st.Flushes + st.CoverRechecks,
			"blockcache_oracle_fallbacks_total": st.SlowSteps,
			"blockcache_cold_steps_total":       st.ColdSteps,
			"blockcache_hint_hits_total":        st.HintHits,
			"blockcache_hint_misses_total":      st.HintMisses,
		}

		// Registry view.
		for name, v := range want {
			if got := reg.Counter(name, flavour).Value(); got != v {
				t.Errorf("%s on %s: registry %s = %d, want %d", tc.Name, fl, name, got, v)
			}
		}

		// Scraper view: through the exposition text and back.
		var b strings.Builder
		if err := reg.ExportPrometheus(&b); err != nil {
			t.Fatal(err)
		}
		parsed, err := metrics.ParsePrometheus(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("%s on %s: export does not re-parse: %v", tc.Name, fl, err)
		}
		for name, v := range want {
			id := fmt.Sprintf(`%s{flavour=%q}`, name, fl.String())
			if got := parsed[id]; got != float64(v) {
				t.Errorf("%s on %s: prometheus %s = %v, want %d", tc.Name, fl, id, got, v)
			}
		}
	}
}

// blockcacheLookups sums every blockcache_hits_total and
// blockcache_misses_total series in reg (all labels): the block-table
// lookups a run published. Zero for a nil registry.
func blockcacheLookups(reg *metrics.Registry) uint64 {
	if reg == nil {
		return 0
	}
	var n uint64
	for _, cp := range reg.Snapshot().Counters {
		if cp.Name == "blockcache_hits_total" || cp.Name == "blockcache_misses_total" {
			n += cp.Value
		}
	}
	return n
}

// A default difftest run is a fast-core run: with metrics on, both
// flavours publish blockcache series showing the table was used.
func TestBlockcacheCountersPresentByDefault(t *testing.T) {
	row := RunCaseConfig(apps.All()[0], Config{Metrics: true, NoTraceDump: true})
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	for fl, reg := range map[string]*metrics.Registry{"ticktock": row.TickTockMetrics, "tock": row.TockMetrics} {
		if blockcacheLookups(reg) == 0 {
			t.Errorf("%s: default run published no blockcache lookups: the fast core is not the default", fl)
		}
	}
}

// Without the fast core, no blockcache series may appear — the blind
// spot fix must not invent series for runs that never used the cache.
func TestBlockcacheCountersAbsentWithoutFastCore(t *testing.T) {
	reg := metrics.NewRegistry()
	if _, _, _, err := runOn(apps.All()[0], kernel.FlavourTickTock, monolithic.BugSet{}, nil, reg, nil, true); err != nil {
		t.Fatal(err)
	}
	for _, cp := range reg.Snapshot().Counters {
		if strings.HasPrefix(cp.Name, "blockcache_") {
			t.Fatalf("unexpected %s in oracle-core run", cp.ID)
		}
	}
}
