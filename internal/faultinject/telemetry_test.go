package faultinject

import (
	"reflect"
	"strings"
	"testing"

	"ticktock/internal/campaign"
	"ticktock/internal/metrics"
	"ticktock/internal/telemetry"
	"ticktock/internal/trace"
)

// TestRunScenarioTracedMatchesUntraced pins the zero-steering contract:
// attaching a kernel tracer to the injected runs changes nothing about
// the Result — classification, signatures, violations and quarantine
// deltas are identical, and the tracer actually saw kernel events.
func TestRunScenarioTracedMatchesUntraced(t *testing.T) {
	cfg := Config{Seed: 42, N: 4}
	for _, sc := range GenScenarios(cfg) {
		plain := RunScenario(sc, cfg, nil)
		tr := trace.New(4096)
		traced := RunScenario(sc, cfg, tr)
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("%s: traced result differs from untraced:\nplain:  %+v\ntraced: %+v",
				sc.Label(), plain, traced)
		}
		if len(tr.Events()) == 0 {
			t.Fatalf("%s: tracer attached but saw no kernel events", sc.Label())
		}
	}
}

// nonzeroFaultSeries extracts the nonzero fault_* counter series from a
// registry as id -> value. The live streaming aggregate books only
// series that moved, while the post-hoc Report.Publish also creates the
// zero remainder of the (port, kind) matrix, so the comparable surface
// is the nonzero one.
func nonzeroFaultSeries(reg *metrics.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, cp := range reg.Snapshot().Counters {
		if strings.HasPrefix(cp.Name, "fault_") && cp.Value != 0 {
			out[cp.ID] = cp.Value
		}
	}
	return out
}

// TestLiveAggregateMatchesPostHocReport pins the streaming-aggregation
// invariant for real campaigns: at any worker count, the plane's live
// registry ends up carrying exactly the nonzero fault_* series the
// finished report publishes post-hoc.
func TestLiveAggregateMatchesPostHocReport(t *testing.T) {
	cfg := Config{Seed: 42, N: 10}
	var first map[string]uint64
	for _, workers := range []int{1, 2, 4} {
		plane := telemetry.New()
		rep, _, err := RunSupervised(cfg, campaign.Config{Workers: workers}, plane)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		posthoc := metrics.NewRegistry()
		rep.Publish(posthoc)
		want := nonzeroFaultSeries(posthoc)
		got := nonzeroFaultSeries(plane.Live())
		if len(want) == 0 {
			t.Fatalf("workers=%d: vacuous campaign, no nonzero fault_* series", workers)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: live aggregate != post-hoc publish\nlive:     %v\npost-hoc: %v",
				workers, got, want)
		}
		if first == nil {
			first = want
		} else if !reflect.DeepEqual(want, first) {
			t.Errorf("workers=%d: report depends on worker count", workers)
		}
	}
}

// TestLiveAggregateSkipsQuarantinedUnits pins the publish-on-terminal
// rule under chaos: a unit that ends quarantined never publishes into
// the live aggregate (mirroring tally's res.Sup skip), and retried
// units publish exactly once.
func TestLiveAggregateSkipsQuarantinedUnits(t *testing.T) {
	cfg := Config{Seed: 42, N: 6, Chaos: "panic:1,flaky:3"}
	plane := telemetry.New()
	sup := campaign.Config{Workers: 2, Retries: 1, Clock: &campaign.FakeClock{}}
	rep, run, err := RunSupervised(cfg, sup, plane)
	if err != nil {
		t.Fatal(err)
	}
	if run.Outcomes[1].Status != campaign.StatusQuarantined {
		t.Fatalf("chaos panic unit not quarantined: %v", run.Outcomes[1].Status)
	}
	if run.Outcomes[3].Status != campaign.StatusOK || len(run.Outcomes[3].Attempts) != 1 {
		t.Fatalf("chaos flaky unit not retried to success: %+v", run.Outcomes[3])
	}
	posthoc := metrics.NewRegistry()
	rep.Publish(posthoc)
	got, want := nonzeroFaultSeries(plane.Live()), nonzeroFaultSeries(posthoc)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("live aggregate != post-hoc publish under chaos\nlive:     %v\npost-hoc: %v", got, want)
	}
}
