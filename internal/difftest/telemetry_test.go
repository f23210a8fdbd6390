package difftest

import (
	"reflect"
	"strings"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/campaign"
	"ticktock/internal/telemetry"
	"ticktock/internal/trace"
)

// TestRunCaseTracedMatchesUntraced pins the zero-steering contract for
// the difftest path (runCase, the unit RunAll hands the supervisor):
// attaching a kernel tracer changes nothing about the Row, and the
// tracer actually saw kernel events.
func TestRunCaseTracedMatchesUntraced(t *testing.T) {
	tc := apps.All()[0]
	plain := RunCaseConfig(tc, Config{})
	tr := trace.New(4096)
	traced := runCase(tc, Config{}, tr)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("traced row differs from untraced:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
	if len(tr.Events()) == 0 {
		t.Fatal("tracer attached but saw no kernel events")
	}
}

// TestSupervisedTelemetryLiveEqualsMergedRows pins the streaming
// aggregation for the difftest campaign: at any worker count, the
// plane's live registry ends the run byte-identical (as Prometheus
// text) to MergeMetrics over the finished rows.
func TestSupervisedTelemetryLiveEqualsMergedRows(t *testing.T) {
	cfg := Config{Metrics: true}
	var first string
	for _, workers := range []int{1, 2, 4} {
		plane := telemetry.New()
		rows, _, err := RunAll(cfg, campaign.Config{Workers: workers}, plane)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var live, merged strings.Builder
		if err := plane.Live().ExportPrometheus(&live); err != nil {
			t.Fatal(err)
		}
		if err := MergeMetrics(rows).ExportPrometheus(&merged); err != nil {
			t.Fatal(err)
		}
		if live.String() == "" || !strings.Contains(live.String(), "syscalls_total") {
			t.Fatalf("workers=%d: vacuous live aggregate:\n%s", workers, live.String())
		}
		if live.String() != merged.String() {
			t.Errorf("workers=%d: live aggregate != merged rows\nlive:\n%s\nmerged:\n%s",
				workers, live.String(), merged.String())
		}
		if first == "" {
			first = live.String()
		} else if live.String() != first {
			t.Errorf("workers=%d: aggregate depends on worker count", workers)
		}
	}
}
