package faultinject

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ticktock/internal/campaign"
	"ticktock/internal/telemetry"
)

// TestSupervisedWorkerCountDeterminism pins the worker-count contract
// of the one campaign engine: one worker and eight workers with a retry
// budget and a telemetry plane render the same report byte for byte,
// and a campaign with nothing for the supervisor to do grows no
// supervision section — which is what keeps the committed regression
// runpacks verifiable.
func TestSupervisedWorkerCountDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, N: 12}
	seq, _, err := RunSupervised(cfg, campaign.Config{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, run, err := RunSupervised(cfg, campaign.Config{Workers: 8, Retries: 1}, telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sup != nil || seq.Sup != nil {
		t.Fatalf("clean supervised run grew a supervision section: %+v / %+v", rep.Sup, seq.Sup)
	}
	if got, want := rep.Text(), seq.Text(); got != want {
		t.Fatalf("8-worker report differs from 1-worker report:\n got:\n%s\nwant:\n%s", got, want)
	}
	if run.Stats.Completed != 12 || run.Stats.Quarantined != 0 {
		t.Fatalf("stats %+v", run.Stats)
	}
}

// TestSupervisedKillAndResumeDeterminism is the acceptance-criteria
// test at the report level: interrupt a journaled campaign at an
// arbitrary checkpoint, resume it with a different worker count, and
// the final report must be byte-identical to an uninterrupted run's.
func TestSupervisedKillAndResumeDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, N: 10}
	uninterrupted, _, err := RunSupervised(cfg, campaign.Config{Workers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := uninterrupted.Text()

	// StopAfter leaves the other worker's in-flight unit to finish, so
	// keep at least workers-1 units of headroom below N to guarantee
	// the run really is interrupted.
	for _, stopAfter := range []int{2, 5, 8} {
		journal := filepath.Join(t.TempDir(), "campaign.journal")
		first, run1, err := RunSupervised(cfg, campaign.Config{
			Workers: 2, Journal: journal, StopAfter: stopAfter, CheckpointEvery: 3,
		}, nil)
		if err != nil {
			t.Fatalf("stopAfter=%d: %v", stopAfter, err)
		}
		if !run1.Interrupted {
			t.Fatalf("stopAfter=%d: run not interrupted", stopAfter)
		}
		// The interrupted report marks unreached scenarios pending.
		if first.Sup == nil || first.Sup.Pending == 0 {
			t.Fatalf("stopAfter=%d: interrupted report has no pending marker: %+v", stopAfter, first.Sup)
		}
		if !strings.Contains(first.Text(), "pending=") {
			t.Fatalf("stopAfter=%d: interrupted text lacks supervision line", stopAfter)
		}

		resumed, run2, err := RunSupervised(cfg, campaign.Config{Workers: 5, Journal: journal}, nil)
		if err != nil {
			t.Fatalf("stopAfter=%d resume: %v", stopAfter, err)
		}
		if run2.Stats.Resumed != run1.Stats.Completed {
			t.Fatalf("stopAfter=%d: resumed %d, first completed %d",
				stopAfter, run2.Stats.Resumed, run1.Stats.Completed)
		}
		if got := resumed.Text(); got != want {
			t.Fatalf("stopAfter=%d: resumed report differs from uninterrupted run\n got:\n%s\nwant:\n%s",
				stopAfter, got, want)
		}
	}
}

// TestSupervisedChaosQuarantine drives the chaos hook through every
// failure class: a wedge (classified timeout), a panic (classified
// crashed, quarantined) and a flake (retried to success). The poison
// scenarios land in the supervision section; the campaign never aborts.
func TestSupervisedChaosQuarantine(t *testing.T) {
	cfg := Config{Seed: 42, N: 8, Chaos: "wedge:1,panic:3,flaky:5"}
	rep, run, err := RunSupervised(cfg, campaign.Config{
		Workers: 4, Timeout: 500 * time.Millisecond, Retries: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sup == nil {
		t.Fatal("chaos run has no supervision section")
	}
	if len(rep.Sup.Quarantined) != 2 {
		t.Fatalf("quarantined: %+v", rep.Sup.Quarantined)
	}
	byFailure := map[string]QuarantinedScenario{}
	for _, q := range rep.Sup.Quarantined {
		byFailure[q.Failure] = q
	}
	if q, ok := byFailure[campaign.FailTimeout]; !ok || q.Attempts != 2 {
		t.Fatalf("wedged scenario: %+v", byFailure)
	}
	if q, ok := byFailure[campaign.FailCrashed]; !ok || q.Attempts != 2 {
		t.Fatalf("panicking scenario: %+v", byFailure)
	}
	// The flaky scenario succeeded on its retry and carries a real result.
	if run.Outcomes[5].Status != campaign.StatusOK || len(run.Outcomes[5].Attempts) != 1 {
		t.Fatalf("flaky scenario: %+v", run.Outcomes[5])
	}
	if rep.Results[5].Sup != "" || rep.Results[5].ARM.Port == "" {
		t.Fatalf("flaky result not folded in: %+v", rep.Results[5])
	}
	// Quarantined results are marked and excluded from the port tallies.
	if !strings.Contains(rep.Results[1].Sup, "quarantined") || !strings.Contains(rep.Results[3].Sup, "quarantined") {
		t.Fatalf("poison results not marked: %q %q", rep.Results[1].Sup, rep.Results[3].Sup)
	}
	arm := rep.ARM.Total()
	if got := arm.Injected + arm.Skipped; got != 6 {
		t.Fatalf("port tally books %d scenarios, want 6 (8 minus 2 quarantined)", got)
	}
	text := rep.Text()
	if !strings.Contains(text, "QUARANTINED sc0001") || !strings.Contains(text, "QUARANTINED sc0003") {
		t.Fatalf("supervision text:\n%s", text)
	}
	if run.Stats.Quarantined != 2 || run.Stats.Crashes != 2 || run.Stats.Timeouts != 2 {
		t.Fatalf("stats %+v", run.Stats)
	}
}

// TestSupervisedQuarantineSurvivesResume: a poison scenario quarantined
// before an interrupt must come back quarantined — never re-run — and
// the resumed report must match a straight-through chaos run.
func TestSupervisedQuarantineSurvivesResume(t *testing.T) {
	cfg := Config{Seed: 42, N: 6, Chaos: "panic:0"}
	sup := campaign.Config{Workers: 1, Retries: 1, Clock: &campaign.FakeClock{}}
	straight, _, err := RunSupervised(cfg, sup, nil)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "campaign.journal")
	supJ := sup
	supJ.Journal, supJ.StopAfter = journal, 2
	if _, run1, err := RunSupervised(cfg, supJ, nil); err != nil {
		t.Fatal(err)
	} else if run1.Outcomes[0].Status != campaign.StatusQuarantined {
		// Worker 1 walks its shard front-to-back, so scenario 0 is in
		// the first two completions.
		t.Fatalf("scenario 0 not quarantined before interrupt: %+v", run1.Outcomes[0])
	}
	supR := sup
	supR.Journal = journal
	resumed, run2, err := RunSupervised(cfg, supR, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !run2.Outcomes[0].Resumed || run2.Outcomes[0].Status != campaign.StatusQuarantined {
		t.Fatalf("quarantine not restored from journal: %+v", run2.Outcomes[0])
	}
	if got, want := resumed.Text(), straight.Text(); got != want {
		t.Fatalf("resumed chaos report differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecordRunsBothOrNeither pins satellite fix 1: when one port's
// recording fails, the caller gets neither recording plus an error —
// never a half pair.
func TestRecordRunsBothOrNeither(t *testing.T) {
	// An app the ARM port has but the RISC-V release subset lacks makes
	// rvRun fail while armRun succeeds.
	sc := GenScenarios(Config{N: 1})[0]
	sc.App = "mpu_walk_region"
	arm, rv, err := RecordRuns(sc, Config{N: 1}, true)
	if err == nil {
		t.Fatal("RecordRuns with a port-missing app should fail")
	}
	if arm != nil || rv != nil {
		t.Fatalf("half pair returned alongside error: arm=%v rv=%v", arm != nil, rv != nil)
	}
	if !strings.Contains(err.Error(), "rv32") {
		t.Fatalf("error does not name the failing port: %v", err)
	}

	// The happy path still returns both.
	sc = GenScenarios(Config{N: 1})[0]
	arm, rv, err = RecordRuns(sc, Config{N: 1}, true)
	if err != nil || arm == nil || rv == nil {
		t.Fatalf("happy path: arm=%v rv=%v err=%v", arm != nil, rv != nil, err)
	}
}

func TestReportEmpty(t *testing.T) {
	if !(&Report{}).Empty() {
		t.Fatal("zero-scenario report should be empty")
	}
	// A real small campaign injects faults, so it is not empty.
	if rep := Run(Config{Seed: 42, N: 6}); rep.Empty() {
		t.Fatalf("real campaign reported empty:\n%s", rep.Text())
	}
	// All-skipped with nothing else to show is empty...
	skipped := &Report{Config: Config{N: 2}, Results: []Result{{}, {}}}
	skipped.tally()
	if !skipped.Empty() {
		t.Fatal("all-skipped report should be empty")
	}
	// ...but supervision activity is evidence, so it is not.
	quarantined := &Report{
		Config:  Config{N: 2},
		Results: []Result{{}, {Sup: "quarantined (crashed after 2 attempts)"}},
		Sup:     &Supervision{Crashes: 2, Quarantined: []QuarantinedScenario{{Label: "x", Failure: "crashed", Attempts: 2}}},
	}
	quarantined.tally()
	if quarantined.Empty() {
		t.Fatal("quarantine evidence should not be empty")
	}
}

// TestUnitsRejectNegativeN: a negative scenario count is an error from
// the unit source, never a panic in the scenario generator.
func TestUnitsRejectNegativeN(t *testing.T) {
	if _, err := Units(Config{N: -1}); err == nil || !strings.Contains(err.Error(), "negative scenario count") {
		t.Fatalf("Units(N=-1): %v", err)
	}
	if _, _, err := RunSupervised(Config{N: -1}, campaign.Config{Retries: 1}, nil); err == nil {
		t.Fatal("RunSupervised(N=-1) should fail")
	}
}
