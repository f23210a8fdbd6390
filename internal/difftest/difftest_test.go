package difftest

import (
	"strings"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/campaign"
	"ticktock/internal/kernel"
	"ticktock/internal/monolithic"
)

func TestCampaignHasTwentyOneCases(t *testing.T) {
	cases := apps.All()
	if len(cases) != 21 {
		t.Fatalf("cases=%d, want 21 (paper §6.1)", len(cases))
	}
	diff := 0
	for _, tc := range cases {
		if tc.ExpectDiff {
			diff++
		}
	}
	if diff != 5 {
		t.Fatalf("expected-diff cases=%d, want 5 (paper §6.1)", diff)
	}
}

// mustRunAll runs the release campaign and fails the test on a
// supervisor error.
func mustRunAll(t *testing.T, cfg Config, sup campaign.Config) []Row {
	t.Helper()
	rows, _, err := RunAll(cfg, sup, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestDifferentialCampaign(t *testing.T) {
	rows := mustRunAll(t, Config{}, campaign.Config{})
	for _, r := range rows {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Name, r.Err)
			continue
		}
		if !r.OK() {
			t.Errorf("%s: equal=%v expectDiff=%v\n ticktock: %q\n tock:     %q",
				r.Name, r.Equal, r.ExpectDiff, r.TickTock, r.Tock)
		}
	}
	s := Summarize(rows)
	if s.Total != 21 || s.Differing != 5 || s.Unexpected != 0 || s.Errored != 0 {
		t.Fatalf("summary=%+v", s)
	}
}

// TestParallelCampaignMatchesSequential pins the worker-count contract:
// one worker and eight workers with a retry budget render the same
// table byte for byte and the same outputs row by row, and with nothing
// for the supervisor to do every case completes on its first attempt.
func TestParallelCampaignMatchesSequential(t *testing.T) {
	seq := mustRunAll(t, Config{}, campaign.Config{Workers: 1})
	par, run, err := RunAll(Config{}, campaign.Config{Workers: 8, Retries: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.Quarantined != 0 || run.Stats.Retries != 0 || run.Stats.Completed != uint64(len(par)) {
		t.Fatalf("stats %+v", run.Stats)
	}
	if got, want := Table(par), Table(seq); got != want {
		t.Fatalf("8-worker table differs from 1-worker table:\n got:\n%s\nwant:\n%s", got, want)
	}
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Name != par[i].Name {
			t.Fatalf("row %d order differs: %s vs %s", i, seq[i].Name, par[i].Name)
		}
		if seq[i].TickTock != par[i].TickTock || seq[i].Tock != par[i].Tock {
			t.Errorf("%s: outputs differ between sequential and parallel runs", seq[i].Name)
		}
	}
}

func TestStackGrowthStillFaultsOnBothKernels(t *testing.T) {
	// The paper's point about the Stack Growth test: outputs differ (the
	// printed layout), but the *behaviour* — faulting on the overrun —
	// is identical.
	for _, tc := range apps.All() {
		if tc.Name != "stack_growth" {
			continue
		}
		row := RunCaseConfig(tc, Config{})
		if row.Err != nil {
			t.Fatal(row.Err)
		}
		for _, out := range []string{row.TickTock, row.Tock} {
			if !strings.Contains(out, "panic: process stack_growth faulted") {
				t.Fatalf("missing fault: %q", out)
			}
		}
		if !strings.Contains(row.TickTockStates, "faulted") || !strings.Contains(row.TockStates, "faulted") {
			t.Fatalf("states: %s / %s", row.TickTockStates, row.TockStates)
		}
	}
}

// TestDivergenceDumpOnForcedMismatch re-enables the tock#4246
// missed-mode-switch bug, which lives in the shared context-switch path:
// both kernels then skip the privilege drop, mpu_walk_region's probe
// succeeds instead of faulting on both, and an expected-diff case comes
// back equal — an unexpected result that must carry a trace dump.
func TestDivergenceDumpOnForcedMismatch(t *testing.T) {
	cfg := Config{Bugs: monolithic.BugSet{MissedModeSwitch: true}}
	var hit bool
	for _, tc := range apps.All() {
		if tc.Name != "mpu_walk_region" {
			continue
		}
		hit = true
		row := RunCaseConfig(tc, cfg)
		if row.Err != nil {
			t.Fatal(row.Err)
		}
		if row.OK() {
			t.Fatalf("expected a forced mismatch, got OK row: equal=%v expectDiff=%v", row.Equal, row.ExpectDiff)
		}
		if row.Divergence == "" {
			t.Fatal("unexpected mismatch produced no divergence trace dump")
		}
		for _, want := range []string{"== ticktock ==", "== tock ==", "context-switch", "syscall"} {
			if !strings.Contains(row.Divergence, want) {
				t.Fatalf("divergence dump missing %q:\n%s", want, row.Divergence)
			}
		}
		// The dump is suppressible.
		quiet := RunCaseConfig(tc, Config{Bugs: cfg.Bugs, NoTraceDump: true})
		if quiet.Divergence != "" {
			t.Fatal("NoTraceDump still produced a dump")
		}
	}
	if !hit {
		t.Fatal("mpu_walk_region case missing from campaign")
	}
}

// TestErroredCaseIsRecordedNotFatal feeds the campaign a case that
// cannot load (its RAM demand exceeds the whole process pool) and checks
// the error is recorded per-row and tallied, not propagated — and that,
// with no retries, the table shows the case's own error text.
func TestErroredCaseIsRecordedNotFatal(t *testing.T) {
	broken := apps.TestCase{
		Name: "unloadable",
		Apps: []kernel.App{{
			Name:   "unloadable",
			MinRAM: 64 * 1024 * 1024, InitRAM: 2048, Stack: 1024, KernelHint: 512,
			Build: apps.All()[0].Apps[0].Build,
		}},
	}
	rows, run, err := runCases([]apps.TestCase{broken}, Config{}, campaign.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Err == nil {
		t.Fatal("expected a load error")
	}
	if run.Stats.Errors != 1 || run.Stats.Quarantined != 1 {
		t.Fatalf("stats %+v", run.Stats)
	}
	if row.OK() {
		t.Fatal("errored row must not be OK")
	}
	s := Summarize([]Row{row})
	if s.Errored != 1 || s.Unexpected != 0 {
		t.Fatalf("summary=%+v", s)
	}
	direct := RunCaseConfig(broken, Config{})
	if direct.Err == nil {
		t.Fatal("expected a load error from the single-case path")
	}
	tab := Table(rows)
	if !strings.Contains(tab, "ERROR: "+direct.Err.Error()) || !strings.Contains(tab, "1 errored") {
		t.Fatalf("table does not show the case's own error %q:\n%s", direct.Err, tab)
	}
}

func TestTableRendering(t *testing.T) {
	rows := []Row{{Name: "x", Equal: true}, {Name: "y", Equal: false, ExpectDiff: true}}
	tab := Table(rows)
	if !strings.Contains(tab, "2 tests, 1 identical, 1 differing (0 unexpected, 0 errored)") {
		t.Fatalf("table:\n%s", tab)
	}
}
