package difftest

import (
	"strings"
	"testing"

	"ticktock/internal/apps"
	"ticktock/internal/campaign"
)

// TestRunAllSupervisedMatchesPlain: with nothing for the supervisor to
// do, the supervised campaign renders the exact table that running each
// case directly, with no campaign engine in between, renders.
func TestRunAllSupervisedMatchesPlain(t *testing.T) {
	var plain []Row
	for _, tc := range apps.All() {
		plain = append(plain, RunCaseConfig(tc, Config{}))
	}
	rows, run, err := RunAll(Config{}, campaign.Config{Retries: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Table(rows), Table(plain); got != want {
		t.Fatalf("supervised table differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if run.Stats.Quarantined != 0 || run.Stats.Completed != uint64(len(rows)) {
		t.Fatalf("stats %+v", run.Stats)
	}
}

// TestRunAllSupervisedRejectsJournal: difftest rows carry live error
// values and registries, so the supervised difftest campaign must refuse
// a resume journal instead of silently losing state.
func TestRunAllSupervisedRejectsJournal(t *testing.T) {
	_, _, err := RunAll(Config{}, campaign.Config{Journal: t.TempDir() + "/j"}, nil)
	if err == nil || !strings.Contains(err.Error(), "not journal-serializable") {
		t.Fatalf("journaled difftest should be rejected, got %v", err)
	}
}
