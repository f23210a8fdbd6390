package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// aggregate is the determinism comparison view: per-unit terminal
// status and result, stripped of invocation-local details (Resumed).
func aggregate(run *Run[int]) string {
	var b strings.Builder
	for _, o := range run.Outcomes {
		fmt.Fprintf(&b, "%d=%v:%d:%d;", o.Index, o.Status, o.Result, len(o.Attempts))
	}
	return b.String()
}

func TestJournalKillAndResumeDeterminism(t *testing.T) {
	const n = 40
	uninterrupted, err := Supervise(Config{Workers: 3}, intSource(n, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := aggregate(uninterrupted)

	// Interrupt at several arbitrary checkpoints, then resume with a
	// different worker count each time.
	for _, stopAfter := range []int{1, 7, 19, 33} {
		dir := t.TempDir()
		journal := filepath.Join(dir, "campaign.journal")
		first, err := Supervise(Config{Workers: 2, Journal: journal, StopAfter: stopAfter, CheckpointEvery: 4}, intSource(n, nil))
		if err != nil {
			t.Fatalf("stopAfter=%d: %v", stopAfter, err)
		}
		if !first.Interrupted {
			t.Fatalf("stopAfter=%d: run not interrupted", stopAfter)
		}
		if first.Stats.Completed < uint64(stopAfter) {
			t.Fatalf("stopAfter=%d: only %d completed", stopAfter, first.Stats.Completed)
		}

		resumed, err := Supervise(Config{Workers: 7, Journal: journal}, intSource(n, nil))
		if err != nil {
			t.Fatalf("stopAfter=%d resume: %v", stopAfter, err)
		}
		if resumed.Interrupted {
			t.Fatalf("stopAfter=%d: resume still interrupted", stopAfter)
		}
		if resumed.Stats.Resumed != first.Stats.Completed {
			t.Fatalf("stopAfter=%d: resumed %d units, first run completed %d",
				stopAfter, resumed.Stats.Resumed, first.Stats.Completed)
		}
		if got := aggregate(resumed); got != want {
			t.Fatalf("stopAfter=%d: resumed aggregate differs from uninterrupted run\n got %s\nwant %s", stopAfter, got, want)
		}
		// The restored outcomes are marked, the fresh ones are not.
		var restored int
		for _, o := range resumed.Outcomes {
			if o.Resumed {
				restored++
			}
		}
		if uint64(restored) != resumed.Stats.Resumed {
			t.Fatalf("stopAfter=%d: %d outcomes marked resumed, stats say %d", stopAfter, restored, resumed.Stats.Resumed)
		}
	}
}

func TestJournalResumeDoesNotRerunCompletedUnits(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.journal")
	var calls atomic.Int64
	counting := func(ctx context.Context, i int) (int, error) {
		calls.Add(1)
		return i * i, nil
	}
	if _, err := Supervise(Config{Workers: 1, Journal: journal, StopAfter: 5}, intSource(12, counting)); err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	resumed, err := Supervise(Config{Workers: 2, Journal: journal}, intSource(12, counting))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load() - before; got != int64(12)-before {
		t.Fatalf("resume re-ran completed units: %d new calls for %d remaining units", got, 12-before)
	}
	if resumed.Stats.Resumed != uint64(before) {
		t.Fatalf("resumed %d, want %d", resumed.Stats.Resumed, before)
	}
}

func TestJournalQuarantineIsTerminalAcrossResume(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.journal")
	var poisonCalls atomic.Int64
	src := func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			poisonCalls.Add(1)
			return 0, fmt.Errorf("poison")
		}
		return i * i, nil
	}
	first, err := Supervise(Config{Workers: 1, Retries: 2, Journal: journal}, intSource(4, src))
	if err != nil {
		t.Fatal(err)
	}
	if first.Outcomes[1].Status != StatusQuarantined {
		t.Fatalf("unit 1: %+v", first.Outcomes[1])
	}
	attempts := poisonCalls.Load()

	resumed, err := Supervise(Config{Workers: 1, Retries: 2, Journal: journal}, intSource(4, src))
	if err != nil {
		t.Fatal(err)
	}
	if poisonCalls.Load() != attempts {
		t.Fatal("quarantine is not terminal: the poisoned unit was re-run on resume")
	}
	o := resumed.Outcomes[1]
	if o.Status != StatusQuarantined || !o.Resumed || len(o.Attempts) != 3 {
		t.Fatalf("restored quarantine record: %+v", o)
	}
	if o.FinalFailure() != FailError {
		t.Fatalf("FinalFailure = %q", o.FinalFailure())
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.journal")
	if _, err := Supervise(Config{Workers: 1, Journal: journal, StopAfter: 6}, intSource(10, nil)); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a torn, newline-less record fragment.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"unit":9,"status":1,"res`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, err := Supervise(Config{Workers: 2, Journal: journal}, intSource(10, nil))
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	for i, o := range resumed.Outcomes {
		if o.Status != StatusOK || o.Result != i*i {
			t.Fatalf("unit %d after torn-tail resume: %+v", i, o)
		}
	}
	// The torn fragment must be gone and the file newline-terminated.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `,"res`+"{") || !strings.HasSuffix(string(raw), "\n") {
		t.Fatalf("journal still torn: %q", string(raw[len(raw)-40:]))
	}
}

func TestJournalRejectsDifferentCampaign(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.journal")
	if _, err := Supervise(Config{Workers: 1, Journal: journal, StopAfter: 2}, intSource(10, nil)); err != nil {
		t.Fatal(err)
	}
	// Same path, different campaign config (unit count changes the
	// fingerprint and the header's unit count).
	_, err := Supervise(Config{Workers: 1, Journal: journal}, intSource(12, nil))
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("resuming a different campaign should fail, got %v", err)
	}
}

func TestJournalCorruptResultFailsClosed(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.journal")
	if _, err := Supervise(Config{Workers: 1, Journal: journal, StopAfter: 3}, intSource(6, nil)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside a journaled result payload, keeping the line
	// well-formed JSON: the record digest must catch it.
	lines := strings.Split(string(raw), "\n")
	tampered := false
	for i, ln := range lines {
		if strings.Contains(ln, `"result":`) && strings.Contains(ln, `"unit":1`) {
			lines[i] = strings.Replace(ln, `"result":1`, `"result":7`, 1)
			tampered = lines[i] != ln
			break
		}
	}
	if !tampered {
		t.Fatalf("no unit 1 record to tamper with:\n%s", string(raw))
	}
	if err := os.WriteFile(journal, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Supervise(Config{Workers: 1, Journal: journal}, intSource(6, nil))
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("tampered journal should fail closed, got %v", err)
	}
}

func TestJournalCheckpointRecords(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.journal")
	run, err := Supervise(Config{Workers: 2, Journal: journal, CheckpointEvery: 4}, intSource(10, nil))
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, want >= 2", run.Stats.Checkpoints)
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.Contains(ln, `"checkpoint":true`) {
			last = ln
		}
	}
	if last == "" {
		t.Fatal("no checkpoint record in journal")
	}
	// The final checkpoint covers the whole campaign as one range.
	if !strings.Contains(last, `"completed":10`) || !strings.Contains(last, `"ranges":"0-9"`) {
		t.Fatalf("final checkpoint: %s", last)
	}
}

func TestFormatRanges(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{3}, "3"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 1, 3, 5, 6, 7, 9}, "0-1,3,5-7,9"},
	}
	for _, c := range cases {
		if got := formatRanges(c.in); got != c.want {
			t.Errorf("formatRanges(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestJournalRequiresCodecs(t *testing.T) {
	src := intSource(3, nil)
	src.Encode, src.Decode = nil, nil
	_, err := Supervise(Config{Journal: filepath.Join(t.TempDir(), "j")}, src)
	if err == nil || !strings.Contains(err.Error(), "Encode") {
		t.Fatalf("journaling without codecs should fail, got %v", err)
	}
	// Without a journal, codec-less sources are fine.
	run, err := Supervise(Config{}, src)
	if err != nil || !reflect.DeepEqual(run.Outcomes[2].Result, 4) {
		t.Fatalf("codec-less run: %v %+v", err, run.Outcomes)
	}
}

// TestJournalMalformedDigestsFailClosed feeds journals whose digests are
// missing or shorter than the 12 characters error messages quote: each
// must be refused with an error, never a panic.
func TestJournalMalformedDigestsFailClosed(t *testing.T) {
	src := intSource(6, nil)
	header := fmt.Sprintf(`{"campaign":1,"kind":"test","units":6,"config_sha256":%q}`+"\n", sha256hex(src.Fingerprint))
	for _, tc := range []struct{ name, journal, want string }{
		{"case-folded version only", `{"CAmpAign":1}` + "\n", "different campaign"},
		{"empty config digest", `{"campaign":1,"kind":"test","units":6,"config_sha256":""}` + "\n", "different campaign"},
		{"short config digest", `{"campaign":1,"kind":"test","units":6,"config_sha256":"ab"}` + "\n", "different campaign"},
		{"short result digest", header + `{"unit":0,"status":1,"result":0,"result_sha256":"ab"}` + "\n", "digest mismatch"},
		{"empty result digest", header + `{"unit":0,"status":1,"result":0}` + "\n", "digest mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "campaign.journal")
			if err := os.WriteFile(journal, []byte(tc.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Supervise(Config{Workers: 1, Journal: journal}, src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// FuzzJournalLoad feeds arbitrary bytes to the journal loader as an
// existing file of a six-unit campaign. Loading must fail closed: it
// returns an error, or it keeps only whole lines and restores in-range
// records whose result digests verify. It never panics.
func FuzzJournalLoad(f *testing.F) {
	fp := []byte("fuzz-journal")
	header := fmt.Sprintf(`{"campaign":1,"kind":"test","units":6,"config_sha256":%q}`+"\n", sha256hex(fp))
	rec := func(unit int, result string) string {
		return fmt.Sprintf(`{"unit":%d,"status":%d,"result":%s,"result_sha256":%q}`+"\n", unit, StatusOK, result, sha256hex([]byte(result)))
	}
	f.Add([]byte(`{"CAmpAign":1}` + "\n"))
	f.Add([]byte(header + rec(0, "0") + `{"unit":1,"sta`))
	f.Add([]byte(header + rec(2, "4") + rec(5, "25")))
	f.Add([]byte(header + `{"checkpoint":true,"completed":1,"ranges":"2","agg_sha256":"ab"}` + "\n" + rec(2, "4")))
	f.Fuzz(func(t *testing.T, raw []byte) {
		j := &journal{path: "fuzz", restored: make(map[int]unitRecord), digests: make(map[int]string)}
		keep, err := j.load(raw, journalHeader{Campaign: JournalVersion, Kind: "test", Units: 6, ConfigSHA: sha256hex(fp)})
		if err != nil {
			return
		}
		if keep <= 0 || keep > int64(len(raw)) || raw[keep-1] != '\n' {
			t.Fatalf("kept %d of %d bytes: not a whole-line prefix", keep, len(raw))
		}
		for unit, r := range j.restored {
			if unit != r.Unit || unit < 0 || unit >= 6 {
				t.Fatalf("restored unit %d as index %d", r.Unit, unit)
			}
			if r.Status == StatusOK && sha256hex(r.Result) != r.ResultSHA {
				t.Fatalf("unit %d restored with a result digest that does not verify", unit)
			}
			if j.digests[unit] != recordDigest(r) {
				t.Fatalf("unit %d restored without its checkpoint digest", unit)
			}
		}
	})
}
