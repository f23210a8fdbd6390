package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ticktock/internal/apps"
	"ticktock/internal/faultinject"
	"ticktock/internal/kernel"
	"ticktock/internal/monolithic"
	"ticktock/internal/riscv"
	"ticktock/internal/rvkernel"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for n := 1; n <= 20000; n++ {
		p := tailPercentile(n)
		if n < 20 {
			if p != 0 {
				t.Fatalf("n=%d: percentile p%g, want none (fewer than 20 samples)", n, p)
			}
			continue
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		cut := quantile(xs, p)
		beyond := 0
		for _, x := range xs {
			if x > cut {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: p%g leaves %d samples beyond, want >= 10", n, p, beyond)
		}
		for _, q := range tailLadder {
			if q > p && float64(n)*(1-q/100) >= 10+1e-9 {
				t.Fatalf("n=%d: p%g chosen but p%g also leaves ten beyond", n, p, q)
			}
		}
	}
	for n, want := range map[int]float64{100: 90, 500: 95, 1000: 99, 1309: 99, 2000: 99.5, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", n, got, want)
		}
	}
}

func TestTailIsReportedWithPercentileAndCount(t *testing.T) {
	p := &phase{attempted: 200}
	for r := 0; r < 2; r++ {
		rep := &repOut{attempted: 100, outerWall: time.Second}
		for i := 0; i < 100; i++ {
			rep.unitMs = append(rep.unitMs, float64(i))
		}
		p.reps = append(p.reps, rep)
	}
	var out bytes.Buffer
	vals := p.endToEnd(&out)
	if !strings.Contains(out.String(), "tail percentile p90 of n=100 timed units per repetition (200 in all)") {
		t.Fatalf("tail line missing percentile and count:\n%s", out.String())
	}
	if got, want := vals["unit_tail_ms"], quantile(p.reps[0].unitMs, 90); got != want {
		t.Fatalf("unit_tail_ms = %v, want %v", got, want)
	}
}

// benchmarkFile mirrors the keys of BENCHMARK.json the names live in.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestNamesAreValidAndMatchBenchmarkJSON(t *testing.T) {
	all := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, w := range workloads {
		all = append(all, metricDef{w.name, "count"})
	}
	if err := checkNames(all); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Fatalf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, bw := range bf.Workloads {
		if _, ok := findWorkload(bw.Name); !ok {
			t.Fatalf("BENCHMARK.json lists workload %q, which the benchmark does not have", bw.Name)
		}
	}
}

// The faultcamp repetition is `faultcamp -n 500`: the supervised path
// it drives must give the report the unsupervised campaign gives.
func TestFaultcampRepMatchesCampaignReport(t *testing.T) {
	out, err := faultcampRep(&env{seed: 3, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := faultinject.Run(faultinject.Config{Seed: 3, N: faultcampUnits, Workers: 2})
	if out.digest != digest(want.Text()) || out.failed != 0 {
		t.Fatalf("repetition digest %s (failed %d), want the digest of faultinject.Run's report", out.digest, out.failed)
	}
}

// A traced sealed repetition goes through every layer the plain
// campaign skips: journal, scraped telemetry server and runpack.
func TestSealedRepTraced(t *testing.T) {
	tr := newTracer()
	out, err := sealedRep(&env{seed: 1, workers: 2, workdir: t.TempDir(), tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted != faultcampUnits {
		t.Fatalf("failed %d of %d: %v", out.failed, out.attempted, out.findings)
	}
	l := out.layer
	if l.journalBytes == 0 || l.checkpoints == 0 || len(l.gapsMs) == 0 || len(l.scenarios) != faultcampUnits {
		t.Fatalf("journal %v bytes, %v checkpoints, %d gaps, %d scenarios", l.journalBytes, l.checkpoints, len(l.gapsMs), len(l.scenarios))
	}
	for _, span := range []string{"telemetry.scrape", "runpack.seal", "faultinject.report"} {
		if len(tr.get(span)) == 0 {
			t.Errorf("no %s span recorded", span)
		}
	}
}

// The replay counts syscalls through a pass-through hook; the count
// must leave the run's simulated cycles and outputs as they are.
func TestReplayHookLeavesRunsUnchanged(t *testing.T) {
	for _, tc := range apps.All() {
		got, err := replayARM(tc.Apps, kernel.Options{}, soakQuanta)
		if err != nil {
			t.Fatal(err)
		}
		k, err := kernel.New(kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range tc.Apps {
			if _, err := k.LoadProcess(app); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := k.Run(soakQuanta); err != nil {
			t.Fatal(err)
		}
		if got.cycles != k.Board.Meter.Cycles() || got.syscalls == 0 && tc.Name != "whileone" {
			t.Errorf("%s: replay %d cycles, %d syscalls; plain run %d cycles", tc.Name, got.cycles, got.syscalls, k.Board.Meter.Cycles())
		}
	}
	for _, app := range rvkernel.ReleaseSubset() {
		got, err := replayRV([]rvkernel.App{app}, riscv.Chips[0], rvSupervision{}, false, soakQuanta)
		if err != nil {
			t.Fatal(err)
		}
		k, err := rvkernel.New(riscv.Chips[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.LoadProcess(app); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(soakQuanta); err != nil {
			t.Fatal(err)
		}
		if got.cycles != k.Machine.Meter.Cycles() {
			t.Errorf("rv %s: replay %d cycles, plain run %d", app.Name, got.cycles, k.Machine.Meter.Cycles())
		}
	}
}

func TestChaosPanicCountsAsFailed(t *testing.T) {
	out, err := faultcampRep(&env{seed: 1, workers: 2, chaos: "panic:3"})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 || out.attempted != faultcampUnits {
		t.Fatalf("failed %d of %d, want 1 of %d; findings %v", out.failed, out.attempted, faultcampUnits, out.findings)
	}
	if !strings.Contains(out.findings[0], "sc0003") {
		t.Fatalf("finding does not name the chaos scenario: %v", out.findings)
	}
}

func TestForcedDivergenceCountsAsFailed(t *testing.T) {
	byName := map[string]apps.TestCase{}
	for _, tc := range apps.All() {
		byName[tc.Name] = tc
	}
	walk, spin := byName["mpu_walk_region"], byName["whileone"]
	tc := apps.TestCase{Name: "forced", Quanta: soakQuanta, ExpectDiff: walk.ExpectDiff || spin.ExpectDiff,
		Apps: append(append([]kernel.App(nil), walk.Apps...), spin.Apps...)}
	mixes := []mix{{name: "forced", arm: &tc, names: []string{walk.Name, spin.Name}}}
	for _, c := range []struct {
		bugs monolithic.BugSet
		want int
	}{
		{monolithic.BugSet{}, 0},
		{monolithic.BugSet{MissedModeSwitch: true}, 1},
	} {
		out, err := soakPass(&env{workers: 2, bugs: c.bugs}, time.Now(), mixes)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != c.want {
			t.Fatalf("bugs %+v: failed %d, want %d; findings %v", c.bugs, out.failed, c.want, out.findings)
		}
	}
}

// TestSoakBudgetLetsMembersFinish pins the soak budget on the slowest
// board found over all member orders and on a board that 200 quanta
// cut short: within soakQuanta every member but whileone ends, so the
// mix's inherited verdict holds, and a budget too small to get there
// fails the mix by name rather than as a wrong verdict.
func TestSoakBudgetLetsMembersFinish(t *testing.T) {
	byName := map[string]apps.TestCase{}
	for _, tc := range apps.All() {
		byName[tc.Name] = tc
	}
	board := func(quanta int, names ...string) mix {
		tc := apps.TestCase{Name: strings.Join(names, "+"), Quanta: quanta}
		for _, n := range names {
			tc.Apps = append(tc.Apps, byName[n].Apps...)
			tc.ExpectDiff = tc.ExpectDiff || byName[n].ExpectDiff
		}
		return mix{name: tc.Name, arm: &tc, names: names}
	}
	slowest := []string{"c_hello", "ipc_pair", "whileone", "memory_layout"}
	starved := []string{"multi_alarm", "ipc_pair", "whileone", "memory_layout"}
	out, err := soakPass(&env{workers: 2}, time.Now(), []mix{board(soakQuanta, slowest...), board(soakQuanta, starved...)})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("failed %d of %d at %d quanta; findings %v", out.failed, out.attempted, soakQuanta, out.findings)
	}
	out, err = soakPass(&env{workers: 2}, time.Now(), []mix{board(200, starved...)})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 || !strings.Contains(out.findings[0], "still running after 200 quanta: [memory_layout]") {
		t.Fatalf("failed %d, findings %v; want the starved memory_layout named", out.failed, out.findings)
	}
}

func TestDigestMismatchFailsTheWholeRepetition(t *testing.T) {
	p := &phase{}
	for _, d := range []string{"a", "a", "b"} {
		p.gate(&repOut{attempted: 4, unitMs: []float64{1, 1, 1, 1}, digest: d})
	}
	if p.failed != 4 || p.attempted != 12 || len(p.findings) != 1 {
		t.Fatalf("failed %d of %d with findings %v, want 4 of 12 and one finding", p.failed, p.attempted, p.findings)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkNames reports the first metric whose name or unit breaks the
// naming rules, or a name used twice.
func checkNames(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not valid", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q is not valid", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}
