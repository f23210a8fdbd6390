package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"ticktock/internal/apps"
	"ticktock/internal/campaign"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/kernel"
	"ticktock/internal/monolithic"
	"ticktock/internal/riscv"
	"ticktock/internal/runpack"
	"ticktock/internal/rvkernel"
	"ticktock/internal/specs"
	"ticktock/internal/telemetry"
	"ticktock/internal/verify"
)

// Repetition sizes. Each is large enough that one repetition alone
// leaves at least ten units beyond a high tail percentile (p95 and p90;
// the checker's 1309 timed obligations give p99), and small enough
// that a run holds several repetitions, so set-up is sampled several
// times.
//
// soakQuanta is the budget of every soak board. A mix inherits its
// members' release verdicts (ExpectDiff), which only hold for a member
// that ran to its end, so the budget must let every member but whileone
// finish: over all 28,500 orders of whileone with one to three other
// release cases, the slowest board needs 245 quanta (c_hello, ipc_pair,
// whileone, memory_layout). A member still running when the budget
// ends fails its mix (see unfinished).
const (
	faultcampUnits = 500
	soakMixes      = 100
	soakQuanta     = 300
	scrapeEvery    = 100 * time.Millisecond
)

// env is what every repetition of a workload shares.
type env struct {
	seed    int64
	workers int
	// workdir holds the sealed workload's journals and packs while a
	// repetition runs; each repetition removes its own files.
	workdir string
	// chaos and bugs seed failures into a repetition; the self-tests
	// use them to prove the failure gate counts what it should.
	chaos string
	bugs  monolithic.BugSet
	// tr, when non-nil, records the traced run's spans and layer data.
	tr *tracer
}

// repOut is one repetition: a full campaign, soak or checker pass.
type repOut struct {
	setup     time.Duration // repetition start to first unit dispatched
	wall      time.Duration // repetition start to its verdicts
	outerWall time.Duration // the whole call, clean-up included
	cpu       time.Duration
	peakMiB   float64
	unitMs    []float64 // host time of each timed unit
	attempted int
	failed    int
	digest    string
	findings  []string
	layer     *repLayer // traced runs only
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	rep  func(e *env) (*repOut, error)
}

var workloads = []workload{
	{"faultcamp", faultcampRep},
	{"faultcamp-sealed", sealedRep},
	{"soak", soakRep},
	{"verify", verifyRep},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s\n", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// unitTimer wraps a unit body to time every call and note the first
// dispatch. Each index is written by the one worker running it and read
// after the pool has drained.
type unitTimer struct {
	first      atomic.Int64 // unix nanos of the first dispatch
	start, end []time.Time
}

func newUnitTimer(n int) *unitTimer {
	return &unitTimer{start: make([]time.Time, n), end: make([]time.Time, n)}
}

func wrapRun[R any](t *unitTimer, run func(context.Context, int) (R, error)) func(context.Context, int) (R, error) {
	return func(ctx context.Context, i int) (R, error) {
		now := time.Now()
		t.first.CompareAndSwap(0, now.UnixNano())
		t.start[i] = now
		defer func() { t.end[i] = time.Now() }()
		return run(ctx, i)
	}
}

func (t *unitTimer) setup(since time.Time) time.Duration {
	return time.Unix(0, t.first.Load()).Sub(since)
}

func (t *unitTimer) ms() []float64 {
	out := make([]float64, 0, len(t.start))
	for i := range t.start {
		if !t.end[i].IsZero() {
			out = append(out, float64(t.end[i].Sub(t.start[i]))/1e6)
		}
	}
	return out
}

// faultcampFailed counts the units of a campaign that did not produce
// a clean verdict: any supervisor outcome other than OK, a port error
// or an isolation violation.
func faultcampFailed(run *campaign.Run[faultinject.Result]) (int, []string) {
	failed := 0
	var findings []string
	for _, o := range run.Outcomes {
		r := o.Result
		switch {
		case o.Status != campaign.StatusOK:
			findings = append(findings, fmt.Sprintf("%s: supervisor outcome %s (%s)", o.Key, o.Status, o.FinalFailure()))
		case r.ARM.Err != "" || r.RV.Err != "":
			findings = append(findings, fmt.Sprintf("%s: port error arm=%q rv=%q", o.Key, r.ARM.Err, r.RV.Err))
		case len(r.ARM.Violations)+len(r.RV.Violations) > 0:
			findings = append(findings, fmt.Sprintf("%s: %d isolation violation(s)", o.Key, len(r.ARM.Violations)+len(r.RV.Violations)))
		default:
			continue
		}
		failed++
	}
	return failed, findings
}

// faultcampRep is `faultcamp -n 500` through the supervised path with
// no journal: faultinject.Units under campaign.Supervise, folded by
// faultinject.ReportFromRun.
func faultcampRep(e *env) (*repOut, error) {
	t0 := time.Now()
	cfg := faultinject.Config{Seed: e.seed, N: faultcampUnits, Workers: e.workers, Chaos: e.chaos}
	src, err := faultinject.Units(cfg)
	if err != nil {
		return nil, err
	}
	timer := newUnitTimer(src.N)
	src.Run = wrapRun(timer, src.Run)
	obs := e.tr.observer(nil)
	run, err := campaign.Supervise(campaign.Config{Workers: e.workers, Observer: obs.orNil()}, src)
	if err != nil {
		return nil, err
	}
	var rep *faultinject.Report
	e.tr.span("faultinject.report", func() { rep = faultinject.ReportFromRun(cfg, run) })
	out := &repOut{
		setup:     timer.setup(t0),
		wall:      time.Since(t0),
		unitMs:    timer.ms(),
		attempted: src.N,
		digest:    digest(rep.Text()),
	}
	out.failed, out.findings = faultcampFailed(run)
	if e.tr != nil {
		out.layer = faultcampLayer(cfg, rep, run, timer, obs, out.wall)
	}
	return out, nil
}

// sealedRep is `faultcamp -n 500 -resume J -serve ADDR -runpack DIR`:
// a fresh fsync'd journal, recording on, a live telemetry server that
// one client scrapes at a fixed cadence, and a sealed runpack.
func sealedRep(e *env) (*repOut, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(e.workdir, "sealed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := faultinject.Config{Seed: e.seed, N: faultcampUnits, Workers: e.workers, Record: true, Chaos: e.chaos}
	sup := campaign.Config{Workers: e.workers, Journal: filepath.Join(dir, "journal.jsonl")}
	plane := telemetry.New()
	srv, err := telemetry.Serve("127.0.0.1:0", plane)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	sc := startScraper(srv.Addr(), e.tr)
	defer sc.stop()
	src, err := faultinject.UnitsTelemetry(cfg, plane)
	if err != nil {
		return nil, err
	}
	timer := newUnitTimer(src.N)
	src.Run = wrapRun(timer, src.Run)
	obs := e.tr.observer(plane)
	sup.Observer = obs.orPlane(plane)
	run, err := campaign.Supervise(sup, src)
	if err != nil {
		return nil, err
	}
	var rep *faultinject.Report
	e.tr.span("faultinject.report", func() { rep = faultinject.ReportFromRun(cfg, run) })
	var packDir, receipt string
	e.tr.span("runpack.seal", func() {
		packDir, receipt, err = runpack.EmitFaultcampSupervised(filepath.Join(dir, "packs"), rep, sup)
	})
	if err != nil {
		return nil, fmt.Errorf("sealing runpack: %w", err)
	}
	scrapes, scrapeErr := sc.stop()
	if scrapeErr != nil {
		return nil, fmt.Errorf("telemetry scrape: %w", scrapeErr)
	}
	if scrapes == 0 {
		return nil, fmt.Errorf("telemetry scrape: no scrape completed")
	}
	out := &repOut{
		setup:     timer.setup(t0),
		wall:      time.Since(t0),
		unitMs:    timer.ms(),
		attempted: src.N,
		digest:    digest(rep.Text(), filepath.Base(packDir), receipt),
	}
	out.failed, out.findings = faultcampFailed(run)
	if e.tr != nil {
		out.layer = faultcampLayer(cfg, rep, run, timer, obs, out.wall)
		if st, err := os.Stat(sup.Journal); err == nil {
			out.layer.journalBytes = float64(st.Size())
		}
		out.layer.checkpoints = float64(run.Stats.Checkpoints)
	}
	return out, nil
}

// scraper is the one telemetry client of the sealed workload.
type scraper struct {
	stopc chan struct{}
	done  chan struct{}
	n     int
	err   error
}

func startScraper(addr string, tr *tracer) *scraper {
	s := &scraper{stopc: make(chan struct{}), done: make(chan struct{})}
	transport := &http.Transport{}
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}
	get := func(path string) error {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		// /metrics is legitimately empty until the first checkpoint
		// folds a unit into the live aggregate.
		if resp.StatusCode != http.StatusOK || (path == "/progress" && len(body) == 0) {
			return fmt.Errorf("GET %s: status %d, %d bytes", path, resp.StatusCode, len(body))
		}
		return nil
	}
	go func() {
		defer close(s.done)
		defer transport.CloseIdleConnections()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			for _, path := range []string{"/metrics", "/progress"} {
				var err error
				tr.span("telemetry.scrape", func() { err = get(path) })
				if err != nil {
					s.err = err
					return
				}
			}
			s.n++
		}
	}()
	return s
}

// stop ends the scrape loop, waits for it and returns the completed
// scrape count and the first error. Safe to call twice.
func (s *scraper) stop() (int, error) {
	select {
	case <-s.stopc:
	default:
		close(s.stopc)
	}
	<-s.done
	return s.n, s.err
}

// mix is one soak board: 2–4 release apps, one of them whileone, so
// the board always runs its whole quantum budget.
type mix struct {
	name  string
	arm   *apps.TestCase // nil for an RV mix
	rv    []rvkernel.App
	chip  riscv.ChipConfig
	names []string
}

// genMixes derives the soak mixes from the seed alone. Two of every
// three mixes are ARM mixes (two boards each, one per flavour) and one
// is an RV mix, in a fixed pattern: every board runs the same quantum
// budget, so a fixed port pattern keeps the cost of a pass nearly the
// same for every seed, and the median and tail both fall among the
// ARM mixes rather than on the boundary between the two ports.
func genMixes(seed int64, n int) []mix {
	armCases := apps.All()
	rvApps := rvkernel.ReleaseSubset()
	out := make([]mix, n)
	for i := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		size := 2 + rng.Intn(3)
		m := mix{name: fmt.Sprintf("mix%03d", i)}
		if i%3 != 2 {
			tc := apps.TestCase{Name: m.name, Quanta: soakQuanta}
			picked := pickWithWhileone(rng, len(armCases), size, func(j int) string { return armCases[j].Name })
			for _, j := range picked {
				c := armCases[j]
				tc.Apps = append(tc.Apps, c.Apps...)
				tc.ExpectDiff = tc.ExpectDiff || c.ExpectDiff
				m.names = append(m.names, c.Name)
			}
			m.arm = &tc
		} else {
			m.chip = riscv.Chips[rng.Intn(len(riscv.Chips))]
			picked := pickWithWhileone(rng, len(rvApps), size, func(j int) string { return rvApps[j].Name })
			for _, j := range picked {
				m.rv = append(m.rv, rvApps[j])
				m.names = append(m.names, rvApps[j].Name)
			}
		}
		out[i] = m
	}
	return out
}

// pickWithWhileone draws size distinct indices out of n, replacing the
// last draw with whileone when no draw picked it.
func pickWithWhileone(rng *rand.Rand, n, size int, name func(int) string) []int {
	picked := rng.Perm(n)[:size]
	for _, j := range picked {
		if name(j) == "whileone" {
			return picked
		}
	}
	for j := 0; j < n; j++ {
		if name(j) == "whileone" {
			picked[size-1] = j
			break
		}
	}
	return picked
}

// soakResult is the verdict of one soak board.
type soakResult struct {
	row    difftest.Row // ARM mixes
	rvOut  string       // RV mixes: outputs and states
	err    error
	cycles uint64
}

func runRVMix(m mix) (string, uint64, error) {
	k, err := rvkernel.New(m.chip)
	if err != nil {
		return "", 0, err
	}
	var procs []*rvkernel.Process
	for _, app := range m.rv {
		p, err := k.LoadProcess(app)
		if err != nil {
			return "", 0, err
		}
		procs = append(procs, p)
	}
	if _, err := k.Run(soakQuanta); err != nil {
		return "", 0, err
	}
	var b strings.Builder
	for _, p := range procs {
		fmt.Fprintf(&b, "[%s] %s|%s ", p.Name, k.Output(p), p.State)
	}
	return b.String(), k.Machine.Meter.Cycles(), nil
}

// soakRep runs the seeded mixes on a campaign.Supervise pool: ARM mixes
// on both flavours through difftest.RunCaseConfig, RV mixes on their
// chip through rvkernel.
func soakRep(e *env) (*repOut, error) {
	t0 := time.Now()
	return soakPass(e, t0, genMixes(e.seed, soakMixes))
}

// unfinished names the processes of an ARM mix, whileone aside, that
// are still ready or yielded on either flavour when the budget ends:
// their output is cut short, so the mix's expected verdict does not
// apply to it.
func unfinished(row difftest.Row) []string {
	var names []string
	seen := map[string]bool{}
	for _, states := range []string{row.TickTockStates, row.TockStates} {
		for _, f := range strings.Fields(states) {
			name, state, _ := strings.Cut(f, "=")
			if name == "whileone" || seen[name] {
				continue
			}
			if state == kernel.StateReady.String() || state == kernel.StateYielded.String() {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	return names
}

func soakPass(e *env, t0 time.Time, mixes []mix) (*repOut, error) {
	results := make([]soakResult, len(mixes))
	timer := newUnitTimer(len(mixes))
	src := campaign.Source[struct{}]{
		N:   len(mixes),
		Key: func(i int) string { return mixes[i].name },
		Run: wrapRun(timer, func(_ context.Context, i int) (struct{}, error) {
			m := mixes[i]
			r := &results[i]
			if m.arm != nil {
				r.row = difftest.RunCaseConfig(*m.arm, difftest.Config{Bugs: e.bugs})
				r.err = r.row.Err
			} else {
				r.rvOut, r.cycles, r.err = runRVMix(m)
			}
			return struct{}{}, nil
		}),
	}
	obs := e.tr.observer(nil)
	run, err := campaign.Supervise(campaign.Config{Workers: e.workers, Observer: obs.orNil()}, src)
	if err != nil {
		return nil, err
	}
	out := &repOut{
		setup:     timer.setup(t0),
		unitMs:    timer.ms(),
		attempted: len(mixes),
	}
	parts := make([]string, 0, len(mixes))
	for i, m := range mixes {
		r := results[i]
		left := unfinished(r.row) // none for an RV mix, whose row is empty
		bad := ""
		switch {
		case run.Outcomes[i].Status != campaign.StatusOK:
			bad = fmt.Sprintf("supervisor outcome %s", run.Outcomes[i].Status)
		case r.err != nil:
			bad = r.err.Error()
		case len(left) > 0:
			bad = fmt.Sprintf("still running after %d quanta: %v", m.arm.Quanta, left)
		case m.arm != nil && !r.row.OK():
			bad = fmt.Sprintf("difftest row not OK (equal=%v expect_diff=%v)", r.row.Equal, r.row.ExpectDiff)
		}
		if bad != "" {
			out.failed++
			out.findings = append(out.findings, fmt.Sprintf("%s %v: %s", m.name, m.names, bad))
		}
		if m.arm != nil {
			parts = append(parts, fmt.Sprintf("%s %v %v|%s|%s|%s|%s", m.name, r.row.Equal, r.row.ExpectDiff,
				r.row.TickTock, r.row.TickTockStates, r.row.Tock, r.row.TockStates))
		} else {
			parts = append(parts, fmt.Sprintf("%s %s %d|%s", m.name, m.chip.Name, r.cycles, r.rvOut))
		}
	}
	out.digest = digest(parts...)
	out.wall = time.Since(t0)
	if e.tr != nil {
		out.layer = soakLayer(mixes, timer, obs, run, e.workers, out.wall)
	}
	return out, nil
}

// verifyRep is specs.BuildAll(PaperScale) checked by
// verify.Registry.RunWith with one worker per CPU. The seed is unused:
// the scale fixes the domain.
func verifyRep(e *env) (*repOut, error) {
	t0 := time.Now()
	var reg *verify.Registry
	e.tr.span("specs.build", func() { reg = specs.BuildAll(specs.PaperScale) })
	ss := reg.Specs()
	timer := newUnitTimer(len(ss))
	for i, s := range ss {
		if s.Body == nil {
			continue
		}
		inner, idx := s.Body, i
		s.Body = func(t *verify.T) {
			now := time.Now()
			timer.first.CompareAndSwap(0, now.UnixNano())
			timer.start[idx] = now
			inner(t)
			timer.end[idx] = time.Now()
		}
	}
	runStart := time.Now()
	rep := reg.RunWith(verify.RunOpts{Workers: e.workers})
	runWall := time.Since(runStart)
	out := &repOut{
		setup:     timer.setup(t0),
		unitMs:    timer.ms(),
		attempted: len(ss),
		wall:      time.Since(t0),
	}
	parts := make([]string, 0, len(rep.Results))
	for _, r := range rep.Results {
		if !r.OK() {
			out.failed++
			out.findings = append(out.findings, fmt.Sprintf("%s: %d violation(s): %v", r.Spec.Name, len(r.Violations), r.Violations[0]))
		}
		parts = append(parts, fmt.Sprintf("%s %v %d %d", r.Spec.Name, r.OK(), r.States, r.Checked))
	}
	out.digest = digest(parts...)
	if e.tr != nil {
		out.layer = verifyLayer(rep, timer, runWall, e.workers)
	}
	return out, nil
}
