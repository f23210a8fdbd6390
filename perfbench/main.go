// Command perfbench is the repository's end-to-end benchmark: it drives
// one workload of verdict-producing work through the packages' public
// entry points for a fixed time, checks every verdict, and prints the
// metrics as one JSON object on the last line of standard output.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: faultcamp-sealed, soak and verify are the benchmark's (see
// BENCHMARK.json and perfbench/BASELINE.json for why each exists);
// faultcamp, the same campaign without journal, recording or telemetry,
// runs the same way but is left out of BENCHMARK.json: on a virtual
// machine its run-to-run spread follows the hypervisor CPU steal its
// own page churn induces (see BASELINE.json). Every workload runs with
// one worker per CPU, the oracle core and default runtime settings. A repetition is one whole campaign (or soak pass,
// or checker pass) generated from the seed; a run repeats it until the
// time is up, and a repetition whose verdict digest differs from the
// first one's fails all of its units.
//
// With --trace 0 the run prints the end-to-end metrics. With --trace 1
// it spends half the time untraced and half traced, then replays the
// first traced repetition's units through the layers' public calls, and
// prints the per-layer metrics with the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"ticktock/internal/faultinject"
)

type metricDef struct {
	Name string
	Unit string
}

var endToEnd = []metricDef{
	{"units_per_s", "1/s"},
	{"unit_p50_ms", "ms"},
	{"unit_tail_ms", "ms"},
	{"cpu_ms_per_unit", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"campaign.busy_frac", "frac"},
		{"campaign.gap_ms", "ms"},
		{"campaign.journal_bytes_per_unit", "bytes"},
		{"campaign.checkpoints", "count"},
		{"campaign.steals", "count"},
	}
	for _, k := range faultinject.Kinds() {
		defs = append(defs, metricDef{"faultinject.unit_ms." + k.String(), "ms"})
	}
	defs = append(defs, []metricDef{
		{"faultinject.applied_frac", "frac"},
		{"kernel.new_ms", "ms"},
		{"rvkernel.new_ms", "ms"},
		{"physmem.map_ms", "ms"},
		{"kernel.load_ms", "ms"},
		{"rvkernel.load_ms", "ms"},
		{"kernel.run_ms", "ms"},
		{"rvkernel.run_ms", "ms"},
		{"kernel.recheck_ms", "ms"},
		{"rvkernel.recheck_ms", "ms"},
		{"kernel.switches_per_run", "count"},
		{"kernel.syscalls_per_run", "count"},
		{"rvkernel.switches_per_run", "count"},
		{"armv7m.sim_mcycles_per_s", "Mcycles/s"},
		{"rv32.sim_mcycles_per_s", "Mcycles/s"},
		{"armv7m.sim_cycles_per_run", "cycles"},
		{"rv32.sim_cycles_per_run", "cycles"},
		{"replay.sim_cycles_per_rep", "cycles"},
		{"accessmap.builds_per_run.armv7m", "count"},
		{"accessmap.builds_per_run.riscv", "count"},
		{"blockcache.speedup.armv7m", "x"},
		{"blockcache.speedup.rv32", "x"},
		{"blockcache.hit_frac", "frac"},
		{"blockcache.oracle_fallback_frac", "frac"},
		{"blockcache.invalidations_per_run", "count"},
		{"flightrec.record_ms", "ms"},
		{"flightrec.bytes_per_unit", "bytes"},
		{"telemetry.scrape_ms", "ms"},
		{"runpack.seal_ms", "ms"},
		{"specs.build_ms", "ms"},
	}...)
	for _, s := range verifySuites {
		defs = append(defs, metricDef{"verify.suite_s." + s.name, "s"})
	}
	return append(defs, []metricDef{
		{"verify.states_per_s", "1/s"},
		{"verify.slowest_ms", "ms"},
		{"runtime.alloc_mb_per_unit", "MiB"},
		{"runtime.gc_cycles_per_unit", "count"},
		{"runtime.gc_cpu_frac", "frac"},
		{"trace.unattributed_frac", "frac"},
		{"trace.overhead_ratio", "ratio"},
	}...)
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "faultcamp", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for journals and packs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{seed: *seed, workers: runtime.NumCPU(), workdir: *workdir}
	budget := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "workload %s seed %d workers %d seconds %d trace %d\n", w.name, *seed, e.workers, *seconds, *traced)

	var res result
	var err error
	if *traced == 0 {
		res, err = runUntraced(w, e, budget, stdout)
	} else {
		res, err = runTraced(w, e, budget, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-36s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func fill(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{vals[d.Name], d.Unit}
	}
	return out
}

// phase is a stretch of repetitions measured together.
type phase struct {
	reps      []*repOut
	attempted int
	failed    int
	findings  []string
	rt        runtimeSample
}

type runtimeSample struct{ allocBytes, gcCycles, gcCPU, totalCPU float64 }

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs repetitions until the budget is spent (at least one),
// and gates every repetition's verdicts against the first one's.
func measure(w *workload, e *env, budget time.Duration) (*phase, error) {
	p := &phase{}
	mem := startMemSampler()
	defer mem.stop()
	rt0, t0 := readRuntime(), time.Now()
	for len(p.reps) == 0 || time.Since(t0) < budget {
		mem.takePeak()
		cpu0, r0 := cpuTime(), time.Now()
		r, err := w.rep(e)
		if err != nil {
			return nil, err
		}
		r.outerWall, r.cpu, r.peakMiB = time.Since(r0), cpuTime()-cpu0, mem.takePeak()
		p.gate(r)
	}
	rt1 := readRuntime()
	p.rt = runtimeSample{rt1.allocBytes - rt0.allocBytes, rt1.gcCycles - rt0.gcCycles, rt1.gcCPU - rt0.gcCPU, rt1.totalCPU - rt0.totalCPU}
	return p, nil
}

// memSampler tracks the peak of the memory the Go runtime holds from
// the OS (mapped minus released), which approximates the resident set.
// It samples every 5 ms so each repetition gets its own peak; the
// process-wide high-water mark would give one sample per run, set by
// whichever GC cycle happened to peak.
type memSampler struct {
	mu          sync.Mutex
	peak        float64
	stopc, done chan struct{}
}

var memNames = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func heldMiB() float64 {
	s := []metrics.Sample{{Name: memNames[0]}, {Name: memNames[1]}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

func startMemSampler() *memSampler {
	m := &memSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stopc:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	v := heldMiB()
	m.mu.Lock()
	if v > m.peak {
		m.peak = v
	}
	m.mu.Unlock()
}

// takePeak returns the peak since the last call and starts a new one.
func (m *memSampler) takePeak() float64 {
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peak
	m.peak = 0
	return p
}

func (m *memSampler) stop() {
	close(m.stopc)
	<-m.done
}

// gate adds a repetition to the phase. A repetition whose verdict
// digest differs from the first one's fails every one of its units.
func (p *phase) gate(r *repOut) {
	if len(p.reps) > 0 && r.digest != p.reps[0].digest {
		r.failed = r.attempted
		r.findings = append(r.findings, fmt.Sprintf("repetition %d: verdict digest %.12s differs from the first repetition's %.12s",
			len(p.reps), r.digest, p.reps[0].digest))
	}
	p.reps = append(p.reps, r)
	p.attempted += r.attempted
	p.failed += r.failed
	p.findings = append(p.findings, r.findings...)
}

// endToEnd derives the end-to-end metrics. Each is the median over the
// phase's repetitions of that repetition's own figure, so a burst of
// host noise moves one repetition, not the run.
func (p *phase) endToEnd(out io.Writer) map[string]float64 {
	// Every repetition of a workload times the same number of units, so
	// the percentile is fixed by the workload, not by the host's speed.
	pct := tailPercentile(len(p.reps[0].unitMs))
	var rate, p50, tail, cpu, mem, setup []float64
	n := 0
	for _, r := range p.reps {
		rate = append(rate, float64(r.attempted)/r.outerWall.Seconds())
		p50 = append(p50, median(r.unitMs))
		tail = append(tail, quantile(r.unitMs, pct))
		cpu = append(cpu, float64(r.cpu)/1e6/float64(r.attempted))
		mem = append(mem, r.peakMiB)
		setup = append(setup, r.setup.Seconds())
		n += len(r.unitMs)
	}
	fmt.Fprint(out, "units/s per repetition:")
	for _, r := range rate {
		fmt.Fprintf(out, " %.1f", r)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "repetitions %d, units %d attempted / %d failed (failed_frac %.6f), tail percentile p%g of n=%d timed units per repetition (%d in all)\n",
		len(p.reps), p.attempted, p.failed, float64(p.failed)/float64(p.attempted), pct, len(p.reps[0].unitMs), n)
	return map[string]float64{
		"units_per_s":     median(rate),
		"unit_p50_ms":     median(p50),
		"unit_tail_ms":    median(tail),
		"cpu_ms_per_unit": median(cpu),
		"peak_rss_mb":     median(mem),
		"setup_s":         median(setup),
	}
}

func printFindings(out io.Writer, findings []string) {
	for i, f := range findings {
		if i == 20 {
			fmt.Fprintf(out, "finding: ... %d more\n", len(findings)-i)
			break
		}
		fmt.Fprintln(out, "finding:", f)
	}
}

func runUntraced(w *workload, e *env, budget time.Duration, out io.Writer) (result, error) {
	p, err := measure(w, e, budget)
	if err != nil {
		return result{}, err
	}
	vals := p.endToEnd(out)
	printFindings(out, p.findings)
	return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: fill(endToEnd, vals)}, nil
}

func runTraced(w *workload, e *env, budget time.Duration, out io.Writer) (result, error) {
	un, err := measure(w, e, budget/2)
	if err != nil {
		return result{}, err
	}
	e.tr = newTracer()
	tp, err := measure(w, e, budget/2)
	if err != nil {
		return result{}, err
	}
	fmt.Fprint(out, "untraced: ")
	un.endToEnd(out)
	fmt.Fprint(out, "traced:   ")
	tp.endToEnd(out)

	first := tp.reps[0].layer
	var rr *replayResult
	switch w.name {
	case "faultcamp", "faultcamp-sealed":
		rr, err = replayScenarios(first, w.name == "faultcamp-sealed")
	case "soak":
		rr, err = replayMixes(first)
	case "verify":
		rr, err = replaySuites(first)
	}
	if err != nil {
		return result{}, err
	}
	vals := layerMetrics(un, tp, rr, e.tr)
	findings := append(un.findings, tp.findings...)
	for _, m := range rr.mismatches {
		findings = append(findings, "replay: "+m)
	}
	if v := rr.arm.violations + rr.rv.violations; v > 0 {
		findings = append(findings, fmt.Sprintf("replay: %d isolation violation(s) on uninjected boards", v))
	}
	if rr.simCycles > 0 {
		fmt.Fprintf(out, "simulated cycles of the replayed repetition: %.0f (arm %.0f, rv %.0f)\n", rr.simCycles, rr.arm.cycles, rr.rv.cycles)
	}
	printFindings(out, findings)
	failed := un.failed + tp.failed
	return result{
		Correct:   failed == 0 && len(findings) == 0,
		Attempted: un.attempted + tp.attempted,
		Failed:    failed,
		Metrics:   fill(perLayer, vals),
	}, nil
}

// layerMetrics derives the per-layer metrics: runtime series from the
// untraced phase, campaign and checker spans from the traced phase, and
// board, emulation, cache and recording figures from the replay. A
// layer the workload does not reach reads 0.
func layerMetrics(un, tp *phase, rr *replayResult, tr *tracer) map[string]float64 {
	v := map[string]float64{}
	var busy, gaps, slowest []float64
	kind := map[string][]float64{}
	var units, applied, journal, checkpoints, steals, states, checkWall float64
	for _, r := range tp.reps {
		l := r.layer
		busy = append(busy, l.busyFrac)
		gaps = append(gaps, l.gapsMs...)
		units += l.units
		applied += l.applied
		journal += l.journalBytes
		checkpoints += l.checkpoints
		steals += l.steals
		states += l.verifyStates
		checkWall += l.verifyWallS
		if l.verifyWallS > 0 {
			slowest = append(slowest, l.verifySlowest)
		}
		for k, ms := range l.kindMs {
			kind[k] = append(kind[k], ms...)
		}
	}
	reps := float64(len(tp.reps))
	v["campaign.busy_frac"] = median(busy)
	if len(gaps) > 0 {
		v["campaign.gap_ms"] = median(gaps)
	}
	v["campaign.journal_bytes_per_unit"] = ratio(journal, units)
	v["campaign.checkpoints"] = checkpoints / reps
	v["campaign.steals"] = steals / reps
	for k, ms := range kind {
		v["faultinject.unit_ms."+k] = median(ms)
	}
	if len(kind) > 0 {
		v["faultinject.applied_frac"] = applied / (2 * units)
	}

	a, r := &rr.arm, &rr.rv
	for name, xs := range map[string][]float64{
		"kernel.new_ms": a.newMs, "rvkernel.new_ms": r.newMs,
		"kernel.load_ms": a.loadMs, "rvkernel.load_ms": r.loadMs,
		"kernel.run_ms": a.runMs, "rvkernel.run_ms": r.runMs,
		"kernel.recheck_ms": a.recheckMs, "rvkernel.recheck_ms": r.recheckMs,
		"physmem.map_ms":      append(append([]float64(nil), a.mapMs...), r.mapMs...),
		"flightrec.record_ms": rr.recordMs,
		"telemetry.scrape_ms": tr.get("telemetry.scrape"),
		"runpack.seal_ms":     tr.get("runpack.seal"),
		"specs.build_ms":      tr.get("specs.build"),
	} {
		if len(xs) > 0 {
			v[name] = median(xs)
		}
	}
	v["kernel.switches_per_run"] = ratio(a.switches, a.boards)
	v["kernel.syscalls_per_run"] = ratio(a.syscalls, a.boards)
	v["rvkernel.switches_per_run"] = ratio(r.switches, r.boards)
	v["armv7m.sim_mcycles_per_s"] = ratio(a.cycles, a.oracleRunMs*1e3)
	v["rv32.sim_mcycles_per_s"] = ratio(r.cycles, r.oracleRunMs*1e3)
	v["armv7m.sim_cycles_per_run"] = ratio(a.cycles, a.boards)
	v["rv32.sim_cycles_per_run"] = ratio(r.cycles, r.boards)
	v["replay.sim_cycles_per_rep"] = rr.simCycles
	v["accessmap.builds_per_run.armv7m"] = ratio(a.mapBuilds, a.boards)
	v["accessmap.builds_per_run.riscv"] = ratio(r.mapBuilds, r.boards)
	v["blockcache.speedup.armv7m"] = ratio(a.oracleRunMs, a.fastRunMs)
	v["blockcache.speedup.rv32"] = ratio(r.oracleRunMs, r.fastRunMs)
	// Fractions of block lookups: served from the table, and the
	// instructions the fast core handed to the oracle Step instead.
	lookups := float64(a.fast.Hits + a.fast.Misses + r.fast.Hits + r.fast.Misses)
	v["blockcache.hit_frac"] = ratio(float64(a.fast.Hits+r.fast.Hits), lookups)
	v["blockcache.oracle_fallback_frac"] = ratio(float64(a.fast.SlowSteps+r.fast.SlowSteps), lookups)
	v["blockcache.invalidations_per_run"] = ratio(float64(a.fast.Flushes+a.fast.CoverRechecks+r.fast.Flushes+r.fast.CoverRechecks), a.boards+r.boards)
	v["flightrec.bytes_per_unit"] = ratio(rr.recordBytes, float64(len(rr.recordMs)))

	for _, s := range verifySuites {
		v["verify.suite_s."+s.name] = rr.suiteS[s.name]
	}
	v["verify.states_per_s"] = ratio(states, checkWall)
	if len(slowest) > 0 {
		v["verify.slowest_ms"] = median(slowest)
	}

	v["runtime.alloc_mb_per_unit"] = un.rt.allocBytes / (1 << 20) / float64(un.attempted)
	v["runtime.gc_cycles_per_unit"] = un.rt.gcCycles / float64(un.attempted)
	v["runtime.gc_cpu_frac"] = ratio(un.rt.gcCPU, un.rt.totalCPU)
	v["trace.unattributed_frac"] = 1 - ratio(rr.coveredMs, rr.unitMs)
	v["trace.overhead_ratio"] = tp.endToEnd(io.Discard)["units_per_s"] / un.endToEnd(io.Discard)["units_per_s"]
	return v
}
