package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ticktock/internal/apps"
	"ticktock/internal/blockcache"
	"ticktock/internal/campaign"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/kernel"
	"ticktock/internal/mpu"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
	"ticktock/internal/rvkernel"
	"ticktock/internal/specs"
	"ticktock/internal/telemetry"
	"ticktock/internal/verify"
)

// The traced run records spans from the benchmark's own code, around
// its calls into each layer's public functions; nothing inside the
// program is instrumented. A nil *tracer is the untraced run: every
// method runs the wrapped call and records nothing.

// tracer keeps span durations in memory, by span name, for the
// per-layer summary printed when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans map[string][]float64 // milliseconds
}

func newTracer() *tracer { return &tracer{spans: map[string][]float64{}} }

func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.add(name, time.Since(t0))
}

func (t *tracer) add(name string, d time.Duration) {
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], float64(d)/1e6)
	t.mu.Unlock()
}

func (t *tracer) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[name]
}

// workerObs is a campaign.Observer that notes which worker ran each
// unit and forwards every event to next (the telemetry plane, when the
// workload has one).
type workerObs struct {
	next   campaign.Observer
	mu     sync.Mutex
	worker map[int]int
}

func (t *tracer) observer(next campaign.Observer) *workerObs {
	if t == nil {
		return nil
	}
	return &workerObs{next: next, worker: map[int]int{}}
}

// orNil returns o as an Observer, or a nil interface for the untraced
// run (never a typed nil).
func (o *workerObs) orNil() campaign.Observer {
	if o == nil {
		return nil
	}
	return o
}

func (o *workerObs) orPlane(p *telemetry.Plane) campaign.Observer {
	if o == nil {
		return p
	}
	return o
}

func (o *workerObs) CampaignStart(kind string, units, workers, resumed int) {
	if o.next != nil {
		o.next.CampaignStart(kind, units, workers, resumed)
	}
}

func (o *workerObs) UnitStart(unit, worker int, stolen bool) {
	o.mu.Lock()
	o.worker[unit] = worker
	o.mu.Unlock()
	if o.next != nil {
		o.next.UnitStart(unit, worker, stolen)
	}
}

func (o *workerObs) AttemptStart(unit, worker, attempt int) {
	if o.next != nil {
		o.next.AttemptStart(unit, worker, attempt)
	}
}

func (o *workerObs) AttemptEnd(unit, worker, attempt int, failure string) {
	if o.next != nil {
		o.next.AttemptEnd(unit, worker, attempt, failure)
	}
}

func (o *workerObs) UnitBackoff(unit, worker, attempt int, delay time.Duration) {
	if o.next != nil {
		o.next.UnitBackoff(unit, worker, attempt, delay)
	}
}

func (o *workerObs) UnitDone(unit, worker int, status campaign.Status, attempts []campaign.Attempt) {
	if o.next != nil {
		o.next.UnitDone(unit, worker, status, attempts)
	}
}

func (o *workerObs) Checkpoint(completed uint64) {
	if o.next != nil {
		o.next.Checkpoint(completed)
	}
}

func (o *workerObs) CampaignEnd(stats campaign.Stats, interrupted bool) {
	if o.next != nil {
		o.next.CampaignEnd(stats, interrupted)
	}
}

// gaps returns, per worker, the time between a unit returning and the
// worker's next unit starting.
func (o *workerObs) gaps(t *unitTimer) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	last := map[int]int{} // worker -> previous unit
	order := make([]int, 0, len(t.start))
	for i := range t.start {
		if !t.end[i].IsZero() {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return t.start[order[a]].Before(t.start[order[b]]) })
	var out []float64
	for _, i := range order {
		w, ok := o.worker[i]
		if !ok {
			continue
		}
		if prev, ok := last[w]; ok {
			out = append(out, float64(t.start[i].Sub(t.end[prev]))/1e6)
		}
		last[w] = i
	}
	return out
}

// repLayer is what one traced repetition contributes to the per-layer
// metrics.
type repLayer struct {
	busyFrac     float64
	gapsMs       []float64
	steals       float64
	checkpoints  float64
	journalBytes float64
	units        float64
	kindMs       map[string][]float64
	applied      float64
	// Replay inputs: the repetition's scenarios or mixes, with each
	// unit's host time in the campaign.
	scenarios []faultinject.Scenario
	cfg       faultinject.Config
	mixes     []mix
	unitMs    []float64
	// verify
	verifyStates  float64
	verifyWallS   float64
	verifySlowest float64
	verifyUnitMs  float64
}

func busyFrac(t *unitTimer, workers int, wall time.Duration) float64 {
	return sum(t.ms()) / (float64(workers) * float64(wall) / 1e6)
}

func faultcampLayer(cfg faultinject.Config, rep *faultinject.Report, run *campaign.Run[faultinject.Result], t *unitTimer, obs *workerObs, wall time.Duration) *repLayer {
	l := &repLayer{
		busyFrac: busyFrac(t, cfg.Workers, wall),
		gapsMs:   obs.gaps(t),
		steals:   float64(run.Stats.Steals),
		units:    float64(len(rep.Results)),
		kindMs:   map[string][]float64{},
		cfg:      cfg,
		unitMs:   make([]float64, len(rep.Results)),
	}
	for i, res := range rep.Results {
		ms := float64(t.end[i].Sub(t.start[i])) / 1e6
		l.unitMs[i] = ms
		l.kindMs[res.Scenario.Kind.String()] = append(l.kindMs[res.Scenario.Kind.String()], ms)
		l.scenarios = append(l.scenarios, res.Scenario)
		for _, pr := range []faultinject.PortResult{res.ARM, res.RV} {
			if pr.Applied {
				l.applied++
			}
		}
	}
	return l
}

func soakLayer(mixes []mix, t *unitTimer, obs *workerObs, run *campaign.Run[struct{}], workers int, wall time.Duration) *repLayer {
	l := &repLayer{
		busyFrac: busyFrac(t, workers, wall),
		gapsMs:   obs.gaps(t),
		steals:   float64(run.Stats.Steals),
		units:    float64(len(mixes)),
		mixes:    mixes,
		unitMs:   make([]float64, len(mixes)),
	}
	for i := range mixes {
		l.unitMs[i] = float64(t.end[i].Sub(t.start[i])) / 1e6
	}
	return l
}

func verifyLayer(rep *verify.Report, t *unitTimer, runWall time.Duration, workers int) *repLayer {
	l := &repLayer{busyFrac: busyFrac(t, workers, runWall), units: float64(len(rep.Results))}
	for _, r := range rep.Results {
		l.verifyStates += float64(r.States)
		if ms := float64(r.Elapsed) / 1e6; ms > l.verifySlowest {
			l.verifySlowest = ms
		}
	}
	l.verifyWallS = runWall.Seconds()
	l.verifyUnitMs = sum(t.ms())
	return l
}

// board is one replayed kernel run: the host time of each public call
// and the exact counts the run leaves behind.
type board struct {
	newMs, loadMs, runMs, recheckMs float64
	switches, syscalls, cycles      uint64
	mapBuilds                       uint64
	violations                      int
	fast                            blockcache.Stats
	out                             string
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// replayARM builds, loads, runs and rechecks one ARM board through the
// kernel's public calls. The recheck is the campaign's isolation sweep:
// under every process's MPU configuration no byte of kernel RAM, nor on
// the granular flavour of any grant region, may be user-accessible.
func replayARM(appList []kernel.App, opts kernel.Options, quanta int) (board, error) {
	var b board
	opts.Hooks.SyscallRet = func(_ *kernel.Process, _ uint8, ret uint32) uint32 {
		b.syscalls++
		return ret
	}
	t := time.Now()
	k, err := kernel.New(opts)
	if err != nil {
		return b, err
	}
	b.newMs = msSince(t)
	t = time.Now()
	for _, app := range appList {
		if _, err := k.LoadProcess(app); err != nil {
			return b, err
		}
	}
	b.loadMs = msSince(t)
	t = time.Now()
	if _, err := k.Run(quanta); err != nil {
		return b, err
	}
	b.runMs = msSince(t)
	b.cycles = k.Board.Meter.Cycles()
	b.switches = k.Switches
	for _, p := range k.Procs {
		b.out += fmt.Sprintf("[%s] %s|%s ", p.Name, k.Output(p), p.State)
	}
	if fs := k.Board.Machine.FastStats(); fs != nil {
		b.fast = *fs
	}
	hw := k.Board.Machine.MPU
	kinds := []mpu.AccessKind{mpu.AccessRead, mpu.AccessWrite}
	t = time.Now()
	for _, p := range k.Procs {
		if err := p.MM.ConfigureMPU(); err != nil {
			continue
		}
		for _, kind := range kinds {
			if hw.AnyAccessibleUser(kernel.KernelDataBase, kernel.KernelRAMSize, kind) {
				b.violations++
			}
		}
		if opts.Flavour == kernel.FlavourTickTock {
			for _, q := range k.Procs {
				l := q.MM.Layout()
				if l.GrantSize() == 0 {
					continue
				}
				for _, kind := range kinds {
					if hw.AnyAccessibleUser(l.KernelBreak, l.MemoryEnd()-l.KernelBreak, kind) {
						b.violations++
					}
				}
			}
		}
		p.MM.DisableMPU()
	}
	b.recheckMs = msSince(t)
	b.mapBuilds = hw.MapBuilds
	return b, nil
}

// rvSupervision configures an RV kernel the way an ARM one is
// configured through kernel.Options.
type rvSupervision struct {
	policy      rvkernel.FaultPolicy
	maxRestarts int
	watchdog    int
	backoffBase uint64
}

// replayRV is replayARM for the RISC-V port, whose sweep also requires
// every other process's memory to stay user-inaccessible.
func replayRV(appList []rvkernel.App, chip riscv.ChipConfig, sup rvSupervision, fast bool, quanta int) (board, error) {
	var b board
	t := time.Now()
	k, err := rvkernel.New(chip)
	if err != nil {
		return b, err
	}
	b.newMs = msSince(t)
	k.SetFastCore(fast)
	k.FaultPolicy, k.MaxRestarts, k.Watchdog, k.BackoffBase = sup.policy, sup.maxRestarts, sup.watchdog, sup.backoffBase
	k.Hooks.SyscallRet = func(_ *rvkernel.Process, _ uint32, ret uint32) uint32 {
		b.syscalls++
		return ret
	}
	t = time.Now()
	for _, app := range appList {
		if _, err := k.LoadProcess(app); err != nil {
			return b, err
		}
	}
	b.loadMs = msSince(t)
	t = time.Now()
	if _, err := k.Run(quanta); err != nil {
		return b, err
	}
	b.runMs = msSince(t)
	b.cycles = k.Machine.Meter.Cycles()
	b.switches = k.Switches()
	for _, p := range k.Procs {
		b.out += fmt.Sprintf("[%s] %s|%s ", p.Name, k.Output(p), p.State)
	}
	if fs := k.Machine.FastStats(); fs != nil {
		b.fast = *fs
	}
	pmp := k.Machine.PMP
	kinds := []mpu.AccessKind{mpu.AccessRead, mpu.AccessWrite}
	t = time.Now()
	for _, p := range k.Procs {
		if err := p.Alloc.ConfigureMPU(); err != nil {
			continue
		}
		for _, kind := range kinds {
			if pmp.AnyAccessibleUser(rvkernel.KernelDataBase, rvkernel.KernelRAMSize, kind) {
				b.violations++
			}
		}
		for _, q := range k.Procs {
			br := q.Alloc.Breaks()
			for _, kind := range kinds {
				if pmp.AnyAccessibleUser(br.KernelBreak(), br.MemoryEnd()-br.KernelBreak(), kind) {
					b.violations++
				}
				if q != p && pmp.AnyAccessibleUser(br.MemoryStart(), br.AppBreak()-br.MemoryStart(), kind) {
					b.violations++
				}
			}
		}
		p.Alloc.DisableMPU()
	}
	b.recheckMs = msSince(t)
	b.mapBuilds = pmp.MapBuilds
	return b, nil
}

// mapMs times physmem.Memory.Map directly at a board's flash and RAM
// sizes: the zeroing every board construction pays.
func mapMs(flashBase, flashSize, ramBase, ramSize uint32) (float64, error) {
	t := time.Now()
	m := physmem.NewMemory()
	if _, err := m.Map("flash", flashBase, flashSize); err != nil {
		return 0, err
	}
	if _, err := m.Map("ram", ramBase, ramSize); err != nil {
		return 0, err
	}
	return msSince(t), nil
}

// portReplay accumulates the replayed boards of one port.
type portReplay struct {
	newMs, loadMs, runMs, recheckMs, mapMs []float64
	fastRunMs                              float64
	oracleRunMs                            float64
	switches, syscalls, cycles, mapBuilds  float64
	fast                                   blockcache.Stats
	boards                                 float64
	violations                             int
}

func (p *portReplay) add(oracle, fast board, mapped float64) {
	p.newMs = append(p.newMs, oracle.newMs)
	p.loadMs = append(p.loadMs, oracle.loadMs)
	p.runMs = append(p.runMs, oracle.runMs)
	p.recheckMs = append(p.recheckMs, oracle.recheckMs)
	p.mapMs = append(p.mapMs, mapped)
	p.oracleRunMs += oracle.runMs
	p.fastRunMs += fast.runMs
	p.switches += float64(oracle.switches)
	p.syscalls += float64(oracle.syscalls)
	p.cycles += float64(oracle.cycles)
	p.mapBuilds += float64(oracle.mapBuilds)
	p.fast.Hits += fast.fast.Hits
	p.fast.Misses += fast.fast.Misses
	p.fast.Flushes += fast.fast.Flushes
	p.fast.CoverRechecks += fast.fast.CoverRechecks
	p.fast.SlowSteps += fast.fast.SlowSteps
	p.boards++
	p.violations += oracle.violations + fast.violations
}

// replayResult is the replay of one traced repetition.
type replayResult struct {
	arm, rv     portReplay
	coveredMs   float64 // layer-call time standing for the units' work
	unitMs      float64 // the same units' host time in the campaign
	recordMs    []float64
	recordBytes float64
	simCycles   float64 // every replayed board, both ports
	mismatches  []string
	suiteS      map[string]float64
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// replayScenarios replays each scenario's uninjected run pair with the
// campaign's supervision defaults, on the oracle core and again on the
// fast core, and records its injected pair with faultinject.RecordRuns.
//
// Unit time is covered as follows. A faultcamp unit runs each port
// twice (baseline and injected) with the same build, load and run
// calls, then rechecks the injected run once, so each replayed
// new+load+run counts twice and the recheck once. A sealed unit records
// its injected pair instead, which RecordRuns replays directly.
func replayScenarios(l *repLayer, sealed bool) (*replayResult, error) {
	armCases := map[string]apps.TestCase{}
	for _, tc := range apps.All() {
		armCases[tc.Name] = tc
	}
	rvApps := map[string]rvkernel.App{}
	for _, app := range rvkernel.ReleaseSubset() {
		rvApps[app.Name] = app
	}
	cfg := l.cfg
	const maxRestarts, watchdog, backoffBase = 2, 3, 512 // faultinject's supervision defaults
	r := &replayResult{}
	for i, sc := range l.scenarios {
		tc := armCases[sc.App]
		opts := kernel.Options{Flavour: kernel.FlavourTickTock, FaultPolicy: kernel.PolicyRestart,
			MaxRestarts: maxRestarts, Watchdog: watchdog, BackoffBase: backoffBase}
		if sc.Monolithic {
			opts.Flavour = kernel.FlavourTock
		}
		if sc.Quarantine {
			opts.FaultPolicy = kernel.PolicyQuarantine
		}
		quanta := tc.Quanta
		if quanta == 0 {
			quanta = difftest.DefaultQuanta
		}
		armO, err := replayARM(tc.Apps, opts, quanta)
		if err != nil {
			return nil, fmt.Errorf("replay %s arm: %w", sc.Label(), err)
		}
		opts.FastCore = true
		armF, err := replayARM(tc.Apps, opts, quanta)
		if err != nil {
			return nil, fmt.Errorf("replay %s arm fast: %w", sc.Label(), err)
		}
		armMap, err := mapMs(kernel.FlashBase, kernel.FlashSize, kernel.RAMBase, kernel.RAMSize)
		if err != nil {
			return nil, err
		}
		r.arm.add(armO, armF, armMap)

		chip := riscv.Chips[sc.Chip%len(riscv.Chips)]
		sup := rvSupervision{rvkernel.PolicyRestart, maxRestarts, watchdog, backoffBase}
		if sc.Quarantine {
			sup.policy = rvkernel.PolicyQuarantine
		}
		rvQuanta := 2000
		if sc.App == "whileone" {
			rvQuanta = 30
		}
		app := []rvkernel.App{rvApps[sc.App]}
		rvO, err := replayRV(app, chip, sup, false, rvQuanta)
		if err != nil {
			return nil, fmt.Errorf("replay %s rv: %w", sc.Label(), err)
		}
		rvF, err := replayRV(app, chip, sup, true, rvQuanta)
		if err != nil {
			return nil, fmt.Errorf("replay %s rv fast: %w", sc.Label(), err)
		}
		rvMap, err := mapMs(rvkernel.FlashBase, rvkernel.FlashSize, rvkernel.RAMBase, rvkernel.RAMSize)
		if err != nil {
			return nil, err
		}
		r.rv.add(rvO, rvF, rvMap)
		checkCores(r, sc.Label(), armO, armF, rvO, rvF)

		t := time.Now()
		armRec, rvRec, err := faultinject.RecordRuns(sc, cfg, true)
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", sc.Label(), err)
		}
		recMs := msSince(t)
		r.recordMs = append(r.recordMs, recMs)
		var cw countWriter
		if err := armRec.Encode(&cw); err != nil {
			return nil, err
		}
		if err := rvRec.Encode(&cw); err != nil {
			return nil, err
		}
		r.recordBytes += float64(cw.n)

		runs := armO.newMs + armO.loadMs + armO.runMs + rvO.newMs + rvO.loadMs + rvO.runMs
		rechecks := armO.recheckMs + rvO.recheckMs
		if sealed {
			r.coveredMs += runs + recMs + rechecks
		} else {
			r.coveredMs += 2*runs + rechecks
		}
		r.unitMs += l.unitMs[i]
		r.simCycles += float64(armO.cycles + rvO.cycles)
	}
	return r, nil
}

// checkCores notes a replayed board whose fast-core run left different
// outputs or simulated cycles than its oracle run.
func checkCores(r *replayResult, label string, armO, armF, rvO, rvF board) {
	if armO.out != armF.out || armO.cycles != armF.cycles {
		r.mismatches = append(r.mismatches, label+": arm fast core differs from oracle")
	}
	if rvO.out != rvF.out || rvO.cycles != rvF.cycles {
		r.mismatches = append(r.mismatches, label+": rv fast core differs from oracle")
	}
}

// replayMixes replays each soak board through the kernels' public calls
// on both cores: an ARM mix on both flavours, an RV mix on its chip.
func replayMixes(l *repLayer) (*replayResult, error) {
	r := &replayResult{}
	for i, m := range l.mixes {
		covered := 0.0
		if m.arm != nil {
			for _, fl := range []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock} {
				o, err := replayARM(m.arm.Apps, kernel.Options{Flavour: fl}, soakQuanta)
				if err != nil {
					return nil, fmt.Errorf("replay %s %s: %w", m.name, fl, err)
				}
				f, err := replayARM(m.arm.Apps, kernel.Options{Flavour: fl, FastCore: true}, soakQuanta)
				if err != nil {
					return nil, fmt.Errorf("replay %s %s fast: %w", m.name, fl, err)
				}
				mapped, err := mapMs(kernel.FlashBase, kernel.FlashSize, kernel.RAMBase, kernel.RAMSize)
				if err != nil {
					return nil, err
				}
				r.arm.add(o, f, mapped)
				checkCores(r, m.name, o, f, board{}, board{})
				covered += o.newMs + o.loadMs + o.runMs
				r.simCycles += float64(o.cycles)
			}
		} else {
			o, err := replayRV(m.rv, m.chip, rvSupervision{}, false, soakQuanta)
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", m.name, err)
			}
			f, err := replayRV(m.rv, m.chip, rvSupervision{}, true, soakQuanta)
			if err != nil {
				return nil, fmt.Errorf("replay %s fast: %w", m.name, err)
			}
			mapped, err := mapMs(rvkernel.FlashBase, rvkernel.FlashSize, rvkernel.RAMBase, rvkernel.RAMSize)
			if err != nil {
				return nil, err
			}
			r.rv.add(o, f, mapped)
			checkCores(r, m.name, board{}, board{}, o, f)
			covered += o.newMs + o.loadMs + o.runMs
			r.simCycles += float64(o.cycles)
		}
		r.coveredMs += covered
		r.unitMs += l.unitMs[i]
	}
	return r, nil
}

// verifySuites names the registries specs.BuildAll merges, in order.
var verifySuites = []struct {
	name  string
	build func(specs.Scale) *verify.Registry
}{
	{"granular", specs.BuildGranular},
	{"monolithic", specs.BuildMonolithic},
	{"interrupts", specs.BuildInterrupts},
	{"endtoend", specs.BuildEndToEnd},
	{"supervision", specs.BuildSupervision},
	{"accessmap", specs.BuildAccessMap},
	{"blockcache", specs.BuildBlockCache},
	{"campaign", specs.BuildCampaign},
}

// replaySuites checks each suite's registry alone, on one worker, and
// times the call; together they cover the checker's unit time.
func replaySuites(l *repLayer) (*replayResult, error) {
	r := &replayResult{suiteS: map[string]float64{}}
	for _, s := range verifySuites {
		reg := s.build(specs.PaperScale)
		t := time.Now()
		rep := reg.RunWith(verify.RunOpts{Workers: 1})
		d := time.Since(t)
		if !rep.OK() {
			return nil, fmt.Errorf("suite %s: %d obligation(s) failed on replay", s.name, len(rep.Failed()))
		}
		r.suiteS[s.name] = d.Seconds()
		r.coveredMs += float64(d) / 1e6
	}
	r.unitMs = l.verifyUnitMs
	return r, nil
}
