package kernel

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"ticktock/internal/armv7m"
	"ticktock/internal/cycles"
	"ticktock/internal/flightrec"
	"ticktock/internal/metrics"
	"ticktock/internal/monolithic"
	"ticktock/internal/tbf"
	"ticktock/internal/trace"
)

// Flavour selects which memory-management implementation backs the kernel.
type Flavour uint8

// Kernel flavours.
const (
	// FlavourTickTock uses the verified granular abstraction.
	FlavourTickTock Flavour = iota
	// FlavourTock uses the monolithic baseline (optionally with bugs).
	FlavourTock
)

// String implements fmt.Stringer.
func (f Flavour) String() string {
	if f == FlavourTock {
		return "tock"
	}
	return "ticktock"
}

// FaultPolicy decides what happens to a faulting process (Tock's
// ProcessFaultPolicy).
type FaultPolicy uint8

// Fault policies.
const (
	// PolicyStop terminates the faulting process (the default).
	PolicyStop FaultPolicy = iota
	// PolicyRestart resets the process and restarts it from its entry
	// point, up to MaxRestarts times.
	PolicyRestart
	// PolicyQuarantine restarts like PolicyRestart, but when the restart
	// budget is exhausted the process is quarantined instead of left
	// faulted: a distinct terminal state the kernel reports while it
	// keeps serving every other process (graceful degradation).
	PolicyQuarantine
)

// Scheduler selects the scheduling discipline, mirroring Tock's
// pluggable schedulers.
type Scheduler uint8

// Scheduler disciplines.
const (
	// SchedRoundRobin preempts on SysTick and rotates (the default).
	SchedRoundRobin Scheduler = iota
	// SchedCooperative never arms the timer: processes run until they
	// yield, block or exit.
	SchedCooperative
	// SchedPriority always runs the lowest-ID runnable process
	// (load order is priority order), preempting with SysTick.
	SchedPriority
)

// String implements fmt.Stringer.
func (s Scheduler) String() string {
	switch s {
	case SchedCooperative:
		return "cooperative"
	case SchedPriority:
		return "priority"
	default:
		return "round-robin"
	}
}

// Options configures a kernel build.
type Options struct {
	Flavour Flavour
	// Scheduler selects the scheduling discipline.
	Scheduler Scheduler
	// FaultPolicy selects the response to process faults.
	FaultPolicy FaultPolicy
	// MaxRestarts bounds PolicyRestart and PolicyQuarantine (0 means 3,
	// Tock's default).
	MaxRestarts int
	// BackoffBase, when non-zero, delays every policy-initiated restart
	// by BackoffBase << (restarts-1) cycles — exponential backoff, so a
	// persistently-crashing process consumes geometrically less of the
	// board. Zero restarts immediately (the historical behaviour).
	BackoffBase uint64
	// Watchdog, when non-zero, is the number of consecutive
	// full-timeslice preemptions (no intervening syscall) after which
	// the kernel declares a process runaway and faults it — the software
	// watchdog. Zero disables the watchdog.
	Watchdog int
	// Hooks are the kernel-side fault-injection points (normally zero;
	// the campaign engine installs them).
	Hooks FaultHooks
	// Bugs enables the faithful bug reproductions (monolithic flavour
	// only, except MissedModeSwitch which lives in the shared
	// context-switch path).
	Bugs monolithic.BugSet
	// Timeslice is the SysTick reload per scheduling quantum.
	Timeslice uint32
	// Padding forwards to the granular allocator (§6.2 padded config).
	Padding uint32
	// Trace, when non-nil, receives kernel events (syscalls, context
	// switches, exceptions, faults, ...). Tracing observes the cycle
	// meter but never charges it, so traced runs report the same
	// Figure 11/12 numbers as untraced ones.
	Trace *trace.Tracer
	// Metrics, when non-nil, receives kernel metrics: per-class syscall
	// counters and cycle histograms, context-switch/fault/restart
	// counters, per-method cycle histograms, machine-level instruction
	// and exception counts, and the folded-stack cycle profile
	// (Kernel.Profile). Like tracing, metrics observe the cycle meter
	// but never charge it — a metered run is cycle-identical to an
	// unmetered one.
	Metrics *metrics.Registry
	// FlightRec, when non-nil, records one full machine snapshot per
	// scheduling quantum (CPU, MPU, SysTick, process table, dirty RAM
	// pages) interleaved with the trace stream, for deterministic
	// replay and divergence bisection. Like tracing and metrics, the
	// recorder observes the cycle meter but never charges it.
	FlightRec *flightrec.Recorder
	// FastCore is ignored: every kernel boots on the machine's
	// block-cache fast core. Run on the byte-scan oracle core with
	// k.Board.Machine.SetFastCore(false) after New.
	//
	// Deprecated: the fast core is always on; the field is kept only
	// for existing callers and will be removed.
	FastCore bool
}

// DefaultTimeslice matches a 10 ms quantum at the modelled clock.
const DefaultTimeslice = 10000

// FaultHooks are the kernel-side fault-injection points. Both fields are
// optional: a nil hook costs one pointer check and zero simulated cycles,
// so hook-free kernels are cycle-identical to pre-hook builds. Hooks
// observe and rewrite values but must not touch kernel state — the model
// is corruption on the trap path (a flipped stacked register), not a
// misbehaving kernel.
type FaultHooks struct {
	// SyscallArgs may rewrite the four stacked argument registers of a
	// syscall before dispatch.
	SyscallArgs func(p *Process, svcNum uint8, args [4]uint32) [4]uint32
	// SyscallRet may rewrite the return value before it is written to
	// the stacked r0.
	SyscallRet func(p *Process, svcNum uint8, ret uint32) uint32
	// QuantumStart fires after a context switch completes (MPU
	// programmed, SysTick armed), immediately before user code runs —
	// the injection point for upsets that strike hardware state while
	// user code owns the pipeline.
	QuantumStart func(p *Process)
}

// App describes an application to load: its metadata and a builder that
// assembles the program at its final flash address.
type App struct {
	Name       string
	MinRAM     uint32 // declared total RAM need
	InitRAM    uint32 // initially-accessible RAM (stack + data + heap)
	Stack      uint32 // portion of InitRAM that is stack
	KernelHint uint32 // grant-region size hint
	// Build assembles the program with its code based at codeBase.
	Build func(codeBase uint32) *armv7m.Program
}

// Kernel is the operating system instance: board, processes, scheduler
// state and instrumentation.
type Kernel struct {
	Board *Board
	Opts  Options
	Procs []*Process
	Stats *Stats

	// poolCursor tracks unallocated process RAM.
	poolCursor uint32

	// LEDs is the simulated LED bank state.
	LEDs [4]bool

	// Switches counts completed context switches.
	Switches uint64

	// SyscallErrors counts syscalls that returned an error code — the
	// kernel's first line of defence against corrupted arguments, and
	// the signal the fault campaign reads to classify argument
	// corruption as detected.
	SyscallErrors uint64

	// Faults counts every process fault delivered to faultProcess,
	// whatever the policy decided afterwards.
	Faults uint64

	// WatchdogFires counts software-watchdog activations; Quarantines
	// counts processes placed in StateQuarantined.
	WatchdogFires uint64
	Quarantines   uint64

	// output accumulates per-process console output.
	output map[int][]byte

	// ipcSeq orders cross-process copies for determinism.
	ipcSeq int

	// tracer, when non-nil, records kernel events (Options.Trace).
	tracer *trace.Tracer

	// rec, when non-nil, is the attached flight recorder
	// (Options.FlightRec); RunOnce checkpoints it once per quantum.
	rec *flightrec.Recorder

	// Metrics is the attached registry (Options.Metrics; nil when
	// metrics are disabled). A single kernel runs single-threaded, so
	// the cached instrument handles below need no locking; the registry
	// itself is goroutine-safe and may be shared across campaign
	// kernels.
	Metrics *metrics.Registry

	// prof attributes every simulated cycle to a folded stack
	// (flavour;process;window). Non-nil exactly when Metrics is.
	prof        *metrics.Profile
	flavourName string
	mSyscalls   [8]*metrics.Counter
	mSyscallCyc [8]*metrics.Histogram
	mSwitches   *metrics.Counter
	mFaults     *metrics.Counter
	mRestarts   *metrics.Counter
	mWatchdog   *metrics.Counter
	mQuarantine *metrics.Counter
	mMPU        *metrics.Histogram
	methodHist  map[string]*metrics.Histogram
}

// New boots a kernel on a fresh board, on the machine's block-cache fast
// core.
func New(opts Options) (*Kernel, error) {
	b, err := NewBoard()
	if err != nil {
		return nil, err
	}
	if opts.Timeslice == 0 {
		opts.Timeslice = DefaultTimeslice
	}
	// The block-cache fast core is observably identical to the oracle
	// Step core (the core-oracle difftests and the internal/specs
	// block-cache obligations pin it); only speed differs.
	b.Machine.SetFastCore(true)
	k := &Kernel{
		Board:      b,
		Opts:       opts,
		Stats:      NewStats(),
		poolCursor: ProcessPoolBase,
		output:     make(map[int][]byte),
		tracer:     opts.Trace,
	}
	if opts.Metrics != nil {
		k.Metrics = opts.Metrics
		k.prof = metrics.NewProfile()
		k.flavourName = opts.Flavour.String()
		fl := metrics.L("flavour", k.flavourName)
		for i := range k.mSyscalls {
			cl := metrics.L("class", SVCName(uint8(i)))
			k.mSyscalls[i] = opts.Metrics.Counter("ticktock_syscalls_total", fl, cl)
			k.mSyscallCyc[i] = opts.Metrics.Histogram("ticktock_syscall_cycles", fl, cl)
		}
		k.mSwitches = opts.Metrics.Counter("ticktock_context_switches_total", fl)
		k.mFaults = opts.Metrics.Counter("ticktock_faults_total", fl)
		k.mRestarts = opts.Metrics.Counter("ticktock_restarts_total", fl)
		k.mWatchdog = opts.Metrics.Counter("ticktock_watchdog_fires_total", fl)
		k.mQuarantine = opts.Metrics.Counter("ticktock_quarantines_total", fl)
		k.mMPU = opts.Metrics.Histogram("ticktock_mpu_reconfigure_cycles", fl)
		k.methodHist = make(map[string]*metrics.Histogram)
		b.Machine.AttachMetrics(opts.Metrics, fl)
	}
	if k.tracer != nil {
		k.tracer.AttachMetrics(opts.Metrics)
		m := b.Machine
		m.OnException = func(excNum uint32, entry bool) {
			kind := trace.KindExceptionEntry
			if !entry {
				kind = trace.KindExceptionReturn
			}
			k.tracer.Emit(trace.Event{
				Cycle: m.Meter.Cycles(),
				Kind:  kind,
				Proc:  trace.KernelProc,
				A:     uint64(excNum),
			})
		}
	}
	if opts.FlightRec != nil {
		// Attach before any LoadProcess so flash images and initial RAM
		// writes land in the dirty-page picture.
		k.rec = opts.FlightRec
		k.rec.AttachMemory(b.Machine.Mem)
		k.rec.AttachTracer(opts.Trace)
	}
	return k, nil
}

// Tracer returns the attached event tracer (nil when tracing is off).
func (k *Kernel) Tracer() *trace.Tracer { return k.tracer }

// emit records a trace event attributed to p (or the kernel when p is
// nil). It is a no-op without an attached tracer and never touches the
// cycle meter.
func (k *Kernel) emit(kind trace.Kind, p *Process, a, b uint64, label string) {
	if k.tracer == nil {
		return
	}
	ev := trace.Event{
		Cycle: k.Meter().Cycles(),
		Kind:  kind,
		Proc:  trace.KernelProc,
		A:     a,
		B:     b,
		Label: label,
	}
	if p != nil {
		ev.Proc, ev.Name = p.ID, p.Name
	}
	k.tracer.Emit(ev)
}

// Meter returns the board cycle meter.
func (k *Kernel) Meter() *cycles.Meter { return k.Board.Meter }

// instrument measures the meter delta of f under the method name.
func (k *Kernel) instrument(method string, f func() error) error {
	start := k.Meter().Cycles()
	err := f()
	d := k.Meter().Cycles() - start
	k.Stats.Record(method, d)
	if k.Metrics != nil {
		h := k.methodHist[method]
		if h == nil {
			h = k.Metrics.Histogram("ticktock_method_cycles",
				metrics.L("flavour", k.flavourName), metrics.L("method", method))
			k.methodHist[method] = h
		}
		h.Observe(d)
	}
	return err
}

// attr charges the cycles elapsed since start to a folded-stack window
// under the process (or the kernel when p is nil). The windows in
// RunOnce and LoadProcess are disjoint and cover every cycle-charging
// path, so Profile can close the books with a single residue sample.
func (k *Kernel) attr(start uint64, p *Process, window string) {
	if k.prof == nil {
		return
	}
	d := k.Meter().Cycles() - start
	if d == 0 {
		return
	}
	name := "kernel"
	if p != nil {
		name = p.Name
	}
	k.prof.Add(d, k.flavourName, name, window)
}

// Profile returns a copy of the folded-stack cycle profile with the
// still-unattributed residue (cycles charged outside the instrumented
// windows, e.g. by direct driver calls in tests) booked under
// `flavour;kernel;unattributed`, so that the profile's Total always
// equals the machine's cycle meter. Returns nil when metrics are off.
func (k *Kernel) Profile() *metrics.Profile {
	if k.prof == nil {
		return nil
	}
	out := metrics.NewProfile()
	out.Merge(k.prof)
	if total, attributed := k.Meter().Cycles(), out.Total(); attributed < total {
		out.Add(total-attributed, k.flavourName, "kernel", "unattributed")
	}
	return out
}

// PublishMetrics copies end-of-run aggregates into the attached
// registry: the Figure 11 per-method call/cycle totals (as
// ticktock_method_calls_total / ticktock_method_cycles_total) and the
// context-switch count already stream live. Call it once when the run
// being exported is complete; no-op without metrics.
func (k *Kernel) PublishMetrics() {
	if k.Metrics == nil {
		return
	}
	k.Stats.Publish(k.Metrics, k.flavourName)
	k.PublishCoreStats()
}

// PublishCoreStats books the block-cache fast-core counters
// (blockcache_*_total, flavour-labelled) into the attached registry.
// No-op without metrics or with the fast core disabled; call once per
// completed run — the fast core's hot path never sees the registry.
func (k *Kernel) PublishCoreStats() {
	if k.Metrics == nil {
		return
	}
	k.Board.Machine.FastStats().Publish(k.Metrics, metrics.L("flavour", k.flavourName))
}

// newMM builds the flavour-appropriate memory manager.
func (k *Kernel) newMM() MemoryManager {
	if k.Opts.Flavour == FlavourTock {
		return NewMonolithicMM(k.Board.Machine.MPU, k.Meter(), k.Opts.Bugs)
	}
	return NewGranularMM(k.Board.Machine.MPU, k.Meter(), k.Opts.Padding)
}

// LoadProcess loads an application: writes its TBF image into a flash
// slot, registers the program, allocates and zeroes its memory block, and
// builds the initial stack frame. This is the instrumented `create` path
// of Figure 11.
func (k *Kernel) LoadProcess(app App) (*Process, error) {
	var proc *Process
	t0 := k.Meter().Cycles()
	defer func() { k.attr(t0, nil, "create") }()
	err := k.instrument("create", func() error {
		// Size the image: assemble once at a probe base to count
		// instructions (branch targets are absolute, so the final
		// program must be rebuilt at its real base).
		probe := app.Build(0)
		codeBytes := uint32(4 * len(probe.Instrs))
		// One extra slot word holds the injected upcall-return stub.
		imageSize := uint32(tbf.HeaderSize) + codeBytes + 4

		slotBase, slotSize, err := k.Board.AllocFlashSlot(imageSize)
		if err != nil {
			return err
		}
		hdr := &tbf.Header{
			TotalSize:   slotSize,
			EntryOffset: tbf.HeaderSize,
			MinRAMSize:  app.MinRAM,
			InitRAMSize: app.InitRAM,
			StackSize:   app.Stack,
			KernelHint:  app.KernelHint,
			Name:        app.Name,
		}
		raw, err := hdr.Encode()
		if err != nil {
			return err
		}
		if err := k.Board.WriteFlash(slotBase, raw); err != nil {
			return err
		}
		k.Meter().Add(uint64(len(raw)) / 4 * cycles.Store)

		// The loader re-parses the header from flash, as Tock does.
		flashBytes, err := k.Board.Machine.Mem.ReadBytes(slotBase, uint32(tbf.HeaderSize))
		if err != nil {
			return err
		}
		parsed, err := tbf.Parse(flashBytes)
		if err != nil {
			return err
		}
		k.Meter().Add(uint64(tbf.HeaderSize) / 4 * cycles.Load)

		codeBase := slotBase + parsed.EntryOffset
		prog := app.Build(codeBase)
		if err := k.Board.Machine.LoadProgram(prog); err != nil {
			return err
		}
		// Inject the upcall-return stub right after the program: upcall
		// frames point LR here so a returning callback traps back into
		// the kernel (crt0 provides this in real Tock userland).
		stub := &armv7m.Program{Base: prog.End(), Instrs: []armv7m.Instr{armv7m.SVC{Imm: SVCUpcallDone}}}
		if stub.End() > slotBase+slotSize {
			return fmt.Errorf("kernel: no room for upcall stub in %s's flash slot", app.Name)
		}
		if err := k.Board.Machine.LoadProgram(stub); err != nil {
			return err
		}

		mm := k.newMM()
		poolLeft := ProcessPoolBase + ProcessPoolSize - k.poolCursor
		if err := mm.Allocate(k.poolCursor, poolLeft, parsed.MinRAMSize, parsed.InitRAMSize, parsed.KernelHint, slotBase, slotSize); err != nil {
			return fmt.Errorf("kernel: loading %s: %w", app.Name, err)
		}
		layout := mm.Layout()
		k.poolCursor = (layout.MemoryEnd() + 7) &^ 7

		// Zero the memory the process and kernel will actually use —
		// the accessible span and the grant region — charging the
		// per-word store cost, the bulk of process creation time. (The
		// gap between them is unreachable until a brk extends into it,
		// at which point it is already zero-backed RAM.)
		zeroed := uint32(0)
		for _, span := range [][2]uint32{
			{layout.MemoryStart, layout.AppBreak},
			{layout.KernelBreak, layout.MemoryEnd()},
		} {
			for addr := span[0]; addr < span[1]; addr += 4 {
				if err := k.Board.Machine.Mem.WriteWord(addr, 0); err != nil {
					return err
				}
				zeroed += 4
			}
		}
		k.Meter().Add(uint64(zeroed) / 4 * cycles.Store)

		proc = &Process{
			ID:           len(k.Procs),
			Name:         parsed.Name,
			State:        StateReady,
			MM:           mm,
			Entry:        codeBase,
			AllowedRO:    make(map[uint32]Buffer),
			AllowedRW:    make(map[uint32]Buffer),
			Upcalls:      make(map[uint32]Upcall),
			initialBreak: layout.AppBreak,
			stackSize:    parsed.StackSize,
			upcallStub:   stub.Base,
		}
		stackTop := layout.MemoryStart + parsed.StackSize
		if parsed.StackSize == 0 || stackTop > layout.AppBreak {
			stackTop = layout.AppBreak
		}
		if err := proc.buildInitialFrame(k.Board.Machine, stackTop); err != nil {
			return err
		}
		k.Procs = append(k.Procs, proc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return proc, nil
}

// Output returns the accumulated console output of a process.
func (k *Kernel) Output(p *Process) string { return string(k.output[p.ID]) }

// appendOutput adds console bytes for a process.
func (k *Kernel) appendOutput(p *Process, s string) {
	k.output[p.ID] = append(k.output[p.ID], s...)
}

// schedule returns the next runnable process round-robin, or nil.
func (k *Kernel) schedule() *Process {
	if len(k.Procs) == 0 {
		return nil
	}
	now := k.Meter().Cycles()
	start := int(k.Switches) % len(k.Procs)
	if k.Opts.Scheduler == SchedPriority {
		start = 0 // always scan from the highest-priority process
	}
	for i := 0; i < len(k.Procs); i++ {
		p := k.Procs[(start+i)%len(k.Procs)]
		if p.Runnable(now) {
			if p.State == StateYielded {
				p.State = StateReady
				p.WakeAt = 0
				// An expiring alarm with a subscription delivers its
				// upcall before the process resumes from its yield.
				if k.scheduleUpcall(p, DriverAlarm, uint32(now>>6), 0) {
					if err := k.deliverUpcall(p); err != nil {
						k.faultProcess(p, err)
						continue
					}
				}
			}
			return p
		}
	}
	return nil
}

// switchToProcess is the kernel→process half of the context switch: MPU
// configuration (the instrumented setup_mpu), SysTick arming, register
// restore, privilege drop and exception return. The MissedModeSwitch bug
// omits the privilege drop, faithfully reproducing tock#4246.
func (k *Kernel) switchToProcess(p *Process) error {
	t0 := k.Meter().Cycles()
	if err := k.instrument("setup_mpu", p.MM.ConfigureMPU); err != nil {
		return err
	}
	k.mMPU.Observe(k.Meter().Cycles() - t0)
	k.emit(trace.KindMPUConfig, p, 0, 0, "")
	m := k.Board.Machine
	if k.Opts.Scheduler == SchedCooperative {
		m.Tick.Disarm()
	} else {
		m.Tick.Arm(k.Opts.Timeslice)
	}
	copy(m.CPU.R[4:12], p.SavedRegs[:])
	m.CPU.PSP = p.PSP
	if k.Opts.Bugs.MissedModeSwitch {
		// BUG (tock#4246): CONTROL.nPRIV is left clear — the process
		// will run with privileged access rights and bypass the MPU.
		m.CPU.Control &^= armv7m.ControlNPriv
	} else {
		m.CPU.Control |= armv7m.ControlNPriv
	}
	k.Meter().Add(cycles.MSR + cycles.Barrier + 8*cycles.Load)
	return m.SwitchToUser()
}

// saveProcessContext is the process→kernel half: capture the callee-saved
// registers and the process stack pointer (which now points at the
// hardware-stacked frame), then disable the MPU for kernel execution.
func (k *Kernel) saveProcessContext(p *Process) {
	m := k.Board.Machine
	copy(p.SavedRegs[:], m.CPU.R[4:12])
	p.PSP = m.CPU.PSP
	m.Tick.Disarm()
	p.MM.DisableMPU()
	k.Meter().Add(8 * cycles.Store)
}

// RunOnce schedules and runs a single process quantum, handling whatever
// stopped it. It reports whether any process ran.
func (k *Kernel) RunOnce() (bool, error) {
	t0 := k.Meter().Cycles()
	p := k.schedule()
	k.attr(t0, nil, "schedule")
	if p == nil {
		// If everyone is sleeping on an alarm, advance time to the
		// earliest wake.
		var earliest uint64
		for _, q := range k.Procs {
			if q.State == StateYielded && q.WakeAt != 0 && (earliest == 0 || q.WakeAt < earliest) {
				earliest = q.WakeAt
			}
		}
		if earliest == 0 {
			return false, nil
		}
		now := k.Meter().Cycles()
		if earliest > now {
			k.Meter().Add(earliest - now) // the WFI idle loop burning cycles
			k.attr(now, nil, "idle")
		}
		k.checkpoint("idle")
		return true, nil
	}

	t0 = k.Meter().Cycles()
	if err := k.switchToProcess(p); err != nil {
		// A context switch that cannot complete — e.g. protection
		// hardware wedged by an upset — faults the process rather than
		// the board: fail closed per process, keep scheduling the rest.
		k.faultProcess(p, fmt.Errorf("switching in: %v", err))
		k.attr(t0, p, "fault")
		k.checkpoint("switch-fault")
		return true, nil
	}
	if h := k.Opts.Hooks.QuantumStart; h != nil {
		h(p)
	}
	k.attr(t0, p, "switch")
	t0 = k.Meter().Cycles()
	stop, err := k.Board.Machine.Run(0)
	if err != nil {
		return false, fmt.Errorf("kernel: running %s: %w", p.Name, err)
	}
	k.attr(t0, p, "user")
	k.Switches++
	k.mSwitches.Inc()
	k.emit(trace.KindContextSwitch, p, k.Switches, 0, stop.Reason.String())

	t0 = k.Meter().Cycles()
	switch stop.Reason {
	case armv7m.StopPreempted:
		k.emit(trace.KindSysTick, p, 0, 0, "")
		k.saveProcessContext(p)
		p.consecPreempts++
		if w := k.Opts.Watchdog; w > 0 && p.consecPreempts >= w {
			k.WatchdogFires++
			k.mWatchdog.Inc()
			k.emit(trace.KindWatchdog, p, uint64(p.consecPreempts), 0, "")
			k.faultProcess(p, fmt.Errorf("watchdog: %d consecutive timeslices without a syscall", p.consecPreempts))
		}
		k.attr(t0, p, "preempt")
	case armv7m.StopSyscall:
		k.saveProcessContext(p)
		p.consecPreempts = 0
		err := k.handleSyscall(p, stop.SVCNum)
		if n := int(stop.SVCNum); n < len(k.mSyscalls) {
			k.mSyscalls[n].Inc()
			k.mSyscallCyc[n].Observe(k.Meter().Cycles() - t0)
		}
		k.attr(t0, p, svcWindow(stop.SVCNum))
		if err != nil {
			return false, err
		}
	case armv7m.StopFault:
		k.saveProcessContext(p)
		k.faultProcess(p, stop.Fault)
		k.attr(t0, p, "fault")
	case armv7m.StopIdle:
		// WFI outside an exception: treat as a clean exit; there is no
		// stacked frame to resume from.
		k.Board.Machine.Tick.Disarm()
		p.MM.DisableMPU()
		p.State = StateExited
		k.attr(t0, p, "exit")
	default:
		return false, fmt.Errorf("kernel: unexpected stop %v", stop.Reason)
	}
	k.checkpoint(stop.Reason.String())
	return true, nil
}

// checkpoint records a flight-recorder snapshot at the current cycle.
// No-op (and zero simulated cost) without an attached recorder.
func (k *Kernel) checkpoint(label string) {
	if k.rec == nil {
		return
	}
	k.rec.Checkpoint(k.Meter().Cycles(), label, k.FlightFields())
}

// FlightFields captures the kernel-visible state for the flight
// recorder: the full machine state plus the scheduler bookkeeping and a
// per-process view (lifecycle state, saved stack pointer, restart count,
// wake deadline, a digest of the saved callee-saved registers, and a
// digest of the output each process has printed so far).
func (k *Kernel) FlightFields() []flightrec.Field {
	f := k.Board.Machine.FlightFields()
	var leds uint64
	for i, on := range k.LEDs {
		if on {
			leds |= 1 << i
		}
	}
	f = append(f,
		flightrec.F("kern.switches", k.Switches),
		flightrec.F("kern.faults", k.Faults),
		flightrec.F("kern.restarts", totalRestarts(k.Procs)),
		flightrec.F("kern.leds", leds),
	)
	if n := len(k.Procs); n > 0 {
		f = append(f, flightrec.F("kern.cursor", k.Switches%uint64(n)))
	}
	for _, p := range k.Procs {
		id := strconv.Itoa(p.ID)
		pre := "proc." + id + "."
		var regs [8 * 4]byte
		for i, r := range p.SavedRegs {
			binary.LittleEndian.PutUint32(regs[i*4:], r)
		}
		f = append(f,
			flightrec.F(pre+"state", uint64(p.State)),
			flightrec.F(pre+"psp", uint64(p.PSP)),
			flightrec.F(pre+"restarts", uint64(p.Restarts)),
			flightrec.F(pre+"wake", p.WakeAt),
			flightrec.F(pre+"regs", flightrec.DigestBytes(regs[:])),
			flightrec.F("out."+id, flightrec.DigestBytes(k.output[p.ID])),
		)
	}
	return f
}

// totalRestarts sums kernel-initiated restarts across the process table.
func totalRestarts(procs []*Process) uint64 {
	var n uint64
	for _, p := range procs {
		n += uint64(p.Restarts)
	}
	return n
}

// Run drives the scheduler until every process is dead or maxQuanta
// quanta have elapsed. It returns the number of quanta used.
func (k *Kernel) Run(maxQuanta int) (int, error) {
	for q := 0; q < maxQuanta; q++ {
		alive := false
		for _, p := range k.Procs {
			if p.Alive() {
				alive = true
				break
			}
		}
		if !alive {
			return q, nil
		}
		ran, err := k.RunOnce()
		if err != nil {
			return q, err
		}
		if !ran {
			return q, nil
		}
	}
	return maxQuanta, nil
}

// faultProcess implements the kernel's fault policy: print a Tock-style
// fault report (including the memory layout, which §6.1's Stack Growth
// test deliberately diffs, and the latched MMFAR), then either terminate
// or restart the process per the configured policy.
func (k *Kernel) faultProcess(p *Process, cause error) {
	p.State = StateFaulted
	p.FaultReason = fmt.Sprint(cause)
	k.Faults++
	k.mFaults.Inc()
	k.emit(trace.KindFault, p, 0, 0, p.FaultReason)
	k.appendOutput(p, fmt.Sprintf("panic: process %s faulted: %v\n", p.Name, cause))
	if f := k.Board.Machine.Fault; f.Valid {
		k.appendOutput(p, fmt.Sprintf("mmfar: 0x%08x daccviol=%v iaccviol=%v\n", f.MMFAR, f.DACCVIOL, f.IACCVIOL))
		k.Board.Machine.Fault = armv7m.FaultStatus{}
	}
	k.appendOutput(p, fmt.Sprintf("layout: %s\n", p.MM.Layout()))

	policy := k.Opts.FaultPolicy
	if policy != PolicyRestart && policy != PolicyQuarantine {
		return
	}
	maxR := k.Opts.MaxRestarts
	if maxR == 0 {
		maxR = 3
	}
	if p.Restarts < maxR {
		if err := k.restartProcess(p); err != nil {
			k.appendOutput(p, fmt.Sprintf("restart failed: %v\n", err))
			return
		}
		p.Restarts++
		k.mRestarts.Inc()
		k.emit(trace.KindRestart, p, uint64(p.Restarts), 0, "")
		k.appendOutput(p, fmt.Sprintf("restarting %s (attempt %d/%d)\n", p.Name, p.Restarts, maxR))
		if base := k.Opts.BackoffBase; base != 0 {
			// Exponential backoff: park the freshly-reset process until
			// base << (attempt-1) cycles from now. StateYielded with a
			// WakeAt is exactly a timed sleep the scheduler knows how to
			// resume; Upcalls were cleared by the restart, so the wake
			// delivers no spurious callback.
			delay := base << uint(p.Restarts-1)
			p.State = StateYielded
			p.WakeAt = k.Meter().Cycles() + delay
			k.emit(trace.KindBackoff, p, uint64(p.Restarts), delay, "")
		}
		return
	}
	if policy == PolicyQuarantine {
		p.State = StateQuarantined
		p.FaultReason = fmt.Sprintf("%v (quarantined after %d restarts)", cause, p.Restarts)
		k.Quarantines++
		k.mQuarantine.Inc()
		k.emit(trace.KindQuarantine, p, uint64(p.Restarts), 0, p.FaultReason)
		k.appendOutput(p, fmt.Sprintf("quarantining %s after %d restarts\n", p.Name, p.Restarts))
		return
	}
	// Restart budget exhausted: the process stays faulted, and the
	// reason records how many times the kernel tried.
	p.FaultReason = fmt.Sprintf("%v (gave up after %d restarts)", cause, p.Restarts)
}

// restartProcess resets a faulted process for another run: zero its
// accessible RAM, reset the break to the initial value, drop its shared
// buffers and pending wakes, and rebuild the initial stack frame.
// Grant allocations persist, as they hold kernel state that outlives the
// process instance.
func (k *Kernel) restartProcess(p *Process) error {
	layout := p.MM.Layout()
	if p.initialBreak != 0 && p.initialBreak != layout.AppBreak {
		if err := p.MM.Brk(p.initialBreak); err != nil {
			return err
		}
		layout = p.MM.Layout()
	}
	for addr := layout.MemoryStart; addr < layout.AppBreak; addr += 4 {
		if err := k.Board.Machine.Mem.WriteWord(addr, 0); err != nil {
			return err
		}
	}
	clear(p.AllowedRO)
	clear(p.AllowedRW)
	clear(p.Upcalls)
	p.pendingUpcalls = nil
	p.inUpcall = false
	p.WakeAt = 0
	p.consecPreempts = 0
	stackTop := layout.MemoryStart + p.stackSize
	if p.stackSize == 0 || stackTop > layout.AppBreak {
		stackTop = layout.AppBreak
	}
	if err := p.buildInitialFrame(k.Board.Machine, stackTop); err != nil {
		return err
	}
	p.State = StateReady
	p.FaultReason = ""
	return nil
}

// EnterGrant gives the caller scoped access to a grant allocation's bytes,
// the way Tock capsules enter() a grant: the span is validated to lie
// wholly inside the process's kernel-owned grant region, the closure runs
// over a copy, and mutations are written back. The process itself can
// never reach this memory (the MPU denies it), so no tearing with user
// code is possible.
func (k *Kernel) EnterGrant(p *Process, addr, size uint32, f func(b []byte) error) error {
	layout := p.MM.Layout()
	end := uint64(addr) + uint64(size)
	if addr < layout.KernelBreak || end > uint64(layout.MemoryEnd()) {
		return fmt.Errorf("kernel: grant span [0x%x,+0x%x) outside grant region [0x%x,0x%x)",
			addr, size, layout.KernelBreak, layout.MemoryEnd())
	}
	b, err := k.Board.Machine.Mem.ReadBytes(addr, size)
	if err != nil {
		return err
	}
	if err := f(b); err != nil {
		return err
	}
	return k.Board.Machine.Mem.WriteBytes(addr, b)
}

// ProcessInfo is a read-only summary row for process introspection
// (Tock's process console "list" command).
type ProcessInfo struct {
	ID       int
	Name     string
	State    State
	Restarts int
	Grants   int
	Layout   Layout
}

// ProcessTable returns a snapshot of every loaded process.
func (k *Kernel) ProcessTable() []ProcessInfo {
	out := make([]ProcessInfo, 0, len(k.Procs))
	for _, p := range k.Procs {
		out = append(out, ProcessInfo{
			ID:       p.ID,
			Name:     p.Name,
			State:    p.State,
			Restarts: p.Restarts,
			Grants:   len(p.Grants),
			Layout:   p.MM.Layout(),
		})
	}
	return out
}

// ScheduleUpcallForBench schedules and immediately delivers an alarm
// upcall; exported for the benchmark harness.
func (k *Kernel) ScheduleUpcallForBench(p *Process) bool {
	if !k.scheduleUpcall(p, DriverAlarm, 0, 0) {
		return false
	}
	return k.deliverUpcall(p) == nil
}

// IPCCopyForBench runs the kernel-mediated IPC copy; exported for the
// benchmark harness.
func (k *Kernel) IPCCopyForBench(p *Process, target uint32) uint32 {
	return k.ipcCmd(p, 0, target)
}
