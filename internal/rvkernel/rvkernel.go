// Package rvkernel is the RISC-V port of the TickTock kernel: the same
// granular MPU abstraction (internal/core over the PMP driver), the same
// TBF loader and syscall classes, running applications on the RV32
// machine model for all three supported chips. It plays the role of the
// paper's QEMU runs in §6.1: demonstrating that every release application
// runs to completion on the RISC-V targets.
//
// The port underlines the paper's reuse claim: the process allocator,
// break accounting and isolation invariants are the *same generic code*
// as the ARM kernel's; only the trap glue and the machine model differ.
package rvkernel

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"ticktock/internal/core"
	"ticktock/internal/cycles"
	"ticktock/internal/flightrec"
	"ticktock/internal/metrics"
	"ticktock/internal/mpu"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
	"ticktock/internal/tbf"
	"ticktock/internal/trace"
)

// Memory map of the simulated RISC-V board (HiFive1-like).
const (
	FlashBase = 0x2000_0000
	FlashSize = 0x0010_0000

	RAMBase = 0x8000_0000
	RAMSize = 0x0004_0000

	AppFlashBase = 0x2004_0000

	KernelLowRAMSize = 0x1000
	KernelRAMSize    = 0x1_0000

	ProcessPoolBase = RAMBase + KernelLowRAMSize
	ProcessPoolSize = RAMSize - KernelRAMSize - KernelLowRAMSize

	// KernelDataBase is a kernel-owned victim address for isolation
	// tests.
	KernelDataBase = RAMBase + RAMSize - KernelRAMSize
)

// Syscall classes, carried in a7 (our RISC-V dialect of the Tock ABI;
// args in a0..a3, return value in a0).
const (
	SVCYield   = 0
	SVCCommand = 1
	SVCAllowRW = 2
	SVCAllowRO = 3
	SVCMemop   = 4
	SVCExit    = 5
)

// Driver and memop numbers shared with the ARM kernel's dialect.
const (
	DriverConsole = 0
	DriverAlarm   = 1
	DriverTemp    = 2
	DriverLED     = 3
	DriverGrant   = 4

	MemopBrk         = 0
	MemopSbrk        = 1
	MemopMemoryStart = 2
	MemopAppBreak    = 3

	RetSuccess = 0
	RetInvalid = 0xFFFF_FFFE
	RetNoMem   = 0xFFFF_FFFD
)

// State is a process lifecycle state.
type State uint8

// Process states.
const (
	StateReady State = iota
	StateYielded
	StateExited
	StateFaulted
	// StateQuarantined is the graceful-degradation terminal state: the
	// process exhausted its restart budget under PolicyQuarantine and is
	// never scheduled again while the board keeps running.
	StateQuarantined
)

// String implements fmt.Stringer.
func (s State) String() string {
	return [...]string{"ready", "yielded", "exited", "faulted", "quarantined"}[s]
}

// FaultPolicy decides what happens to a faulting process, mirroring the
// ARM kernel's policy set.
type FaultPolicy uint8

// Fault policies.
const (
	// PolicyStop terminates the faulting process (the default).
	PolicyStop FaultPolicy = iota
	// PolicyRestart resets the process and restarts it from its entry
	// point, up to MaxRestarts times.
	PolicyRestart
	// PolicyQuarantine restarts like PolicyRestart, then quarantines the
	// process when the restart budget is exhausted.
	PolicyQuarantine
)

// FaultHooks are the kernel-side fault-injection points, mirroring the
// ARM kernel's. Nil hooks cost one pointer check and zero simulated
// cycles.
type FaultHooks struct {
	// SyscallArgs may rewrite the four argument registers (a0..a3) of a
	// syscall before dispatch.
	SyscallArgs func(p *Process, class uint32, args [4]uint32) [4]uint32
	// SyscallRet may rewrite the return value before it lands in a0.
	SyscallRet func(p *Process, class uint32, ret uint32) uint32
	// QuantumStart fires after a context switch completes (PMP
	// programmed, timer armed), immediately before user code runs.
	QuantumStart func(p *Process)
}

// App describes a RISC-V application.
type App struct {
	Name       string
	MinRAM     uint32
	InitRAM    uint32
	Stack      uint32
	KernelHint uint32
	Build      func(codeBase uint32) *rv32.Program
}

// Process is the kernel's per-process record.
type Process struct {
	ID    int
	Name  string
	State State
	Alloc *core.AppMemoryAllocator[core.PMPRegion]
	Entry uint32

	// Saved user context: all integer registers plus the pc.
	Regs [32]uint32
	PC   uint32

	WakeAt      uint64
	ExitCode    uint32
	FaultReason string
	Grants      []uint32

	// Restarts counts kernel-initiated restarts (fault policy).
	Restarts int

	// consecPreempts counts consecutive full-timeslice preemptions with
	// no intervening syscall — the software watchdog's staleness signal.
	consecPreempts int

	// initialBreak and stackSize are remembered from load time so the
	// restart policy can reset the process.
	initialBreak uint32
	stackSize    uint32

	// AllowedRO/AllowedRW are the per-driver shared buffers.
	AllowedRO map[uint32][2]uint32 // driver -> {addr, len}
	AllowedRW map[uint32][2]uint32
}

// Alive reports whether the process can run again.
func (p *Process) Alive() bool { return p.State == StateReady || p.State == StateYielded }

// Kernel is the RISC-V kernel instance.
type Kernel struct {
	Machine *rv32.Machine
	Chip    riscv.ChipConfig
	Procs   []*Process

	Timeslice  uint64
	poolCursor uint32
	nextFlash  uint32
	switches   uint64
	output     map[int][]byte
	LEDs       [4]bool

	// FaultPolicy, MaxRestarts (0 means 3), BackoffBase and Watchdog
	// mirror the ARM kernel's supervision options; set them before Run.
	FaultPolicy FaultPolicy
	MaxRestarts int
	BackoffBase uint64
	Watchdog    int
	// Hooks are the kernel-side fault-injection points (normally zero).
	Hooks FaultHooks

	// SyscallErrors counts syscalls that returned an error code;
	// Faults counts every fault delivered to faultProcess; WatchdogFires
	// and Quarantines count supervision responses.
	SyscallErrors uint64
	Faults        uint64
	WatchdogFires uint64
	Quarantines   uint64

	// Trace, when non-nil, receives kernel events, mirroring the ARM
	// kernel's tracer wiring. Set it before Run.
	Trace *trace.Tracer

	// Metrics is the attached registry (AttachMetrics; nil when off).
	Metrics *metrics.Registry

	// rec, when non-nil, is the attached flight recorder
	// (AttachFlightRec); RunOnce checkpoints it once per quantum.
	rec *flightrec.Recorder

	// prof is the folded-stack cycle profile (non-nil exactly when
	// Metrics is); flavourName labels the series ("rv32-<chip>").
	prof        *metrics.Profile
	flavourName string
	mSyscalls   [6]*metrics.Counter
	mSyscallCyc [6]*metrics.Histogram
	mSwitches   *metrics.Counter
	mFaults     *metrics.Counter
	mRestarts   *metrics.Counter
	mWatchdog   *metrics.Counter
	mQuarantine *metrics.Counter
	mPMP        *metrics.Histogram
}

// Switches returns the number of completed context switches.
func (k *Kernel) Switches() uint64 { return k.switches }

// AttachMetrics wires the kernel into a metrics registry under the
// flavour label "rv32-<chip>": per-class syscall counters and cycle
// histograms, context-switch and fault counters, a PMP reconfigure
// histogram, and the folded-stack cycle profile (Profile). Call it
// before LoadProcess so the PMP drivers pick up their write counters.
// Metrics observe the cycle meter but never charge it. Nil is a no-op.
func (k *Kernel) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	k.Metrics = reg
	k.prof = metrics.NewProfile()
	k.flavourName = "rv32-" + k.Chip.Name
	fl := metrics.L("flavour", k.flavourName)
	for i := range k.mSyscalls {
		cl := metrics.L("class", svcName(uint32(i)))
		k.mSyscalls[i] = reg.Counter("ticktock_syscalls_total", fl, cl)
		k.mSyscallCyc[i] = reg.Histogram("ticktock_syscall_cycles", fl, cl)
	}
	k.mSwitches = reg.Counter("ticktock_context_switches_total", fl)
	k.mFaults = reg.Counter("ticktock_faults_total", fl)
	k.mRestarts = reg.Counter("ticktock_restarts_total", fl)
	k.mWatchdog = reg.Counter("ticktock_watchdog_fires_total", fl)
	k.mQuarantine = reg.Counter("ticktock_quarantines_total", fl)
	k.mPMP = reg.Histogram("ticktock_mpu_reconfigure_cycles", fl)
	k.Trace.AttachMetrics(reg)
}

// AttachFlightRec wires a flight recorder into the kernel, mirroring the
// ARM kernel's Options.FlightRec. Call it before LoadProcess so flash
// images and initial RAM writes land in the dirty-page picture. The
// recorder observes the cycle meter but never charges it. Nil is a
// no-op.
func (k *Kernel) AttachFlightRec(rec *flightrec.Recorder) {
	if rec == nil {
		return
	}
	k.rec = rec
	rec.AttachMemory(k.Machine.Mem)
	rec.AttachTracer(k.Trace)
}

// checkpoint records a flight-recorder snapshot at the current cycle.
// No-op (and zero simulated cost) without an attached recorder.
func (k *Kernel) checkpoint(label string) {
	if k.rec == nil {
		return
	}
	k.rec.Checkpoint(k.Machine.Meter.Cycles(), label, k.FlightFields())
}

// FlightFields captures the kernel-visible state for the flight
// recorder: the full machine state plus the scheduler bookkeeping and a
// per-process view (lifecycle state, saved pc, restart count, wake
// deadline, a digest of the saved register file, and a digest of the
// output each process has printed so far).
func (k *Kernel) FlightFields() []flightrec.Field {
	f := k.Machine.FlightFields()
	var leds uint64
	for i, on := range k.LEDs {
		if on {
			leds |= 1 << i
		}
	}
	var restarts uint64
	for _, p := range k.Procs {
		restarts += uint64(p.Restarts)
	}
	f = append(f,
		flightrec.F("kern.switches", k.switches),
		flightrec.F("kern.faults", k.Faults),
		flightrec.F("kern.restarts", restarts),
		flightrec.F("kern.leds", leds),
	)
	if n := len(k.Procs); n > 0 {
		f = append(f, flightrec.F("kern.cursor", k.switches%uint64(n)))
	}
	for _, p := range k.Procs {
		id := strconv.Itoa(p.ID)
		pre := "proc." + id + "."
		var regs [32 * 4]byte
		for i, r := range p.Regs {
			binary.LittleEndian.PutUint32(regs[i*4:], r)
		}
		f = append(f,
			flightrec.F(pre+"state", uint64(p.State)),
			flightrec.F(pre+"pc", uint64(p.PC)),
			flightrec.F(pre+"restarts", uint64(p.Restarts)),
			flightrec.F(pre+"wake", p.WakeAt),
			flightrec.F(pre+"regs", flightrec.DigestBytes(regs[:])),
			flightrec.F("out."+id, flightrec.DigestBytes(k.output[p.ID])),
		)
	}
	return f
}

// attr charges the cycles since start to a folded-stack window, exactly
// as the ARM kernel does.
func (k *Kernel) attr(start uint64, p *Process, window string) {
	if k.prof == nil {
		return
	}
	d := k.Machine.Meter.Cycles() - start
	if d == 0 {
		return
	}
	name := "kernel"
	if p != nil {
		name = p.Name
	}
	k.prof.Add(d, k.flavourName, name, window)
}

// Profile returns the folded-stack cycle profile with the unattributed
// residue booked under `flavour;kernel;unattributed`, so its Total
// equals the machine's cycle meter. Nil when metrics are off.
func (k *Kernel) Profile() *metrics.Profile {
	if k.prof == nil {
		return nil
	}
	out := metrics.NewProfile()
	out.Merge(k.prof)
	if total, attributed := k.Machine.Meter.Cycles(), out.Total(); attributed < total {
		out.Add(total-attributed, k.flavourName, "kernel", "unattributed")
	}
	return out
}

// emit records a trace event attributed to p (or the kernel when p is
// nil). No-op without a tracer; never touches the cycle meter.
func (k *Kernel) emit(kind trace.Kind, p *Process, a, b uint64, label string) {
	if k.Trace == nil {
		return
	}
	ev := trace.Event{
		Cycle: k.Machine.Meter.Cycles(),
		Kind:  kind,
		Proc:  trace.KernelProc,
		A:     a,
		B:     b,
		Label: label,
	}
	if p != nil {
		ev.Proc, ev.Name = p.ID, p.Name
	}
	k.Trace.Emit(ev)
}

// svcName names a RISC-V syscall class for trace output.
func svcName(class uint32) string {
	switch class {
	case SVCYield:
		return "yield"
	case SVCCommand:
		return "command"
	case SVCAllowRW:
		return "allow-rw"
	case SVCAllowRO:
		return "allow-ro"
	case SVCMemop:
		return "memop"
	case SVCExit:
		return "exit"
	default:
		return fmt.Sprintf("svc-%d", class)
	}
}

// New boots a RISC-V kernel on the given chip, on the machine's
// block-cache fast core.
func New(chip riscv.ChipConfig) (*Kernel, error) {
	mem := physmem.NewMemory()
	if _, err := mem.Map("flash", FlashBase, FlashSize); err != nil {
		return nil, err
	}
	if _, err := mem.Map("ram", RAMBase, RAMSize); err != nil {
		return nil, err
	}
	m := rv32.NewMachine(mem, chip)
	m.SetFastCore(true)
	return &Kernel{
		Machine:    m,
		Chip:       chip,
		Timeslice:  10000,
		poolCursor: ProcessPoolBase,
		nextFlash:  AppFlashBase,
		output:     make(map[int][]byte),
	}, nil
}

// SetFastCore enables or disables the machine's block-cache fast core
// (rv32.Machine.SetFastCore); observable behaviour is unchanged. New
// boots with it on, so SetFastCore(false) is how a caller reaches the
// byte-scan oracle core.
func (k *Kernel) SetFastCore(on bool) { k.Machine.SetFastCore(on) }

// PublishCoreStats books the block-cache fast-core counters
// (blockcache_*_total, flavour-labelled) into the attached registry.
// No-op without metrics or with the fast core disabled; call once per
// completed run — the fast core's hot path never sees the registry.
func (k *Kernel) PublishCoreStats() {
	if k.Metrics == nil {
		return
	}
	k.Machine.FastStats().Publish(k.Metrics, metrics.L("flavour", k.flavourName))
}

// Output returns a process's console output.
func (k *Kernel) Output(p *Process) string { return string(k.output[p.ID]) }

func (k *Kernel) appendOutput(p *Process, s string) {
	k.output[p.ID] = append(k.output[p.ID], s...)
}

// allocFlashSlot reserves a 4-byte aligned flash slot (the PMP has no
// power-of-two constraint in TOR mode; NAPOT chips get pow2 slots).
func (k *Kernel) allocFlashSlot(need uint32) (uint32, uint32, error) {
	size := need
	var base uint32
	if k.Chip.TORSupported {
		size = (size + 3) &^ 3
		base = (k.nextFlash + 3) &^ 3
	} else {
		size = 8
		for size < need {
			size <<= 1
		}
		base = (k.nextFlash + size - 1) &^ (size - 1)
	}
	if uint64(base)+uint64(size) > FlashBase+FlashSize {
		return 0, 0, fmt.Errorf("rvkernel: flash exhausted")
	}
	k.nextFlash = base + size
	return base, size, nil
}

// svcWindows are precomputed folded-stack window names per class.
var svcWindows = [6]string{
	SVCYield:   "syscall/yield",
	SVCCommand: "syscall/command",
	SVCAllowRW: "syscall/allow-rw",
	SVCAllowRO: "syscall/allow-ro",
	SVCMemop:   "syscall/memop",
	SVCExit:    "syscall/exit",
}

// svcWindow returns the profile window name for a syscall class.
func svcWindow(class uint32) string {
	if class < uint32(len(svcWindows)) {
		return svcWindows[class]
	}
	return "syscall/" + svcName(class)
}

// LoadProcess loads an application: TBF header in flash, program mapped,
// memory allocated through the generic granular allocator over the PMP
// driver.
func (k *Kernel) LoadProcess(app App) (*Process, error) {
	t0 := k.Machine.Meter.Cycles()
	defer func() { k.attr(t0, nil, "create") }()
	probe := app.Build(0)
	imageSize := uint32(tbf.HeaderSize) + uint32(4*len(probe.Instrs))
	slotBase, slotSize, err := k.allocFlashSlot(imageSize)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	if err := k.Machine.Mem.WriteBytes(slotBase, raw); err != nil {
		return nil, err
	}
	parsed, err := tbf.Parse(raw)
	if err != nil {
		return nil, err
	}

	codeBase := slotBase + parsed.EntryOffset
	if err := k.Machine.LoadProgram(app.Build(codeBase)); err != nil {
		return nil, err
	}

	drv := core.NewPMPMPU(k.Machine.PMP)
	drv.Meter = k.Machine.Meter
	if k.Metrics != nil {
		drv.Writes = k.Metrics.Counter("riscv_pmp_entry_writes_total",
			metrics.L("flavour", k.flavourName))
	}
	alloc := core.NewAllocator[core.PMPRegion](drv, core.Config{Meter: k.Machine.Meter})
	poolLeft := ProcessPoolBase + ProcessPoolSize - k.poolCursor
	if err := alloc.AllocateAppMemory(k.poolCursor, poolLeft,
		parsed.MinRAMSize, parsed.InitRAMSize, parsed.KernelHint, slotBase, slotSize); err != nil {
		return nil, fmt.Errorf("rvkernel: loading %s: %w", app.Name, err)
	}
	b := alloc.Breaks()
	k.poolCursor = (b.MemoryEnd() + 7) &^ 7

	p := &Process{
		ID:           len(k.Procs),
		Name:         parsed.Name,
		State:        StateReady,
		Alloc:        alloc,
		Entry:        codeBase,
		AllowedRO:    make(map[uint32][2]uint32),
		AllowedRW:    make(map[uint32][2]uint32),
		initialBreak: b.AppBreak(),
		stackSize:    parsed.StackSize,
	}
	// Initial user context: sp at the stack top, app arguments in a0-a3
	// as the ARM port passes them in r0-r3.
	stackTop := b.MemoryStart() + parsed.StackSize
	if parsed.StackSize == 0 || stackTop > b.AppBreak() {
		stackTop = b.AppBreak()
	}
	p.Regs[rv32.SP] = stackTop &^ 7
	p.Regs[rv32.A0] = b.MemoryStart()
	p.Regs[rv32.A1] = b.AppBreak()
	p.Regs[rv32.A2] = b.MemoryEnd()
	p.Regs[rv32.A3] = b.FlashStart()
	p.PC = codeBase
	k.Procs = append(k.Procs, p)
	return p, nil
}

// schedule picks the next runnable process round-robin.
func (k *Kernel) schedule() *Process {
	if len(k.Procs) == 0 {
		return nil
	}
	now := k.Machine.Meter.Cycles()
	start := int(k.switches) % len(k.Procs)
	for i := 0; i < len(k.Procs); i++ {
		p := k.Procs[(start+i)%len(k.Procs)]
		switch p.State {
		case StateReady:
			return p
		case StateYielded:
			if p.WakeAt != 0 && now >= p.WakeAt {
				p.State = StateReady
				p.WakeAt = 0
				return p
			}
		}
	}
	return nil
}

// RunOnce runs one scheduling quantum.
func (k *Kernel) RunOnce() (bool, error) {
	t0 := k.Machine.Meter.Cycles()
	p := k.schedule()
	k.attr(t0, nil, "schedule")
	if p == nil {
		var earliest uint64
		for _, q := range k.Procs {
			if q.State == StateYielded && q.WakeAt != 0 && (earliest == 0 || q.WakeAt < earliest) {
				earliest = q.WakeAt
			}
		}
		if earliest == 0 {
			return false, nil
		}
		if now := k.Machine.Meter.Cycles(); earliest > now {
			k.Machine.Meter.Add(earliest - now)
			k.attr(now, nil, "idle")
		}
		k.checkpoint("idle")
		return true, nil
	}

	// Context switch in: program the PMP, restore registers, drop to
	// user mode at the saved pc.
	t0 = k.Machine.Meter.Cycles()
	if err := p.Alloc.ConfigureMPU(); err != nil {
		// A PMP that cannot be programmed (e.g. an upset set a lock
		// bit) faults the process rather than the board: fail closed
		// per process, keep scheduling the rest.
		k.faultProcess(p, fmt.Errorf("switching in: %v", err))
		k.attr(t0, p, "fault")
		k.checkpoint("switch-fault")
		return true, nil
	}
	k.mPMP.Observe(k.Machine.Meter.Cycles() - t0)
	k.emit(trace.KindMPUConfig, p, 0, 0, "pmp")
	m := k.Machine
	m.X = p.Regs
	m.Timer.Arm(k.Timeslice)
	m.ResumeUser(p.PC)
	if h := k.Hooks.QuantumStart; h != nil {
		h(p)
	}
	k.attr(t0, p, "switch")

	t0 = k.Machine.Meter.Cycles()
	stop, err := m.Run(0)
	if err != nil {
		return false, err
	}
	k.attr(t0, p, "user")
	k.switches++
	k.mSwitches.Inc()
	k.emit(trace.KindContextSwitch, p, k.switches, 0, stop.Reason.String())

	// Context switch out: save registers (no hardware stacking on
	// RISC-V — the kernel does it, as Tock's trap handler does).
	p.Regs = m.X
	p.PC = m.CSR.MEPC
	m.Timer.Disarm()

	t0 = k.Machine.Meter.Cycles()
	switch stop.Reason {
	case rv32.StopTimer:
		// Resume at the interrupted pc next time.
		k.emit(trace.KindSysTick, p, 0, 0, "mtimer")
		p.consecPreempts++
		if w := k.Watchdog; w > 0 && p.consecPreempts >= w {
			k.WatchdogFires++
			k.mWatchdog.Inc()
			k.emit(trace.KindWatchdog, p, uint64(p.consecPreempts), 0, "")
			k.faultProcess(p, fmt.Errorf("watchdog: %d consecutive timeslices without a syscall", p.consecPreempts))
		}
		k.attr(t0, p, "preempt")
	case rv32.StopEcall:
		p.PC = m.CSR.MEPC + 4 // resume past the ecall
		p.consecPreempts = 0
		class := p.Regs[rv32.A7]
		k.handleSyscall(p)
		if class < uint32(len(k.mSyscalls)) {
			k.mSyscalls[class].Inc()
			k.mSyscallCyc[class].Observe(k.Machine.Meter.Cycles() - t0)
		}
		k.attr(t0, p, svcWindow(class))
	case rv32.StopFault:
		k.faultProcess(p, stop.Fault)
		k.attr(t0, p, "fault")
	case rv32.StopWFI:
		p.State = StateExited
		k.attr(t0, p, "exit")
	default:
		return false, fmt.Errorf("rvkernel: unexpected stop %v", stop.Reason)
	}
	k.checkpoint(stop.Reason.String())
	return true, nil
}

// faultProcess implements the fault policy, mirroring the ARM kernel:
// print a fault report, then stop, restart (with optional exponential
// backoff) or — once the restart budget is exhausted — leave the process
// faulted or quarantined per the configured policy.
func (k *Kernel) faultProcess(p *Process, cause error) {
	p.State = StateFaulted
	p.FaultReason = fmt.Sprint(cause)
	k.Faults++
	k.mFaults.Inc()
	k.emit(trace.KindFault, p, 0, 0, p.FaultReason)
	k.appendOutput(p, fmt.Sprintf("panic: process %s faulted: %v\n", p.Name, cause))
	k.appendOutput(p, fmt.Sprintf("layout: %s\n", p.Alloc.Breaks().String()))

	policy := k.FaultPolicy
	if policy != PolicyRestart && policy != PolicyQuarantine {
		return
	}
	maxR := k.MaxRestarts
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
		if base := k.BackoffBase; base != 0 {
			delay := base << uint(p.Restarts-1)
			p.State = StateYielded
			p.WakeAt = k.Machine.Meter.Cycles() + delay
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
	p.FaultReason = fmt.Sprintf("%v (gave up after %d restarts)", cause, p.Restarts)
}

// restartProcess resets a faulted process for another run: restore the
// initial break, zero its accessible RAM, drop shared buffers and
// pending wakes, and rebuild the initial register file. Grant
// allocations persist, as on the ARM kernel.
func (k *Kernel) restartProcess(p *Process) error {
	if p.initialBreak != 0 && p.initialBreak != p.Alloc.Breaks().AppBreak() {
		if err := p.Alloc.Brk(p.initialBreak); err != nil {
			return err
		}
	}
	b := p.Alloc.Breaks()
	for addr := b.MemoryStart(); addr < b.AppBreak(); addr += 4 {
		if err := k.Machine.Mem.WriteWord(addr, 0); err != nil {
			return err
		}
	}
	clear(p.AllowedRO)
	clear(p.AllowedRW)
	p.WakeAt = 0
	p.consecPreempts = 0
	stackTop := b.MemoryStart() + p.stackSize
	if p.stackSize == 0 || stackTop > b.AppBreak() {
		stackTop = b.AppBreak()
	}
	p.Regs = [32]uint32{}
	p.Regs[rv32.SP] = stackTop &^ 7
	p.Regs[rv32.A0] = b.MemoryStart()
	p.Regs[rv32.A1] = b.AppBreak()
	p.Regs[rv32.A2] = b.MemoryEnd()
	p.Regs[rv32.A3] = b.FlashStart()
	p.PC = p.Entry
	p.State = StateReady
	p.FaultReason = ""
	return nil
}

// Run drives the scheduler for at most maxQuanta quanta.
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

// handleSyscall dispatches an ecall: class in a7, args a0..a3, return a0.
func (k *Kernel) handleSyscall(p *Process) {
	class := p.Regs[rv32.A7]
	a0, a1, a2 := p.Regs[rv32.A0], p.Regs[rv32.A1], p.Regs[rv32.A2]
	if h := k.Hooks.SyscallArgs; h != nil {
		a := h(p, class, [4]uint32{a0, a1, a2, p.Regs[rv32.A3]})
		a0, a1, a2 = a[0], a[1], a[2]
		p.Regs[rv32.A3] = a[3]
	}
	var ret uint32 = RetSuccess
	if k.Trace != nil {
		k.emit(trace.KindSyscallEnter, p, uint64(class), uint64(a0), svcName(class))
		defer func() { k.emit(trace.KindSyscallExit, p, uint64(class), uint64(ret), svcName(class)) }()
	}

	switch class {
	case SVCYield:
		if p.WakeAt != 0 && p.WakeAt > k.Machine.Meter.Cycles() {
			p.State = StateYielded
		}
	case SVCCommand:
		ret = k.command(p, a0, a1, a2)
	case SVCAllowRO, SVCAllowRW:
		kind := mpu.AccessRead
		table := p.AllowedRO
		if class == SVCAllowRW {
			kind = mpu.AccessWrite
			table = p.AllowedRW
		}
		switch {
		case a2 == 0:
			delete(table, a0)
		case !p.Alloc.UserCanAccess(a1, a2, kind):
			ret = RetInvalid
		default:
			table[a0] = [2]uint32{a1, a2}
		}
	case SVCMemop:
		ret = k.memop(p, a0, a1)
	case SVCExit:
		p.State = StateExited
		p.ExitCode = a0
		return
	default:
		ret = RetInvalid
	}
	switch ret {
	case RetInvalid, RetNoMem:
		k.SyscallErrors++
	}
	if h := k.Hooks.SyscallRet; h != nil {
		ret = h(p, class, ret)
	}
	p.Regs[rv32.A0] = ret
}

// memop mirrors the ARM kernel's memop dialect.
func (k *Kernel) memop(p *Process, op, arg uint32) uint32 {
	b := p.Alloc.Breaks()
	switch op {
	case MemopBrk:
		if err := p.Alloc.Brk(arg); err != nil {
			k.emit(trace.KindBrk, p, uint64(arg), 0, "brk")
			return RetInvalid
		}
		k.emit(trace.KindBrk, p, uint64(arg), uint64(p.Alloc.Breaks().AppBreak()), "brk")
		return RetSuccess
	case MemopSbrk:
		nb, err := p.Alloc.Sbrk(int32(arg))
		if err != nil {
			k.emit(trace.KindBrk, p, uint64(arg), 0, "sbrk")
			return RetInvalid
		}
		k.emit(trace.KindBrk, p, uint64(arg), uint64(nb), "sbrk")
		return nb
	case MemopMemoryStart:
		return b.MemoryStart()
	case MemopAppBreak:
		return b.AppBreak()
	default:
		return RetInvalid
	}
}

// command hosts the same driver set as the ARM kernel.
func (k *Kernel) command(p *Process, driver, cmd, arg2 uint32) uint32 {
	switch driver {
	case DriverConsole:
		switch cmd {
		case 0:
			k.appendOutput(p, string(rune(arg2&0x7F)))
			k.Machine.Meter.Add(cycles.MMIO)
			return RetSuccess
		case 1:
			buf, ok := p.AllowedRO[DriverConsole]
			if !ok {
				return RetInvalid
			}
			n := min(arg2, buf[1])
			data, err := k.Machine.Mem.ReadBytes(buf[0], n)
			if err != nil {
				return RetInvalid
			}
			k.Machine.Meter.Add(uint64(n) * cycles.Load)
			k.appendOutput(p, string(data))
			return n
		}
		return RetInvalid
	case DriverAlarm:
		switch cmd {
		case 0:
			return uint32(k.Machine.Meter.Cycles() >> 6)
		case 1:
			p.WakeAt = k.Machine.Meter.Cycles() + uint64(arg2)
			return RetSuccess
		}
		return RetInvalid
	case DriverTemp:
		if cmd == 0 {
			return 2200 + uint32(k.Machine.Meter.Cycles()%997)
		}
		return RetInvalid
	case DriverLED:
		if int(arg2) >= len(k.LEDs) {
			return RetInvalid
		}
		switch cmd {
		case 0:
			k.LEDs[arg2] = !k.LEDs[arg2]
		case 1:
			k.LEDs[arg2] = true
		case 2:
			k.LEDs[arg2] = false
		default:
			return RetInvalid
		}
		return RetSuccess
	case DriverGrant:
		if cmd != 0 {
			return RetInvalid
		}
		addr, err := p.Alloc.AllocateGrant(arg2)
		if err != nil {
			k.emit(trace.KindGrantAlloc, p, uint64(arg2), 0, "grant")
			return RetNoMem
		}
		p.Grants = append(p.Grants, addr)
		k.emit(trace.KindGrantAlloc, p, uint64(arg2), uint64(addr), "grant")
		return RetSuccess
	default:
		return RetInvalid
	}
}
