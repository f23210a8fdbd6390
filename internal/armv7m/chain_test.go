package armv7m

import (
	"fmt"
	"testing"

	"ticktock/internal/metrics"
	"ticktock/internal/mpu"
)

// loopShape is one self-loop the fast core chains: the program, the
// base of its loop block and the cycles one pass costs.
type loopShape struct {
	name string
	prog func() *Program
	base uint32
	pass uint64
}

// loopShapes are the two shapes of self-loop: whileone's unconditional
// `add; b .` and a conditional countdown `sub; cmp; bne self` that falls
// through every 5 passes into an SVC and starts again.
var loopShapes = []loopShape{
	{"spin", func() *Program { return spin(0x100) }, 0x100, CostALU + CostBranch},
	{"countdown", func() *Program {
		a := NewAssembler(0x100)
		a.Label("top").
			Emit(MovImm{R6, 5}).
			Label("countdown").
			Emit(SubImm{R6, R6, 1}).
			Emit(CmpImm{R6, 0}).
			BTo(NE, "countdown").
			Emit(SVC{Imm: 3}).
			BTo(AL, "top")
		return a.MustAssemble()
	}, 0x104, 2*CostALU + CostBranch},
}

// runResume runs both twins once and resumes them from a preemption
// (re-arming the tick at reload) or an SVC, as the kernel loop would.
func (tw *twins) runResume(t *testing.T, budget uint64, reload uint32) *Stop {
	t.Helper()
	stop := tw.run(t, budget)
	switch stop.Reason {
	case StopPreempted, StopSyscall:
		tw.both(func(m *Machine) {
			if stop.Reason == StopPreempted {
				m.Tick.Arm(reload)
			}
			if err := m.exceptionReturn(m.CPU.LR); err != nil {
				t.Fatal(err)
			}
		})
		if d := tw.diff(); d != "" {
			t.Fatalf("state diverges after resume: %s", d)
		}
	}
	return stop
}

// requireChained fails unless the fast twin built sh's loop block as a
// self-loop the chain can run.
func (tw *twins) requireChained(t *testing.T, sh loopShape) {
	t.Helper()
	b := tw.fast.fast.table.Lookup(sh.base)
	if b == nil || b.Prefix[b.Loop] != sh.pass || b.Loop > b.Cover {
		t.Fatalf("%s: loop block at 0x%x not chainable: %+v", sh.name, sh.base, b)
	}
}

func TestFastCoreChainTickSweep(t *testing.T) {
	// Every reload from one cycle to past three passes, so the tick
	// lands at every offset of the first, second and third pass.
	for _, sh := range loopShapes {
		for reload := uint32(1); uint64(reload) <= 3*sh.pass+1; reload++ {
			t.Run(fmt.Sprintf("%s/reload%d", sh.name, reload), func(t *testing.T) {
				tw := newTwins(t, func(m *Machine) { setupUser(m, sh.prog()) })
				tw.runQuanta(t, 60, reload)
				tw.requireChained(t, sh)
			})
		}
	}
}

func TestFastCoreChainBudgetCut(t *testing.T) {
	// Budgets from one cycle to past three passes cut the chain at
	// every instruction of a pass, with and without a live tick.
	for _, sh := range loopShapes {
		for _, reload := range []uint32{0, 23} {
			for budget := uint64(1); budget <= 3*sh.pass+1; budget++ {
				t.Run(fmt.Sprintf("%s/reload%d/budget%d", sh.name, reload, budget), func(t *testing.T) {
					tw := newTwins(t, func(m *Machine) { setupUser(m, sh.prog()) })
					if reload != 0 {
						tw.both(func(m *Machine) { m.Tick.Arm(reload) })
					}
					for i := 0; i < 40; i++ {
						tw.runResume(t, budget, reload)
					}
					tw.requireChained(t, sh)
				})
			}
		}
	}
}

func TestFastCoreChainTimerGlitches(t *testing.T) {
	// DropNext and Jitter land between budget cuts, while the machine
	// is inside a chained loop with the tick counting down.
	glitches := []struct {
		name string
		f    func(m *Machine)
	}{
		{"dropnext", func(m *Machine) { m.Tick.DropNext() }},
		{"jitter+7", func(m *Machine) { m.Tick.Jitter(7) }},
		{"jitter-5", func(m *Machine) { m.Tick.Jitter(-5) }},
		{"jitter-to-1", func(m *Machine) { m.Tick.Jitter(-1 << 20) }},
	}
	for _, sh := range loopShapes {
		for _, g := range glitches {
			t.Run(sh.name+"/"+g.name, func(t *testing.T) {
				const reload = 40
				tw := newTwins(t, func(m *Machine) { setupUser(m, sh.prog()) })
				tw.both(func(m *Machine) { m.Tick.Arm(reload) })
				for i := 0; i < 30; i++ {
					tw.runResume(t, 0, reload)
				}
				tw.requireChained(t, sh)
				for i := 0; i < 30; i++ {
					tw.runResume(t, 11, reload)
					tw.both(g.f)
					tw.runResume(t, 0, reload)
				}
			})
		}
	}
}

func TestFastCoreChainMPUFlip(t *testing.T) {
	// The code region changes between runs while the loop block is
	// cached as chainable: the stamp must force a cover recheck, and the
	// next fetch fault or the next pass must match the oracle. The
	// straddle case leaves the loop's branch outside the new region, so
	// the cover no longer spans the loop.
	flips := []struct {
		name string
		base uint32
		f    func(m *Machine)
	}{
		{"disable-code", 0x100, func(m *Machine) { m.MPU.FlipBits(2, 0, RASREnable) }},
		{"flip-and-restore", 0x100, func(m *Machine) {
			snap := m.MPU.Snapshot()
			m.MPU.FlipBits(2, 0, RASREnable)
			m.MPU.Restore(snap)
		}},
		{"straddle", 0x3fc, func(m *Machine) {
			if err := m.MPU.WriteRegion(2, 0, mkRASR(1024, 0, mpu.ReadExecuteOnly, true)); err != nil {
				panic(err)
			}
		}},
	}
	for _, fl := range flips {
		t.Run(fl.name, func(t *testing.T) {
			const reload = 100
			sh := loopShape{"spin", func() *Program { return spin(fl.base) }, fl.base, CostALU + CostBranch}
			tw := newTwins(t, func(m *Machine) { setupUser(m, sh.prog()) })
			tw.both(func(m *Machine) { m.Tick.Arm(reload) })
			for i := 0; i < 10; i++ {
				tw.runResume(t, 0, reload)
			}
			tw.requireChained(t, sh)
			tw.both(fl.f)
			for i := 0; i < 10; i++ {
				if stop := tw.runResume(t, 0, reload); stop.Reason == StopFault {
					break
				}
			}
		})
	}
}

func TestFastCoreChainHitsCountEntries(t *testing.T) {
	// A whileone quantum: a reload of a whole number of passes ends
	// each quantum on the loop branch, so every quantum enters the loop
	// block at its base once per pass. Each chained pass must count as
	// one hit, so hits are exactly half the retired instructions.
	const passes = 1000
	reg := metrics.NewRegistry()
	m := testMachine(t)
	m.AttachMetrics(reg)
	setupUser(m, spin(0x100))
	m.SetFastCore(true)
	instrs := reg.Counter("armv7m_instructions_total")
	m.Tick.Arm(passes * (CostALU + CostBranch))
	for q := 0; q < 5; q++ {
		hits, retired := m.FastStats().Hits, instrs.Value()
		stop, err := m.Run(0)
		if err != nil || stop.Reason != StopPreempted {
			t.Fatalf("quantum %d: stop=%v err=%v", q, stop, err)
		}
		dh, dr := m.FastStats().Hits-hits, instrs.Value()-retired
		if q > 0 && (dr != 2*passes || dh != passes) {
			t.Fatalf("quantum %d: %d hits for %d retired instructions, want %d for %d", q, dh, dr, passes, 2*passes)
		}
		if m.CPU.PC != 0x100 {
			t.Fatalf("quantum %d ended at pc 0x%x, want the loop base", q, m.CPU.PC)
		}
		m.Tick.Arm(passes * (CostALU + CostBranch))
		if err := m.exceptionReturn(m.CPU.LR); err != nil {
			t.Fatal(err)
		}
	}
}
