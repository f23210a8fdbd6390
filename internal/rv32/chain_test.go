package rv32

import (
	"fmt"
	"testing"

	"ticktock/internal/cycles"
	"ticktock/internal/mpu"
	"ticktock/internal/riscv"
)

// rvLoopShape is one self-loop the fast core chains: the program, the
// base of its loop block and the cycles one pass costs.
type rvLoopShape struct {
	name string
	prog func() *Program
	base uint32
	pass uint64
}

// rvLoopShapes are the two shapes of self-loop: whileone's Jal loop
// `addi; j .` and a conditional countdown `addi; bne self` that falls
// through every 5 passes into an ecall and starts again.
var rvLoopShapes = []rvLoopShape{
	{"spin", func() *Program { return rvSpin(0x2000_0000) }, 0x2000_0000, cycles.ALU + cycles.Call},
	{"countdown", func() *Program {
		a := NewAssembler(0x2000_0000)
		a.Label("top").
			Emit(Li{T1, 5}).
			Label("countdown").
			Emit(Addi{T1, T1, -1}).
			BTo(BNE, T1, Zero, "countdown").
			Emit(Ecall{}).
			JTo("top")
		return a.MustAssemble()
	}, 0x2000_0004, cycles.ALU + cycles.Branch},
}

// runResume runs both twins once and resumes them from a timer stop
// (re-arming the CLINT at reload) or an ecall, as rvkernel would.
func (tw *rvTwins) runResume(t *testing.T, budget, reload uint64) *Stop {
	t.Helper()
	stop := tw.run(t, budget)
	switch stop.Reason {
	case StopTimer, StopEcall:
		tw.both(func(m *Machine) {
			pc := m.CSR.MEPC
			if stop.Reason == StopEcall {
				pc += 4
			} else {
				m.Timer.Arm(reload)
			}
			m.ResumeUser(pc)
		})
		if d := tw.diff(); d != "" {
			t.Fatalf("state diverges after resume: %s", d)
		}
	}
	return stop
}

// requireChained fails unless the fast twin built sh's loop block as a
// self-loop the chain can run.
func (tw *rvTwins) requireChained(t *testing.T, sh rvLoopShape) {
	t.Helper()
	b := tw.fast.fast.table.Lookup(sh.base)
	if b == nil || b.Prefix[b.Loop] != sh.pass || b.Loop > b.Cover {
		t.Fatalf("%s: loop block at 0x%x not chainable: %+v", sh.name, sh.base, b)
	}
}

func TestRvFastCoreChainTickSweep(t *testing.T) {
	// Every reload from one cycle to past three passes, so the CLINT
	// expires at every offset of the first, second and third pass.
	for _, sh := range rvLoopShapes {
		for reload := uint64(1); reload <= 3*sh.pass+1; reload++ {
			t.Run(fmt.Sprintf("%s/reload%d", sh.name, reload), func(t *testing.T) {
				tw := newRvTwins(t, riscv.ChipHiFive1, func(m *Machine) { setupRvUser(m, sh.prog()) })
				tw.runRvQuanta(t, 60, reload)
				tw.requireChained(t, sh)
			})
		}
	}
}

func TestRvFastCoreChainBudgetCut(t *testing.T) {
	// Budgets from one cycle to past three passes cut the chain at
	// every instruction of a pass, with and without a live timer.
	for _, sh := range rvLoopShapes {
		for _, reload := range []uint64{0, 23} {
			for budget := uint64(1); budget <= 3*sh.pass+1; budget++ {
				t.Run(fmt.Sprintf("%s/reload%d/budget%d", sh.name, reload, budget), func(t *testing.T) {
					tw := newRvTwins(t, riscv.ChipHiFive1, func(m *Machine) { setupRvUser(m, sh.prog()) })
					if reload != 0 {
						tw.both(func(m *Machine) { m.Timer.Arm(reload) })
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

func TestRvFastCoreChainTimerGlitches(t *testing.T) {
	// DropNext and Jitter land between budget cuts, while the machine
	// is inside a chained loop with the CLINT counting down. A dropped
	// expiry leaves the count at zero, where every later instruction
	// must re-evaluate expiry: the chain must not run there.
	glitches := []struct {
		name string
		f    func(m *Machine)
	}{
		{"dropnext", func(m *Machine) { m.Timer.DropNext() }},
		{"jitter+7", func(m *Machine) { m.Timer.Jitter(7) }},
		{"jitter-5", func(m *Machine) { m.Timer.Jitter(-5) }},
		{"jitter-to-1", func(m *Machine) { m.Timer.Jitter(-1 << 20) }},
	}
	for _, sh := range rvLoopShapes {
		for _, g := range glitches {
			t.Run(sh.name+"/"+g.name, func(t *testing.T) {
				const reload = 40
				tw := newRvTwins(t, riscv.ChipLiteX, func(m *Machine) { setupRvUser(m, sh.prog()) })
				tw.both(func(m *Machine) { m.Timer.Arm(reload) })
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

func TestRvFastCoreChainPMPFlip(t *testing.T) {
	// The code entry changes between runs while the loop block is
	// cached as chainable: the stamp must force a cover recheck, and the
	// next fetch fault or the next pass must match the oracle. The
	// straddle case leaves the loop's Jal outside the new entry, so the
	// cover no longer spans the loop.
	flips := []struct {
		name string
		base uint32
		f    func(m *Machine)
	}{
		{"clear-code-mode", 0x2000_0000, func(m *Machine) {
			cfg, _ := m.PMP.Entry(0)
			m.PMP.FlipBits(0, cfg, 0)
		}},
		{"flip-addr", 0x2000_0000, func(m *Machine) { m.PMP.FlipBits(0, 0, 1<<12) }},
		{"straddle", 0x2000_03fc, func(m *Machine) {
			code, _ := riscv.EncodeNAPOT(0x2000_0000, 0x400)
			if err := m.PMP.SetEntry(0, riscv.EncodeCfg(mpu.ReadExecuteOnly, riscv.ANapot), code); err != nil {
				panic(err)
			}
		}},
	}
	for _, fl := range flips {
		t.Run(fl.name, func(t *testing.T) {
			const reload = 100
			sh := rvLoopShape{"spin", func() *Program { return rvSpin(fl.base) }, fl.base, cycles.ALU + cycles.Call}
			tw := newRvTwins(t, riscv.ChipHiFive1, func(m *Machine) { setupRvUser(m, sh.prog()) })
			tw.both(func(m *Machine) { m.Timer.Arm(reload) })
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

func TestRvFastCoreChainHitsCountEntries(t *testing.T) {
	// A whileone quantum: a countdown of a whole number of passes ends
	// each quantum on the Jal, so every quantum enters the loop block at
	// its base once per pass. Each chained pass must count as one hit,
	// so hits are exactly half the retired instructions (one addi and
	// one Jal per pass).
	const passes = 1000
	m := testMachine(t, riscv.ChipHiFive1)
	setupRvUser(m, rvSpin(0x2000_0000))
	m.SetFastCore(true)
	m.Timer.Arm(passes * (cycles.ALU + cycles.Call))
	for q := 0; q < 5; q++ {
		hits, adds := m.FastStats().Hits, m.X[S2]
		stop, err := m.Run(0)
		if err != nil || stop.Reason != StopTimer {
			t.Fatalf("quantum %d: stop=%v err=%v", q, stop, err)
		}
		pc := m.CSR.MEPC
		retired := 2 * uint64(m.X[S2]-adds)
		if dh := m.FastStats().Hits - hits; q > 0 && (retired != 2*passes || dh != passes) {
			t.Fatalf("quantum %d: %d hits for %d retired instructions, want %d for %d", q, dh, retired, passes, 2*passes)
		}
		if pc != 0x2000_0000 {
			t.Fatalf("quantum %d ended at pc 0x%x, want the loop base", q, pc)
		}
		m.Timer.Arm(passes * (cycles.ALU + cycles.Call))
		m.ResumeUser(pc)
	}
}
