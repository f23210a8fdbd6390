package armv7m

// The fast core: Run dispatches through a translation cache of
// predecoded basic blocks instead of per-instruction Step calls. The
// MPU execute check runs once per block entry over the block's cover
// (via the accessmap, stamped with the MPU configuration generation),
// cycle accounting is charged in per-batch prefix sums, and the slow
// path is re-entered only on control flow leaving the block, a pending
// tick, a trap, a privilege change, or a configuration-stamp change. A
// self-loop block (pure instructions closed by a B to its own base)
// runs its passes back to back under one tick-and-budget allowance.
// Step stays the trusted byte-scan oracle; docs/SPEED.md describes the
// equivalence argument, and the difftest core-oracle suite plus the
// internal/specs block-cache obligations check it differentially.

import (
	"ticktock/internal/blockcache"
	"ticktock/internal/mpu"
)

// fastBlockMax bounds the instructions predecoded per block. Blocks end
// dynamically at control flow, traps and tick expiries, so the bound
// only caps wasted decode work past a branch.
const fastBlockMax = 64

// fastTableBits sizes the direct-mapped block table (1<<bits slots).
const fastTableBits = 10

type fastState struct {
	table *blockcache.Table[Instr]
	hints blockcache.Hints
}

// SetFastCore enables or disables the block-cache fast core. Enabling
// it changes only speed: Run and the data-access checks take cached
// paths whose decisions are stamped with the MPU configuration
// generation, and every divergence-prone case (denial, trap, control
// flow, unmapped fetch) falls back to the oracle machinery.
func (m *Machine) SetFastCore(on bool) {
	if !on {
		m.fast = nil
		return
	}
	if m.fast == nil {
		m.fast = &fastState{table: blockcache.NewTable[Instr](fastTableBits)}
	}
}

// FastCore reports whether the block-cache fast core is enabled.
func (m *Machine) FastCore() bool { return m.fast != nil }

// FastStats returns the block-cache counters, or nil when the fast core
// is disabled.
func (m *Machine) FastStats() *blockcache.Stats {
	if m.fast == nil {
		return nil
	}
	return &m.fast.table.Stats
}

// buildBlock predecodes a straight-line block starting at pc, or
// returns nil when no loaded program covers pc (counted in SlowSteps;
// the caller slow-steps so the oracle raises the exact fetch fault) or
// the block is still cold (blockcache.Table.Cold). Permission state is
// deliberately not consulted here: blocks cache only decode results,
// which are immutable once a program is loaded; the per-entry cover
// check owns all permission decisions.
func (m *Machine) buildBlock(pc uint32) *blockcache.Block[Instr] {
	p := m.progAt(pc)
	if p == nil || (pc-p.Base)%4 != 0 {
		m.fast.table.Stats.SlowSteps++
		return nil
	}
	if m.fast.table.Cold(pc) {
		return nil
	}
	i := int((pc - p.Base) / 4)
	n := len(p.Instrs) - i
	if n > fastBlockMax {
		n = fastBlockMax
	}
	b := &blockcache.Block[Instr]{
		Base:   pc,
		Instrs: p.Instrs[i : i+n],
		Prefix: make([]uint64, n+1),
		Cover:  -1,
	}
	for k, in := range b.Instrs {
		b.Prefix[k+1] = b.Prefix[k] + in.Cost()
		if pureInstr(in) {
			b.Pure |= 1 << uint(k)
		}
	}
	b.Loop = blockcache.SelfLoop(b, func(in Instr) bool {
		br, ok := in.(B)
		return ok && br.Addr == pc
	})
	m.fast.table.Insert(b)
	return b
}

// chain runs up to max whole passes of the self-loop block b back to
// back: the pure body with a stale PC, then the loop branch at its
// architectural PC. It returns the passes whose branch was taken and,
// if a branch fell through, retired = b.Loop for that completed pass
// (PC still at the branch). It charges nothing; the caller charges
// every pass at once. Pure instructions and a direct B cannot fault,
// change privilege or touch the MPU, so no pass needs a table lookup,
// a stamp or cover recheck, or an exception poll.
func (m *Machine) chain(b *blockcache.Block[Instr], max uint64) (passes uint64, retired int) {
	// buildBlock only marks a loop whose back edge is a B, so the
	// branch is dispatched once here rather than once per pass.
	body, br := b.Instrs[:b.Loop-1], b.Instrs[b.Loop-1].(B)
	brPC := b.Base + uint32(4*(b.Loop-1))
	for ; passes < max; passes++ {
		for _, in := range body {
			_ = execQuick(m, in)
		}
		m.pcWritten = false
		m.CPU.PC = brPC
		_ = br.Exec(m)
		if !m.pcWritten {
			return passes, b.Loop
		}
	}
	return passes, 0
}

// charge books n retired instructions costing cost cycles to the
// instruction counter, the meter and SysTick.
func (m *Machine) charge(cost, n uint64) {
	m.mInstr.Add(n)
	m.Meter.Add(cost)
	m.Tick.Advance(cost)
}

// pureInstr reports whether in's Exec always returns nil and never
// reads or writes the PC, mode, CONTROL or memory — i.e. the dispatch
// loop may run it with a stale PC and without checking for an error, a
// PC write or a privilege change. Register-file ALU and flag-setting
// compares qualify (R spans only R0-R12, so they cannot touch the PC);
// everything else conservatively does not.
func pureInstr(in Instr) bool {
	switch in.(type) {
	case AddImm, Add, SubImm, Sub, MovImm, MovReg, CmpImm, CmpReg,
		Mul, Eor, And, Orr, LslImm, LsrImm:
		return true
	}
	return false
}

// execQuick is the quickened dispatch: the hot opcodes go through
// concrete calls the compiler can devirtualize and inline, everything
// else through the interface. It invokes the very same Exec methods the
// oracle Step does — quickening changes dispatch cost, never semantics.
func execQuick(m *Machine, in Instr) error {
	// Cases are ordered by dynamic frequency in typical app code (loads,
	// stores and three-register ALU first): the compiler tests the cases
	// in order, so hot opcodes resolve in the first few compares.
	switch q := in.(type) {
	case Ldr:
		return q.Exec(m)
	case Str:
		return q.Exec(m)
	case Add:
		return q.Exec(m)
	case Eor:
		return q.Exec(m)
	case AddImm:
		return q.Exec(m)
	case SubImm:
		return q.Exec(m)
	case CmpImm:
		return q.Exec(m)
	case B:
		return q.Exec(m)
	case Ldrb:
		return q.Exec(m)
	case Strb:
		return q.Exec(m)
	case Mul:
		return q.Exec(m)
	case And:
		return q.Exec(m)
	case Orr:
		return q.Exec(m)
	case LslImm:
		return q.Exec(m)
	case LsrImm:
		return q.Exec(m)
	case Sub:
		return q.Exec(m)
	case MovImm:
		return q.Exec(m)
	case MovReg:
		return q.Exec(m)
	case CmpReg:
		return q.Exec(m)
	case BL:
		return q.Exec(m)
	case BXLR:
		return q.Exec(m)
	default:
		return in.Exec(m)
	}
}

// runFast is the fast-core Run loop. Every observable effect — register
// and memory state, fault status, meter and timer totals, metrics,
// trace and exception hook invocations — is byte-identical with the
// oracle Run; only the number of MPU checks and program lookups differs.
func (m *Machine) runFast(budget uint64) (*Stop, error) {
	f := m.fast
	start := m.Meter.Cycles()
	for {
		// The oracle polls the pending tick before every instruction;
		// the batch limit below guarantees a tick can only latch on a
		// batch's last instruction, so polling per batch entry is
		// equivalent.
		if m.Tick.TakePending() {
			m.mTick.Inc()
			if err := m.TakeException(ExcSysTick); err != nil {
				return nil, err
			}
			return &Stop{Reason: StopPreempted}, nil
		}
		pc := m.CPU.PC
		b := f.table.Lookup(pc)
		if b == nil {
			b = m.buildBlock(pc)
		}
		if b == nil {
			// The block at pc is still cold, or no decoded program
			// covers pc (or it is misaligned): slow-step, so cold code
			// is interpreted and the oracle fetch raises the identical
			// fault for an unmapped pc.
			stop, err := m.Step()
			if stop != nil || err != nil {
				return stop, err
			}
			if budget != 0 && m.Meter.Cycles()-start >= budget {
				return &Stop{Reason: StopBudget}, nil
			}
			continue
		}
		priv := m.CPU.Privileged()
		stamp := m.MPU.FastStamp()
		if b.Cover < 0 || b.Stamp != stamp || b.Priv != priv {
			b.Cover = 0
			if iv, ok := m.MPU.AccessMap().Lookup(pc, mpu.AccessExecute, priv); ok {
				b.Cover = blockcache.CoverFromInterval(b.Base, len(b.Instrs), 4, iv)
			}
			b.Stamp, b.Priv = stamp, priv
			f.table.Stats.CoverRechecks++
		}
		n := b.Cover
		if n == 0 {
			// Execute denied at pc: slow-step so the oracle raises the
			// exact IACCVIOL MemManage fault.
			f.table.Stats.SlowSteps++
			stop, err := m.Step()
			if stop != nil || err != nil {
				return stop, err
			}
			if budget != 0 && m.Meter.Cycles()-start >= budget {
				return &Stop{Reason: StopBudget}, nil
			}
			continue
		}
		// One cycle allowance bounds everything retired from this entry,
		// so a tick can latch only on its last instruction
		// (SysTick.Advance is associative across splits, so one batched
		// Advance then equals the oracle's per-instruction calls) and the
		// cycle budget is honoured at the same instruction the oracle
		// stops at. The crossing instruction itself stays in the batch,
		// mirroring the oracle's post-Exec Advance and post-Step budget
		// check.
		allow := ^uint64(0)
		if m.Tick.Enabled && m.Tick.Reload != 0 {
			allow = uint64(max(m.Tick.current, 1)) - 1
		}
		if budget != 0 {
			allow = min(allow, budget-(m.Meter.Cycles()-start)-1)
		}
		// A self-loop first runs every whole pass the allowance admits
		// back to back, charged at once: no tick latches and the budget
		// does not run out inside the allowance, so charging them before
		// the batch is what the oracle's per-instruction charges add up
		// to. The final partial pass, or the rest of the block after a
		// fall-through, is the batch below.
		retired := 0
		if b.Loop != 0 && b.Loop <= n && m.Trace == nil {
			var passes uint64
			passes, retired = m.chain(b, allow/b.Prefix[b.Loop])
			if passes != 0 {
				cost := passes * b.Prefix[b.Loop]
				m.charge(cost, passes*uint64(b.Loop))
				allow -= cost
				f.table.Stats.Hits += passes
			}
		}
		if k := blockcache.BatchLimit(b.Prefix, n, allow); k+1 < n {
			n = k + 1
		}
		// pcWritten is cleared once per batch, not per instruction: only
		// writePC sets it, the loop breaks immediately after any set, and
		// pure instructions never call it.
		m.pcWritten = false
		var execErr error
		if m.Trace == nil {
			for i := retired; i < n; i++ {
				in := b.Instrs[i]
				if b.Pure&(1<<uint(i)) != 0 {
					// Pure per Block.Pure: no error, no PC access, no
					// privilege change. The stale PC is unobservable (no
					// trace hook here) until the next impure instruction,
					// which restores it before executing.
					_ = execQuick(m, in)
					retired = i + 1
					continue
				}
				m.CPU.PC = b.Base + uint32(4*i)
				execErr = execQuick(m, in)
				retired = i + 1
				if execErr != nil || m.pcWritten {
					break
				}
				// An MSR CONTROL write can change the privilege level
				// mid-block; the oracle refetches at the new privilege, so
				// end the batch and let the cover recheck take over.
				if m.CPU.Privileged() != priv {
					break
				}
			}
		} else {
			// With a trace hook attached every instruction must observe
			// its architectural PC, so the pure shortcut is disabled.
			for i := 0; i < n; i++ {
				in := b.Instrs[i]
				m.CPU.PC = b.Base + uint32(4*i)
				m.Trace(m.CPU.PC, in)
				execErr = execQuick(m, in)
				retired = i + 1
				if execErr != nil || m.pcWritten {
					break
				}
				if m.CPU.Privileged() != priv {
					break
				}
			}
		}
		// Charge the batch in one go before any exception entry so the
		// meter, timer and instruction counter match the oracle at the
		// point the OnException hook observes them. No Exec reads the
		// meter or timer, so deferring the charges is unobservable.
		m.charge(b.Prefix[retired], uint64(retired))
		if execErr != nil {
			return m.execStop(execErr)
		}
		if !m.pcWritten {
			m.CPU.PC = b.Base + uint32(4*retired)
		}
		if budget != 0 && m.Meter.Cycles()-start >= budget {
			return &Stop{Reason: StopBudget}, nil
		}
	}
}
