package rv32

// The fast core: Run dispatches through a translation cache of
// predecoded basic blocks instead of per-instruction Step calls, with
// the PMP execute check performed once per block entry over the block's
// cover via the accessmap, and self-loop blocks run their passes back
// to back. See internal/armv7m/blockstep.go for the ARM twin and
// docs/SPEED.md for the equivalence argument. The one port-specific
// wrinkle is the CLINT: unlike SysTick, its Advance does not reload —
// after an expiry the count sits at zero and every later Advance
// re-evaluates expiry (this is how DropNext's swallowed tick is followed
// by a normally-latched one) — so a batched Advance is only equivalent
// to per-instruction calls when the batch ends at the first
// tick-crossing instruction, and a zero count with no latched interrupt
// forces single-instruction batches.

import (
	"ticktock/internal/blockcache"
	"ticktock/internal/mpu"
)

// fastBlockMax bounds the instructions predecoded per block.
const fastBlockMax = 64

// fastTableBits sizes the direct-mapped block table (1<<bits slots).
const fastTableBits = 10

type fastState struct {
	table *blockcache.Table[Instr]
	hints blockcache.Hints
}

// SetFastCore enables or disables the block-cache fast core. Enabling
// it changes only speed; Step stays the byte-scan oracle, and every
// divergence-prone case falls back to it.
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
// returns nil when no loaded program covers pc (counted in SlowSteps)
// or the block is still cold (blockcache.Table.Cold). Permission state
// is not consulted here; the per-entry cover check owns all permission
// decisions.
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
		switch br := in.(type) {
		case B:
			return br.Addr == pc
		case Jal:
			return br.Addr == pc
		}
		return false
	})
	m.fast.table.Insert(b)
	return b
}

// chain runs up to max whole passes of the self-loop block b back to
// back; see the armv7m twin. A Jal back edge links PC+4, so the branch
// runs at its architectural PC. Pure instructions and a direct branch
// cannot trap or touch the PMP, so no pass needs a table lookup, a
// stamp or cover recheck, or a timer poll.
func (m *Machine) chain(b *blockcache.Block[Instr], max uint64) (passes uint64, retired int) {
	// buildBlock only marks a loop whose back edge is a B or a Jal, so
	// the branch is dispatched once here rather than once per pass.
	body, last := b.Instrs[:b.Loop-1], b.Instrs[b.Loop-1]
	bcc, isB := last.(B)
	jal, _ := last.(Jal)
	brPC := b.Base + uint32(4*(b.Loop-1))
	for ; passes < max; passes++ {
		for _, in := range body {
			_ = execQuick(m, in)
		}
		m.pcWritten = false
		m.PC = brPC
		if isB {
			_ = bcc.Exec(m)
		} else {
			_ = jal.Exec(m)
		}
		if !m.pcWritten {
			return passes, b.Loop
		}
	}
	return passes, 0
}

// charge books cost cycles to the meter and the CLINT.
func (m *Machine) charge(cost uint64) {
	m.Meter.Add(cost)
	m.Timer.Advance(cost)
}

// pureInstr reports whether in's Exec always returns nil and never
// reads or writes the PC, memory, CSRs or the timer — i.e. the dispatch
// loop may run it with a stale PC and without checking for an error or
// a PC write. Register-file ALU operations qualify (x0 discards are
// handled inside setReg); everything else conservatively does not.
func pureInstr(in Instr) bool {
	switch in.(type) {
	case Addi, Add, Sub, Li, And, Or, Xor, Slli, Srli, Mul, Divu:
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
	// stores and register ALU first): the compiler tests the cases in
	// order, so hot opcodes resolve in the first few compares.
	switch q := in.(type) {
	case Lw:
		return q.Exec(m)
	case Sw:
		return q.Exec(m)
	case Add:
		return q.Exec(m)
	case Xor:
		return q.Exec(m)
	case Addi:
		return q.Exec(m)
	case And:
		return q.Exec(m)
	case Or:
		return q.Exec(m)
	case B:
		return q.Exec(m)
	case Lbu:
		return q.Exec(m)
	case Sb:
		return q.Exec(m)
	case Mul:
		return q.Exec(m)
	case Srli:
		return q.Exec(m)
	case Slli:
		return q.Exec(m)
	case Sub:
		return q.Exec(m)
	case Li:
		return q.Exec(m)
	case Jal:
		return q.Exec(m)
	case Jalr:
		return q.Exec(m)
	default:
		return in.Exec(m)
	}
}

// runFast is the fast-core Run loop, byte-identical with the oracle Run
// in every observable effect. The user-mode-only pending poll mirrors
// Step exactly; see the Step comment for why machine mode defers ticks.
func (m *Machine) runFast(budget uint64) (*Stop, error) {
	f := m.fast
	start := m.Meter.Cycles()
	for {
		if m.Priv == PrivUser && m.Timer.TakePending() {
			m.trap(CauseMachineTimer, 0)
			return &Stop{Reason: StopTimer, Cause: CauseMachineTimer}, nil
		}
		pc := m.PC
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
		priv := m.machineMode()
		stamp := m.PMP.FastStamp()
		if b.Cover < 0 || b.Stamp != stamp || b.Priv != priv {
			b.Cover = 0
			if iv, ok := m.PMP.AccessMap().Lookup(pc, mpu.AccessExecute, priv); ok {
				b.Cover = blockcache.CoverFromInterval(b.Base, len(b.Instrs), 4, iv)
			}
			b.Stamp, b.Priv = stamp, priv
			f.table.Stats.CoverRechecks++
		}
		n := b.Cover
		if n == 0 {
			// Execute denied at pc: slow-step so the oracle raises the
			// exact instruction access fault.
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
		// One cycle allowance bounds everything retired from this entry.
		// CLINT batching rule (see package comment): with the interrupt
		// already latched, Advance only subtracts and batching is free;
		// otherwise it must end at the first tick-crossing instruction,
		// and a post-expiry zero count forces single steps. The budget
		// stops at the same instruction as the oracle.
		allow := ^uint64(0)
		if m.Timer.Enabled && !m.Timer.pending {
			allow = max(m.Timer.current, 1) - 1
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
		if b.Loop != 0 && b.Loop <= n {
			var passes uint64
			passes, retired = m.chain(b, allow/b.Prefix[b.Loop])
			if passes != 0 {
				cost := passes * b.Prefix[b.Loop]
				m.charge(cost)
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
		for i := retired; i < n; i++ {
			in := b.Instrs[i]
			if b.Pure&(1<<uint(i)) != 0 {
				// Pure per Block.Pure: no error, no PC access. The stale
				// PC is unobservable until the next impure instruction,
				// which restores it before executing.
				_ = execQuick(m, in)
				retired = i + 1
				continue
			}
			m.PC = b.Base + uint32(4*i)
			execErr = execQuick(m, in)
			retired = i + 1
			if execErr != nil || m.pcWritten {
				break
			}
		}
		// Charge the batch in one go before any trap entry so the meter
		// and timer match the oracle at trap time. No Exec reads the
		// meter or timer, so deferring the charges is unobservable.
		m.charge(b.Prefix[retired])
		if execErr != nil {
			return m.execStop(execErr)
		}
		if !m.pcWritten {
			m.PC = b.Base + uint32(4*retired)
		}
		if budget != 0 && m.Meter.Cycles()-start >= budget {
			return &Stop{Reason: StopBudget}, nil
		}
	}
}
