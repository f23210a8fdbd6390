package rv32

import (
	"strconv"

	"ticktock/internal/flightrec"
)

// Field names are fixed per index, so they are built once rather than
// formatted at every checkpoint. 64 is the most PMP entries the RISC-V
// privileged spec allows; pmpName formats any index past the tables.
var (
	xNames       = indexedNames("cpu.x", 32)
	pmpCfgNames  = indexedNames("pmp.cfg", 64)
	pmpAddrNames = indexedNames("pmp.addr", 64)
)

func indexedNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = prefix + strconv.Itoa(i)
	}
	return names
}

func pmpName(names []string, prefix string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return prefix + strconv.Itoa(i)
}

// FlightFields captures the complete architectural state of the RISC-V
// machine for the flight recorder: the integer register file, pc,
// privilege, the trap CSRs, the CLINT timer, and every PMP entry of the
// chip (cfg and address registers, so corrupted lock/mode bits are
// visible to bisection). Capture observes state only — it never touches
// the cycle meter.
func (m *Machine) FlightFields() []flightrec.Field {
	f := make([]flightrec.Field, 0, 48+2*m.PMP.Chip.Entries)
	for i := 1; i < 32; i++ {
		f = append(f, flightrec.F(xNames[i], uint64(m.X[i])))
	}
	f = append(f,
		flightrec.F("cpu.pc", uint64(m.PC)),
		flightrec.F("cpu.priv", uint64(m.Priv)),
		flightrec.F("csr.mepc", uint64(m.CSR.MEPC)),
		flightrec.F("csr.mcause", uint64(m.CSR.MCause)),
		flightrec.F("csr.mtval", uint64(m.CSR.MTVal)),
		flightrec.F("csr.mpp", uint64(m.CSR.MPP)),
		flightrec.F("clint.enabled", flightrec.B(m.Timer.Enabled)),
		flightrec.F("clint.current", m.Timer.Current()),
		flightrec.F("clint.pending", flightrec.B(m.Timer.Pending())),
		flightrec.F("clint.fired", m.Timer.Fired),
	)
	for i := 0; i < m.PMP.Chip.Entries; i++ {
		cfg, addr := m.PMP.Entry(i)
		f = append(f,
			flightrec.F(pmpName(pmpCfgNames, "pmp.cfg", i), uint64(cfg)),
			flightrec.F(pmpName(pmpAddrNames, "pmp.addr", i), uint64(addr)),
		)
	}
	return f
}
