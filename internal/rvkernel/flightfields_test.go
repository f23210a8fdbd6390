package rvkernel

import (
	"fmt"
	"testing"

	"ticktock/internal/flightrec"
	"ticktock/internal/physmem"
	"ticktock/internal/riscv"
	"ticktock/internal/rv32"
)

// wantMachineNames is the machine's flight-field name list in the
// fmt.Sprintf form recordings were first written with.
func wantMachineNames(entries int) []string {
	var names []string
	for i := 1; i < 32; i++ {
		names = append(names, fmt.Sprintf("cpu.x%d", i))
	}
	names = append(names, "cpu.pc", "cpu.priv", "csr.mepc", "csr.mcause", "csr.mtval", "csr.mpp",
		"clint.enabled", "clint.current", "clint.pending", "clint.fired")
	for i := 0; i < entries; i++ {
		names = append(names, fmt.Sprintf("pmp.cfg%d", i), fmt.Sprintf("pmp.addr%d", i))
	}
	return names
}

func checkNames(t *testing.T, fields []flightrec.Field, want []string) {
	t.Helper()
	if len(fields) != len(want) {
		t.Fatalf("%d fields, want %d", len(fields), len(want))
	}
	for i, f := range fields {
		if f.Name != want[i] {
			t.Fatalf("field %d = %q, want %q", i, f.Name, want[i])
		}
	}
}

// TestFlightFieldNamesPinned pins every flight-field name, in order,
// against the original fmt.Sprintf formats: recordings and bisection
// reports compare fields by name, so a renamed field would break replay
// of every recording already sealed. It covers each chip's PMP entry
// count, a chip past the precomputed name tables, and multi-digit
// process IDs.
func TestFlightFieldNamesPinned(t *testing.T) {
	for _, chip := range riscv.Chips {
		t.Run(chip.Name, func(t *testing.T) {
			k, err := New(chip)
			if err != nil {
				t.Fatal(err)
			}
			for _, app := range ReleaseSubset()[:2] {
				if _, err := k.LoadProcess(app); err != nil {
					t.Fatal(err)
				}
			}
			k.Procs[1].ID = 42
			want := append(wantMachineNames(chip.Entries),
				"kern.switches", "kern.faults", "kern.restarts", "kern.leds", "kern.cursor")
			for _, p := range k.Procs {
				pre := fmt.Sprintf("proc.%d.", p.ID)
				want = append(want, pre+"state", pre+"pc", pre+"restarts", pre+"wake", pre+"regs",
					fmt.Sprintf("out.%d", p.ID))
			}
			checkNames(t, k.FlightFields(), want)
		})
	}
	t.Run("past-name-tables", func(t *testing.T) {
		chip := riscv.ChipConfig{Name: "wide", Entries: 70, Granularity: 4, TORSupported: true}
		mem := physmem.NewMemory()
		if _, err := mem.Map("ram", 0, 0x1000); err != nil {
			t.Fatal(err)
		}
		checkNames(t, rv32.NewMachine(mem, chip).FlightFields(), wantMachineNames(chip.Entries))
	})
}
