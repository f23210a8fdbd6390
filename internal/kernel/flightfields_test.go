package kernel

import (
	"fmt"
	"testing"
)

// TestFlightFieldNamesPinned pins the kernel's own flight-field names,
// in order, against the original fmt.Sprintf formats, including a
// multi-digit process ID.
func TestFlightFieldNamesPinned(t *testing.T) {
	k := newTestKernel(t, Options{Flavour: FlavourTickTock})
	load(t, k, helloApp("a", "AAAA"))
	load(t, k, helloApp("b", "BBBB"))
	k.Procs[1].ID = 42
	var want []string
	for _, f := range k.Board.Machine.FlightFields() {
		want = append(want, f.Name)
	}
	want = append(want, "kern.switches", "kern.faults", "kern.restarts", "kern.leds", "kern.cursor")
	for _, p := range k.Procs {
		pre := fmt.Sprintf("proc.%d.", p.ID)
		want = append(want, pre+"state", pre+"psp", pre+"restarts", pre+"wake", pre+"regs",
			fmt.Sprintf("out.%d", p.ID))
	}
	got := k.FlightFields()
	if len(got) != len(want) {
		t.Fatalf("%d fields, want %d", len(got), len(want))
	}
	for i, f := range got {
		if f.Name != want[i] {
			t.Fatalf("field %d = %q, want %q", i, f.Name, want[i])
		}
	}
}
