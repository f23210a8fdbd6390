package faultinject

import "ticktock/internal/metrics"

// This file is the campaign's side of the live telemetry plane: each
// terminal unit publishes its slice of the fault_* series into the
// plane's streaming aggregate (UnitsTelemetry registers the closure).
// It adds nothing to the simulated cycle meter.

// publishUnit books one terminal result into a registry, mirroring
// exactly the slice of Report.tally + Report.Publish this result
// contributes: the per-(port,kind) outcome cell and the quarantine
// deltas. Zero cells are skipped — the live aggregate only carries
// series that moved, while the post-hoc Publish also creates the
// zero-valued remainder of the kind matrix.
func (res Result) publishUnit(reg *metrics.Registry) {
	if reg == nil || res.Sup != "" {
		return
	}
	kl := metrics.L("kind", res.Scenario.Kind.String())
	for _, port := range []struct {
		name string
		pr   PortResult
	}{{"arm", res.ARM}, {"rv32", res.RV}} {
		pl := metrics.L("port", port.name)
		var c OutcomeCounts
		c.add(port.pr.Outcome)
		for _, cell := range []struct {
			name string
			v    uint64
		}{
			{"fault_injected_total", c.Injected},
			{"fault_detected_total", c.Detected},
			{"fault_masked_total", c.Masked},
			{"fault_benign_total", c.Benign},
			{"fault_skipped_total", c.Skipped},
		} {
			if cell.v != 0 {
				reg.Counter(cell.name, pl, kl).Add(cell.v)
			}
		}
		if port.pr.QuarantineDelta != 0 {
			reg.Counter("fault_quarantined_total", pl).Add(port.pr.QuarantineDelta)
		}
	}
}
