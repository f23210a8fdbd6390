package difftest

// Core-oracle differential testing: the same campaign discipline the
// §6.1 flavour diff applies between kernels is applied between emulator
// cores. The byte-scan Step core is the trusted oracle; the block-cache
// fast core must reproduce its console output and final process states
// byte for byte on every case and both kernel flavours. Unlike the
// cross-flavour diff, *zero* divergences are expected — there are no
// legitimately-differing cases, because the cores execute the very same
// kernel and the fast core's contract is full observational equality.

import (
	"context"
	"fmt"
	"strings"

	"ticktock/internal/apps"
	"ticktock/internal/campaign"
	"ticktock/internal/kernel"
	"ticktock/internal/monolithic"
)

// CoreRow is one (case, flavour) comparison between the oracle core and
// the block-cache fast core.
type CoreRow struct {
	Name    string
	Flavour kernel.Flavour
	Equal   bool
	// Oracle and Fast combine console output and final process states
	// per core.
	Oracle string
	Fast   string
	Err    error
}

// OK reports whether the row shows the cores agreeing.
func (r CoreRow) OK() bool { return r.Err == nil && r.Equal }

// RunCoreOracleCase runs one case on one flavour under both cores and
// compares output plus final states.
func RunCoreOracleCase(tc apps.TestCase, fl kernel.Flavour) CoreRow {
	row := CoreRow{Name: tc.Name, Flavour: fl}
	slowK, slowOut, slowStates, err := runOn(tc, fl, monolithic.BugSet{}, nil, nil, nil, true)
	if err != nil {
		row.Err = err
		return row
	}
	fastK, fastOut, fastStates, err := runOn(tc, fl, monolithic.BugSet{}, nil, nil, nil, false)
	if err != nil {
		row.Err = err
		return row
	}
	// A parity check whose oracle arm ran the fast core (or whose fast
	// arm did not) compares a core with itself and proves nothing.
	if slowK.Board.Machine.FastCore() || !fastK.Board.Machine.FastCore() {
		row.Err = fmt.Errorf("difftest %s on %s: core-oracle arms not on oracle/fast cores (oracle fast=%v, fast fast=%v)",
			tc.Name, fl, slowK.Board.Machine.FastCore(), fastK.Board.Machine.FastCore())
		return row
	}
	row.Oracle = slowOut + "\n" + slowStates
	row.Fast = fastOut + "\n" + fastStates
	row.Equal = row.Oracle == row.Fast
	return row
}

// RunCoreOracle runs the full release-test suite on both flavours,
// each case once per core, as units of the campaign supervisor with
// the given worker count (0 = GOMAXPROCS). Every row must be OK; a
// comparison that panics comes back as an errored row.
func RunCoreOracle(workers int) []CoreRow {
	cases := apps.All()
	flavours := []kernel.Flavour{kernel.FlavourTickTock, kernel.FlavourTock}
	at := func(i int) (apps.TestCase, kernel.Flavour) {
		return cases[i/len(flavours)], flavours[i%len(flavours)]
	}
	run, err := campaign.Supervise(campaign.Config{Workers: workers}, campaign.Source[CoreRow]{
		N:    len(cases) * len(flavours),
		Kind: "difftest-cores",
		Key: func(i int) string {
			tc, fl := at(i)
			return tc.Name + "/" + fl.String()
		},
		Run: func(_ context.Context, i int) (CoreRow, error) { return RunCoreOracleCase(at(i)), nil },
	})
	if err != nil {
		panic(err) // no journal and a non-negative unit count: cannot fail
	}
	rows := make([]CoreRow, len(run.Outcomes))
	for i, o := range run.Outcomes {
		rows[i] = o.Result
		if o.Status != campaign.StatusOK {
			tc, fl := at(i)
			last := o.Attempts[len(o.Attempts)-1]
			rows[i] = CoreRow{Name: tc.Name, Flavour: fl, Err: fmt.Errorf("%s: %s", last.Failure, last.Err)}
		}
	}
	return rows
}

// CoreOracleTable renders a core-oracle campaign as text.
func CoreOracleTable(rows []CoreRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-10s %s\n", "test", "flavour", "verdict")
	bad := 0
	for _, r := range rows {
		verdict := "ok"
		if r.Err != nil {
			verdict = fmt.Sprintf("ERROR: %v", r.Err)
			bad++
		} else if !r.Equal {
			verdict = "DIVERGED"
			bad++
		}
		fmt.Fprintf(&b, "%-18s %-10s %s\n", r.Name, r.Flavour, verdict)
	}
	fmt.Fprintf(&b, "\n%d core comparisons, %d divergent/errored\n", len(rows), bad)
	return b.String()
}
