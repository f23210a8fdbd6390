// Package ticktock is the public API of TickTock-Go, a simulation-backed
// reproduction of "TickTock: Verified Isolation in a Production Embedded
// OS" (SOSP 2025).
//
// The package exposes the pieces a downstream user composes:
//
//   - a simulated ARMv7-M board running a Tock-style kernel in two
//     flavours — TickTock (the verified granular MPU abstraction) and
//     Tock (the monolithic baseline, optionally with the paper's
//     published bugs re-enabled),
//   - user applications assembled for the machine model,
//   - the verification registry (the Flux stand-in) with bounded
//     exhaustive checking of every isolation obligation,
//   - the evaluation harnesses regenerating the paper's tables and
//     figures (differential testing, cycle benchmarks, memory footprint,
//     verification times, proof effort).
//
// See examples/quickstart for a three-minute tour.
package ticktock

import (
	"ticktock/internal/apps"
	"ticktock/internal/campaign"
	"ticktock/internal/cyclebench"
	"ticktock/internal/difftest"
	"ticktock/internal/fluxarm"
	"ticktock/internal/kernel"
	"ticktock/internal/membench"
	"ticktock/internal/metrics"
	"ticktock/internal/monolithic"
	"ticktock/internal/rvkernel"
	"ticktock/internal/specs"
	"ticktock/internal/verify"
)

// Kernel is a running operating-system instance on a simulated board.
type Kernel = kernel.Kernel

// Process is the kernel's per-process record.
type Process = kernel.Process

// App describes an application to load.
type App = kernel.App

// Options configures a kernel build.
type Options = kernel.Options

// Flavour selects the memory-management implementation.
type Flavour = kernel.Flavour

// Kernel flavours.
const (
	// FlavourTickTock is the verified granular abstraction.
	FlavourTickTock = kernel.FlavourTickTock
	// FlavourTock is the monolithic baseline.
	FlavourTock = kernel.FlavourTock
)

// BugSet re-enables the paper's published bugs on the baseline kernel.
type BugSet = monolithic.BugSet

// MetricsRegistry collects counters, gauges and cycle histograms from a
// kernel run. Pass one in Options.Metrics to instrument a kernel; the
// instrumentation observes the simulated-cycle meter but never charges
// it, so a metered run is cycle-identical to an unmetered one.
type MetricsRegistry = metrics.Registry

// MetricLabel is one key=value dimension on a metric series.
type MetricLabel = metrics.Label

// CycleProfile is a folded-stack profile whose stacks sum to the run's
// total simulated cycles (Kernel.Profile returns one).
type CycleProfile = metrics.Profile

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewKernel boots a kernel on a fresh simulated board.
func NewKernel(opts Options) (*Kernel, error) { return kernel.New(opts) }

// ReleaseTests returns the 21 differential-testing cases (§6.1).
func ReleaseTests() []apps.TestCase { return apps.All() }

// TestCase is one differential test.
type TestCase = apps.TestCase

// RunDifferentialCampaign executes all release tests on both kernel
// flavours in parallel and reports the comparison rows (§6.1). Per-case
// failures are recorded in each row's Err field.
func RunDifferentialCampaign() []difftest.Row {
	rows, _, _ := difftest.RunAll(difftest.Config{}, campaign.Config{}, nil) // no journal: cannot fail
	return rows
}

// CompareCycles regenerates the Figure 11 cycle table.
func CompareCycles() ([]cyclebench.Row, error) { return cyclebench.Compare() }

// MemoryFootprint regenerates the §6.2 memory microbenchmark rows.
func MemoryFootprint() ([]membench.Result, error) { return membench.RunAll() }

// VerificationScale sizes the bounded checker's domains.
type VerificationScale = specs.Scale

// Verification scales.
var (
	// QuickVerification keeps check runs fast (CI-sized domains).
	QuickVerification = specs.QuickScale
	// PaperVerification uses the Figure 12 domain sizes.
	PaperVerification = specs.PaperScale
)

// VerifyGranular checks every TickTock-side proof obligation.
func VerifyGranular(sc VerificationScale) *verify.Report {
	return specs.BuildGranular(sc).Run()
}

// VerifyMonolithic checks the baseline-abstraction obligations.
func VerifyMonolithic(sc VerificationScale) *verify.Report {
	return specs.BuildMonolithic(sc).Run()
}

// VerifyInterrupts checks the fluxarm context-switch obligations.
func VerifyInterrupts(sc VerificationScale) *verify.Report {
	return specs.BuildInterrupts(sc).Run()
}

// ProofEffort tabulates the registered obligations per component (Fig 10).
func ProofEffort() []verify.EffortRow {
	return specs.BuildAll(specs.QuickScale).Effort()
}

// CheckContextSwitch sweeps the fluxarm round trip; missedModeSwitch
// re-enables tock#4246 so the checker demonstrably catches it.
func CheckContextSwitch(seeds int, missedModeSwitch bool) []error {
	return fluxarm.VerifyInterruptIsolation(seeds, missedModeSwitch)
}

// RunRISCVCampaign executes the RISC-V release-test subset on all three
// supported chips — the paper's §6.1 QEMU runs.
func RunRISCVCampaign() ([]rvkernel.CampaignRow, error) { return rvkernel.RunAllChips() }
