// Command faultcamp runs the deterministic fault-injection campaign:
// seeded fault scenarios swept across both kernel ports, every injected
// fault classified against an uninjected baseline, and the isolation
// contracts re-checked after each injected run.
//
// Usage:
//
//	faultcamp [-seed N] [-n N] [-workers N] [-rows] [-metrics] [-replay]
//	          [-runpack DIR] [-distill DIR]
//	          [-resume FILE] [-timeout D] [-retries N] [-stop-after N]
//	          [-quarantine DIR] [-chaos SPEC] [-serve ADDR] [-progress]
//
// The same seed reproduces a byte-identical report. The exit status is
// non-zero when any scenario hit an infrastructure error or — the hard
// gate — any isolation-contract violation; an *empty* campaign (no
// scenarios, or every injection skipped with nothing else to show)
// exits 2 with a distinct message, so a vacuously green run can never
// pass for evidence. With -replay, every violating run is
// flight-recorded and the machine state immediately before the
// violation is replayed and printed — the time-travel view of how the
// contract broke.
//
// With -serve ADDR a live telemetry server answers while the campaign
// runs: /metrics (Prometheus exposition of the streaming fleet
// aggregate), /progress (JSON progress snapshot), /healthz and
// /timeline (the merged wall-clock/kernel-event fleet trace in Chrome
// trace-event JSON). -progress renders a single-line live ticker to
// stderr. Neither changes the report — telemetry observes the campaign,
// it never steers it.
//
// Every campaign runs under the crash-resilient supervisor
// (internal/campaign). -timeout, -retries, -resume, -stop-after,
// -quarantine and -chaos tune it: per-scenario wall-clock timeouts,
// panic isolation, retry with exponential backoff and poison
// quarantine. Any of them, or -serve or -progress, also adds the
// supervisor's campaign_* series to -metrics. With
// -resume FILE, completed scenarios are checkpointed to an fsync'd
// journal and an interrupted campaign continues from where it stopped —
// with byte-identical final output at any worker count. Quarantined
// scenarios never fail the campaign; with -quarantine DIR each one is
// sealed as a content-addressed bug-report pack. -chaos injects
// failures into the campaign machinery itself ("wedge:3,panic:5") to
// exercise those paths end to end.
//
// With -runpack DIR the campaign is sealed into a content-addressed
// artifact pack under DIR (verify it with `runpack verify`). With
// -distill DIR every scenario whose isolation sweep found violations is
// additionally distilled into a minimal regression pack under DIR.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ticktock/internal/campaign"
	"ticktock/internal/difftest"
	"ticktock/internal/faultinject"
	"ticktock/internal/metrics"
	"ticktock/internal/runpack"
	"ticktock/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultcamp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "campaign master seed")
	n := fs.Int("n", faultinject.DefaultScenarios, "number of scenarios")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	rows := fs.Bool("rows", false, "print the per-scenario cross-port table")
	metricsOut := fs.Bool("metrics", false, "print the fault_* and campaign_* series in Prometheus exposition format")
	replay := fs.Bool("replay", false, "flight-record violating runs and print their pre-violation state")
	packDir := fs.String("runpack", "", "seal the campaign into a content-addressed artifact pack under DIR")
	distillDir := fs.String("distill", "", "distill every violating scenario into a regression pack under DIR")
	resume := fs.String("resume", "", "resumable campaign journal FILE: checkpoint completed scenarios there and continue an interrupted campaign instead of restarting it")
	timeout := fs.Duration("timeout", 0, "per-scenario wall-clock timeout; a wedged scenario is cancelled and classified timeout (0 = unbounded)")
	retries := fs.Int("retries", 0, "retry budget per scenario; a scenario failing every attempt is quarantined, never fatal")
	stopAfter := fs.Int("stop-after", 0, "checkpoint and stop after N newly completed scenarios (pair with -resume to continue)")
	quarantineDir := fs.String("quarantine", "", "seal every quarantined scenario as a bug-report runpack under DIR")
	chaos := fs.String("chaos", "", `inject failures into the campaign machinery itself, e.g. "wedge:3,panic:5,flaky:7"`)
	serve := fs.String("serve", "", "serve live telemetry on ADDR while the campaign runs (/metrics, /progress, /healthz, /timeline); the bound address is printed to stderr")
	progress := fs.Bool("progress", false, "render a single-line live progress ticker to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n <= 0 {
		fmt.Fprintf(stderr, "faultcamp: empty campaign: -n %d selects no scenarios (use -n >= 1)\n", *n)
		return 2
	}

	cfg := faultinject.Config{
		Seed: *seed, N: *n, Workers: *workers,
		Record: *replay || *packDir != "",
		Chaos:  *chaos,
	}
	sup := campaign.Config{
		Timeout: *timeout, Retries: *retries,
		Journal: *resume, StopAfter: *stopAfter,
	}
	// Every run goes through the supervisor; a supervisor flag only
	// decides whether -metrics also publishes the campaign_* series,
	// whose steal counts vary run to run.
	supervised := *resume != "" || *timeout > 0 || *retries > 0 ||
		*stopAfter > 0 || *quarantineDir != "" || *chaos != "" ||
		*serve != "" || *progress

	var plane *telemetry.Plane
	if *serve != "" || *progress {
		plane = telemetry.New()
	}
	if *serve != "" {
		srv, err := telemetry.Serve(*serve, plane)
		if err != nil {
			fmt.Fprintf(stderr, "faultcamp: telemetry server: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "telemetry: serving http://%s\n", srv.Addr())
	}

	tty := (*telemetry.TTY)(nil)
	if *progress {
		tty = telemetry.StartTTY(stderr, plane, 0)
	}
	rep, supRun, err := faultinject.RunSupervised(cfg, sup, plane)
	tty.Stop()
	if err != nil {
		fmt.Fprintf(stderr, "faultcamp: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, rep.Text())

	if *packDir != "" {
		dir, receipt, err := runpack.EmitFaultcampSupervised(*packDir, rep, sup)
		if err != nil {
			fmt.Fprintf(stderr, "faultcamp: sealing runpack: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "runpack: %s\n%s\n", dir, receipt)
	}
	if *quarantineDir != "" {
		for _, o := range supRun.Quarantined() {
			dir, _, err := runpack.EmitQuarantine(*quarantineDir, cfg, o)
			if err != nil {
				fmt.Fprintf(stderr, "faultcamp: sealing quarantine pack for %s: %v\n", o.Key, err)
				return 1
			}
			fmt.Fprintf(stderr, "quarantined %s -> %s\n", o.Key, dir)
		}
	}
	if *distillDir != "" {
		for _, res := range rep.Results {
			if len(res.ARM.Violations)+len(res.RV.Violations) == 0 {
				continue
			}
			dir, _, err := runpack.DistillScenario(*distillDir, rep.Config, res.Scenario.Index)
			if err != nil {
				fmt.Fprintf(stderr, "faultcamp: distilling %s: %v\n", res.Scenario.Label(), err)
				return 1
			}
			fmt.Fprintf(stderr, "distilled %s -> %s\n", res.Scenario.Label(), dir)
		}
	}

	if *replay {
		for _, res := range rep.Results {
			for _, pr := range []faultinject.PortResult{res.ARM, res.RV} {
				if pr.Replay != nil {
					printViolationReplay(stdout, res.Scenario, pr)
				}
			}
		}
	}

	if *rows {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, difftest.Table(rep.Rows()))
	}
	if *metricsOut {
		reg := metrics.NewRegistry()
		rep.Publish(reg)
		if supervised {
			supRun.Stats.Publish(reg)
		}
		fmt.Fprintln(stdout)
		if err := reg.ExportPrometheus(stdout); err != nil {
			fmt.Fprintln(stderr, "faultcamp:", err)
			return 1
		}
	}

	if supRun.Interrupted {
		fmt.Fprintf(stderr, "faultcamp: campaign interrupted after %d newly completed scenario(s); continue with -resume %s\n",
			supRun.Stats.Completed, *resume)
	}
	if len(rep.Violations) > 0 {
		fmt.Fprintf(stderr, "faultcamp: %d isolation violation(s)\n", len(rep.Violations))
		return 1
	}
	if rep.ARM.Errors+rep.RV.Errors > 0 {
		fmt.Fprintf(stderr, "faultcamp: %d scenario error(s)\n", rep.ARM.Errors+rep.RV.Errors)
		return 1
	}
	if rep.Empty() {
		fmt.Fprintf(stderr, "faultcamp: empty campaign: every injection was skipped and nothing else was observed — a vacuous pass is not evidence\n")
		return 2
	}
	return 0
}

// printViolationReplay rewinds the violating run's recording to its final
// snapshot and dumps the machine state — what the world looked like when
// the isolation sweep caught the contract breach.
func printViolationReplay(w io.Writer, sc faultinject.Scenario, pr faultinject.PortResult) {
	fmt.Fprintf(w, "\nscenario #%d on %s violated isolation:\n", sc.Index, pr.Port)
	for _, v := range pr.Violations {
		fmt.Fprintf(w, "  - %s\n", v)
	}
	s, err := pr.Replay.ReplayTo(pr.Replay.FinalCycle())
	if err != nil {
		fmt.Fprintf(w, "  (replay failed: %v)\n", err)
		return
	}
	fmt.Fprintf(w, "  replayed state at cycle %d (snapshot %d, %q):\n", s.Cycle, s.Index, s.Label)
	fields := s.Fields()
	sort.Slice(fields, func(i, j int) bool { return fields[i].Name < fields[j].Name })
	for _, f := range fields {
		fmt.Fprintf(w, "    %-24s 0x%08x\n", f.Name, f.Val)
	}
	fmt.Fprintf(w, "    %-24s 0x%016x\n", "mem.digest", s.MemDigest())
}
