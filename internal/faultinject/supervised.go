package faultinject

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"ticktock/internal/campaign"
	"ticktock/internal/telemetry"
)

// This file splits the campaign into supervised units and runs it under
// internal/campaign: every scenario is one independently supervised
// unit with a wall-clock timeout, panic isolation, retry with backoff
// and poison quarantine, plus the resumable journal that makes an
// interrupted campaign continue instead of restart.

// SupervisedKind is the journal/quarantine kind label.
const SupervisedKind = "faultcamp"

// fingerprintView is the canonical config encoding bound into the
// journal header: exactly the fields that determine scenario results.
// Workers and Record are deliberately absent — they change scheduling
// and observability, never results — so a journal resumes under any
// worker count.
type fingerprintView struct {
	Seed        int64  `json:"seed"`
	N           int    `json:"n"`
	MaxRestarts int    `json:"max_restarts"`
	Watchdog    int    `json:"watchdog"`
	BackoffBase uint64 `json:"backoff_base"`
	Chaos       string `json:"chaos,omitempty"`
}

// Fingerprint returns the canonical config bytes the journal digests.
func (c Config) Fingerprint() []byte {
	c = c.withDefaults()
	out, err := json.Marshal(fingerprintView{
		Seed: c.Seed, N: c.N, MaxRestarts: c.MaxRestarts,
		Watchdog: c.Watchdog, BackoffBase: c.BackoffBase, Chaos: c.Chaos,
	})
	if err != nil {
		panic(err) // fixed struct of scalars: cannot fail
	}
	return out
}

// Units splits the campaign into supervised units — one scenario per
// unit, journal-codec'd as JSON — for campaign.Supervise.
func Units(cfg Config) (campaign.Source[Result], error) {
	return UnitsTelemetry(cfg, nil)
}

// UnitsTelemetry is Units with a live telemetry plane attached: every
// attempt's injected runs feed a kernel tracer drawn from the plane's
// nest budget, and completed units register a publish closure that the
// plane folds into its streaming aggregate when the supervisor marks
// the unit terminal. A nil plane is exactly Units. A Config.Chaos spec
// wraps the source in campaign.Chaos.
func UnitsTelemetry(cfg Config, plane *telemetry.Plane) (campaign.Source[Result], error) {
	cfg = cfg.withDefaults()
	if cfg.N < 0 {
		return campaign.Source[Result]{}, fmt.Errorf("faultinject: negative scenario count %d", cfg.N)
	}
	scenarios := GenScenarios(cfg)
	return campaign.Chaos(campaign.Source[Result]{
		N:           len(scenarios),
		Kind:        SupervisedKind,
		Fingerprint: cfg.Fingerprint(),
		Key:         func(i int) string { return scenarios[i].Label() },
		Run: func(_ context.Context, i int) (Result, error) {
			res := RunScenario(scenarios[i], cfg, plane.UnitTracer(i))
			plane.UnitObservation(i, res.publishUnit)
			return res, nil
		},
		Encode: func(r Result) ([]byte, error) { return json.Marshal(r) },
		Decode: func(b []byte) (Result, error) {
			var r Result
			err := json.Unmarshal(b, &r)
			return r, err
		},
	}, cfg.Chaos)
}

// RunSupervised executes the campaign under the crash-resilient
// supervisor and folds the outcomes back into a Report. The report's
// aggregates are derived from terminal outcomes only, so they are
// byte-identical at any worker count and across interrupt/resume; the
// invocation-local stats (steals, resume count) live in run.Stats and
// go to metrics, never into the report. sup.Workers defaults to
// cfg.Workers.
//
// A non-nil plane is the live telemetry plane: it becomes the
// supervisor's observer (when the caller has not installed one) and
// receives per-unit tracers and metric publishes. Telemetry observes
// the campaign, it never steers it: the Report and Run are
// byte-identical with and without a plane.
func RunSupervised(cfg Config, sup campaign.Config, plane *telemetry.Plane) (*Report, *campaign.Run[Result], error) {
	cfg = cfg.withDefaults()
	src, err := UnitsTelemetry(cfg, plane)
	if err != nil {
		return nil, nil, err
	}
	if sup.Workers == 0 {
		sup.Workers = cfg.Workers
	}
	if sup.Observer == nil && plane != nil {
		sup.Observer = plane
	}
	run, err := campaign.Supervise(sup, src)
	if err != nil {
		return nil, run, err
	}
	return ReportFromRun(cfg, run), run, nil
}

// ReportFromRun folds supervised outcomes into the campaign report.
// Quarantined and pending scenarios carry a Sup marker instead of port
// results and are excluded from the port tallies; the Supervision
// section tallies them deterministically.
func ReportFromRun(cfg Config, run *campaign.Run[Result]) *Report {
	cfg = cfg.withDefaults()
	results := make([]Result, len(run.Outcomes))
	sup := &Supervision{}
	for i, o := range run.Outcomes {
		for _, a := range o.Attempts {
			switch a.Failure {
			case campaign.FailTimeout:
				sup.Timeouts++
			case campaign.FailCrashed:
				sup.Crashes++
			case campaign.FailError:
				sup.Errors++
			}
		}
		switch o.Status {
		case campaign.StatusOK:
			results[i] = o.Result
			sup.Retries += uint64(len(o.Attempts))
		case campaign.StatusQuarantined:
			sc := scenarioAt(cfg.Seed, i)
			results[i] = Result{
				Scenario: sc,
				Sup:      fmt.Sprintf("quarantined (%s after %d attempts)", o.FinalFailure(), len(o.Attempts)),
			}
			sup.Retries += uint64(len(o.Attempts) - 1)
			sup.Quarantined = append(sup.Quarantined, QuarantinedScenario{
				Label:    sc.Label(),
				Failure:  o.FinalFailure(),
				Attempts: len(o.Attempts),
			})
		case campaign.StatusPending:
			results[i] = Result{Scenario: scenarioAt(cfg.Seed, i), Sup: "pending (interrupted)"}
			sup.Pending++
		}
	}
	sort.Slice(sup.Quarantined, func(a, b int) bool { return sup.Quarantined[a].Label < sup.Quarantined[b].Label })
	rep := &Report{Config: cfg, Results: results}
	if !sup.trivial() {
		rep.Sup = sup
	}
	rep.tally()
	return rep
}
