package campaign

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Chaos modes for ParseChaos.
const (
	// ChaosWedge blocks the unit until the supervisor's timeout cancels
	// it — the wedged-emulator failure mode. Without a Config.Timeout
	// the unit never ends.
	ChaosWedge = "wedge"
	// ChaosPanic panics inside the unit — the worker-crash failure mode.
	ChaosPanic = "panic"
	// ChaosFlaky fails the unit's first attempt with a transient error,
	// then runs it normally — the retry-then-succeed mode.
	ChaosFlaky = "flaky"
)

// ParseChaos parses a chaos spec ("wedge:3,panic:5,flaky:7") into a
// unit-index -> mode map. The spec is the supervisor's test/ops hook: it
// injects failures into the *campaign machinery* around real unit
// indices, exercising timeout classification, crash recovery, retry
// budgets and poison quarantine end to end.
func ParseChaos(spec string) (map[int]string, error) {
	out := map[int]string{}
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		mode, idxs, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("campaign: chaos entry %q is not mode:index", part)
		}
		switch mode {
		case ChaosWedge, ChaosPanic, ChaosFlaky:
		default:
			return nil, fmt.Errorf("campaign: unknown chaos mode %q (want wedge, panic or flaky)", mode)
		}
		i, err := strconv.Atoi(idxs)
		if err != nil || i < 0 {
			return nil, fmt.Errorf("campaign: chaos entry %q: bad unit index", part)
		}
		if prev, dup := out[i]; dup {
			return nil, fmt.Errorf("campaign: unit %d has two chaos modes (%s, %s)", i, prev, mode)
		}
		out[i] = mode
	}
	return out, nil
}

// Chaos wraps src so that the units named in spec (see ParseChaos) fail
// the way their mode says before — or, for a flake, instead of — the
// real unit runs. Every other unit runs src.Run untouched, and an empty
// spec returns src unchanged, so the production unit source carries no
// chaos code of its own.
func Chaos[R any](src Source[R], spec string) (Source[R], error) {
	modes, err := ParseChaos(spec)
	if err != nil || len(modes) == 0 {
		return src, err
	}
	run := src.Run
	var mu sync.Mutex
	flakyFired := map[int]bool{}
	src.Run = func(ctx context.Context, i int) (R, error) {
		var zero R
		switch modes[i] {
		case ChaosWedge:
			// Hold the unit until the supervisor cancels it; the attempt
			// is then classified as a timeout.
			<-ctx.Done()
			return zero, fmt.Errorf("chaos: unit %d wedged until cancellation: %w", i, ctx.Err())
		case ChaosPanic:
			panic(fmt.Sprintf("chaos: unit %d panicked", i))
		case ChaosFlaky:
			mu.Lock()
			fired := flakyFired[i]
			flakyFired[i] = true
			mu.Unlock()
			if !fired {
				return zero, fmt.Errorf("chaos: unit %d transient failure", i)
			}
		}
		return run(ctx, i)
	}
	return src, nil
}
