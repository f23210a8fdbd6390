package faultinject

import (
	"bytes"
	"runtime"
	"testing"

	"ticktock/internal/flightrec"
	"ticktock/internal/kernel"
	"ticktock/internal/physmem"
	"ticktock/internal/rvkernel"
)

// poisonPool leaves one released, all-0xFF buffer of each board size in
// the physmem pool, so the next board of that size draws bytes another
// board wrote — exactly what zeroing on Release must hide.
func poisonPool(t *testing.T) {
	t.Helper()
	for _, size := range []uint32{kernel.FlashSize, kernel.RAMSize, rvkernel.FlashSize, rvkernel.RAMSize} {
		m := physmem.NewMemory()
		seg, err := m.Map("poison", 0, size)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seg.Data {
			seg.Data[i] = 0xFF
		}
		m.Release()
	}
}

// encodeRecordings runs RecordRuns on each scenario, injected and not,
// and concatenates the encoded recordings.
func encodeRecordings(t *testing.T, scenarios []Scenario, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sc := range scenarios {
		for _, inject := range []bool{false, true} {
			arm, rv, err := RecordRuns(sc, cfg, inject)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []*flightrec.Recording{arm, rv} {
				if err := rec.Encode(&buf); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return buf.Bytes()
}

// TestRecycledBoardsKeepVerdicts: the same campaign run twice in one
// process — the second on buffers the first released, behind a pool
// poisoned with non-zero bytes — yields a byte-identical report and
// byte-identical flight recordings.
func TestRecycledBoardsKeepVerdicts(t *testing.T) {
	cfg := Config{Seed: 7, N: 24, Workers: 2}.withDefaults()
	scenarios := GenScenarios(cfg)[:6]

	first := Run(cfg).Text()
	firstRec := encodeRecordings(t, scenarios, cfg)
	poisonPool(t)
	second := Run(cfg).Text()
	poisonPool(t)
	secondRec := encodeRecordings(t, scenarios, cfg)

	if first != second {
		t.Fatalf("report changed on recycled boards:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !bytes.Equal(firstRec, secondRec) {
		t.Fatalf("recordings changed on recycled boards (%d vs %d bytes)", len(firstRec), len(secondRec))
	}
}

// TestScenarioAllocationGuard: with board memory recycled, a scenario's
// four boards allocate no fresh flash or RAM, so the mean heap bytes
// allocated per RunScenario stay below one flash segment.
func TestScenarioAllocationGuard(t *testing.T) {
	cfg := Config{Seed: 11, N: 50}.withDefaults()
	scenarios := GenScenarios(cfg)
	RunScenario(scenarios[0], cfg, nil) // fill the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, sc := range scenarios {
		RunScenario(sc, cfg, nil)
	}
	runtime.ReadMemStats(&after)
	mean := (after.TotalAlloc - before.TotalAlloc) / uint64(len(scenarios))
	t.Logf("mean heap allocation per scenario: %d bytes", mean)
	if mean >= kernel.FlashSize {
		t.Fatalf("mean heap allocation per scenario = %d bytes, want < %d (one flash segment)", mean, kernel.FlashSize)
	}
}
