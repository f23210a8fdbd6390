package blockcache

import "ticktock/internal/metrics"

// Publish books the fast-core cache counters into a metrics registry,
// closing the PR-9 metrics blind spot:
//
//	blockcache_hits_total             — block entries served from the
//	                                    table; a self-loop pass chained
//	                                    back to back counts as one entry
//	blockcache_misses_total           — lookups that built or slow-stepped
//	blockcache_invalidations_total    — whole-table flushes plus per-block
//	                                    cover rechecks after a stamp change
//	blockcache_oracle_fallbacks_total — instructions retired via the
//	                                    trusted oracle Step path on an
//	                                    execute denial or unmapped pc
//	blockcache_cold_steps_total       — instructions the oracle Step ran
//	                                    at a pc not yet warm enough to
//	                                    build
//	blockcache_hint_hits_total        — load/store checks answered by the
//	                                    interval hint
//	blockcache_hint_misses_total      — hint misses that walked the full map
//
// Call it once after a run (the hot path never touches the registry, so
// the fast core's speed contract is untouched). Labels follow the
// kernel convention (metrics.L("flavour", ...)). Nil-safe on the
// registry.
func (s *Stats) Publish(reg *metrics.Registry, labels ...metrics.Label) {
	if s == nil || reg == nil {
		return
	}
	reg.Counter("blockcache_hits_total", labels...).Add(s.Hits)
	reg.Counter("blockcache_misses_total", labels...).Add(s.Misses)
	reg.Counter("blockcache_invalidations_total", labels...).Add(s.Flushes + s.CoverRechecks)
	reg.Counter("blockcache_oracle_fallbacks_total", labels...).Add(s.SlowSteps)
	reg.Counter("blockcache_cold_steps_total", labels...).Add(s.ColdSteps)
	reg.Counter("blockcache_hint_hits_total", labels...).Add(s.HintHits)
	reg.Counter("blockcache_hint_misses_total", labels...).Add(s.HintMisses)
}
