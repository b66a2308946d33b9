package naming

import "plwg/internal/metrics"

// syncStatNames are the anti-entropy work counters, in reporting order
// (see Server.SyncStats for their meanings).
var syncStatNames = []string{
	"rounds",
	"skipped",
	"probes_sent",
	"vectors_sent",
	"deltas_sent",
	"delta_groups",
	"delta_entries",
	"version_mismatch",
	"merge_entries",
	"merge_changed",
	"conflict_checks",
	"sync_bytes",
	"exchanges_done",
}

// srvMetrics backs the server's anti-entropy counters with a metrics
// registry (shared when one is injected through ServerParams.Metrics,
// private otherwise so SyncStats keeps working). Registry counters are
// monotonic; ResetSyncStats therefore records a baseline and SyncStats
// reports deltas against it, preserving the old windowed semantics
// without un-publishing the cumulative values.
type srvMetrics struct {
	counters map[string]*metrics.Counter
	base     map[string]int64
}

func newSrvMetrics(r *metrics.Registry) *srvMetrics {
	if r == nil {
		r = metrics.NewRegistry()
	}
	sm := &srvMetrics{
		counters: make(map[string]*metrics.Counter, len(syncStatNames)),
		base:     make(map[string]int64, len(syncStatNames)),
	}
	for _, n := range syncStatNames {
		sm.counters[n] = r.Counter("ns_" + n + "_total")
	}
	return sm
}

func (sm *srvMetrics) add(name string, delta int64) {
	sm.counters[name].Add(delta)
}

func (sm *srvMetrics) snapshot() map[string]int64 {
	out := make(map[string]int64, len(syncStatNames))
	for _, n := range syncStatNames {
		if v := sm.counters[n].Value() - sm.base[n]; v != 0 {
			out[n] = v
		}
	}
	return out
}

func (sm *srvMetrics) reset() {
	for _, n := range syncStatNames {
		sm.base[n] = sm.counters[n].Value()
	}
}
