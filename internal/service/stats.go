package service

import (
	"io"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// labels renders the tenant's series labels: none for the single-index
// server (the historical single-index format), {ref="..."} on a catalog
// server.
func (t *tenant) labels() []string {
	if t.ref == "" {
		return nil
	}
	return []string{"ref", t.ref}
}

// writeMetrics renders the Prometheus text exposition: the front-door
// families and merserved's own, every metric name once with one series per
// reference, then (for catalog servers) the catalog lifecycle metrics.
func writeMetrics(w io.Writer, ts []*tenant, cat *client.CatalogCounters) {
	m := telemetry.NewExposition(w)
	fronts := make([]*Front[*engineCall], len(ts))
	labels := make([][]string, len(ts))
	sts := make([]client.Stats, len(ts))
	for i, t := range ts {
		fronts[i], labels[i], sts[i] = t.front, t.labels(), t.snapshotStats()
	}
	WriteFrontMetrics(m, "merserved", fronts, labels)
	for _, g := range []struct {
		name, help string
		v          func(*client.Stats) float64
	}{
		{"merserved_draining", "1 while draining (healthz returns 503)", func(st *client.Stats) float64 {
			if st.Draining {
				return 1
			}
			return 0
		}},
		{"merserved_resident_bytes", "resident index footprint", func(st *client.Stats) float64 { return float64(st.ResidentBytes) }},
		{"merserved_uptime_seconds", "seconds since start", func(st *client.Stats) float64 { return st.UptimeSeconds }},
	} {
		m.Gauge(g.name, g.help)
		for i := range sts {
			m.Float(g.v(&sts[i]), labels[i]...)
		}
	}
	m.Histogram("merserved_align_read_duration_seconds", "per-read engine time histogram")
	for i, t := range ts {
		m.Hist(t.alignRead.Snapshot(), labels[i]...)
	}
	m.Runtime("merserved")
	if cat == nil {
		return
	}
	m.Gauge("merserved_catalog_open_refs", "references with an open (resident) index").Float(float64(cat.OpenRefs))
	m.Gauge("merserved_catalog_resident_bytes", "bytes charged to the residency budget").Float(float64(cat.ResidentBytes))
	m.Gauge("merserved_catalog_budget_bytes", "residency budget (0 = unlimited)").Float(float64(cat.BudgetBytes))
	m.Counter("merserved_catalog_opens_total", "snapshot opens (cold, reopen, and swap)").Int(cat.Opens)
	m.Counter("merserved_catalog_evictions_total", "budget evictions").Int(cat.Evictions)
	m.Counter("merserved_catalog_hot_swaps_total", "zero-downtime snapshot replacements").Int(cat.HotSwaps)
	m.Counter("merserved_catalog_uncached_serves_total", "serves of indexes larger than the whole budget").Int(cat.UncachedServes)
}
