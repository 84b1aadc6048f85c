package cluster

import (
	"context"
	"strconv"

	"github.com/lbl-repro/meraligner/internal/coalesce"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// The router's micro-batcher is the generic internal/coalesce queue pointed
// at the fleet (Router.coal): concurrent single-read requests glue into
// shared scatters, so the per-scatter cost — one HTTP round-trip per shard —
// is paid once per batching window instead of once per request. What remains
// here is the router-specific dressing: the scatter span-context carrier,
// and the rpc spans of a window's scatter in a request's telemetry.

// recordScatter replays one request's window of a scatter into its trace:
// one rpc span per rung of each shard RPC of the scatter (with the carrier trace ID as
// Link, so shard-side logs can be joined).
func recordScatter(tr *telemetry.Trace, w *coalesce.Window[*gather]) {
	for i := range w.Result.calls {
		c := &w.Result.calls[i]
		tr.Add("rpc", c.start, c.dur, func(sp *telemetry.Span) {
			sp.Shard = strconv.Itoa(c.shard)
			sp.Replica = strconv.Itoa(c.replica)
			sp.Addr = c.addr
			sp.Retries = c.rung
			sp.Hedged = c.hedged
			sp.Link = w.Result.carrier
			if c.err != nil {
				sp.Status = "error"
				sp.Error = c.err.Error()
			}
		})
	}
}

// scatterCarrier stamps a carrier span context on the scatter so shard-side
// logs can be correlated: a lone member's own trace travels to the shards
// intact; a multi-request batch gets a fresh carrier trace, recorded as Link
// on each member's rpc spans.
func scatterCarrier(ctx context.Context, members []context.Context) context.Context {
	var carrier telemetry.SpanContext
	if len(members) == 1 {
		if tr := telemetry.TraceFrom(members[0]); tr != nil {
			carrier = tr.SpanContext().ChildOf()
		} else {
			carrier = telemetry.NewSpanContext()
		}
	} else {
		carrier = telemetry.NewSpanContext()
	}
	return telemetry.WithSpanContext(ctx, carrier)
}
