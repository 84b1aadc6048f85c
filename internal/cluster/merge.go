package cluster

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// Merge semantics: one read, N shard verdicts, one deterministic outcome.
//
// Shards hold disjoint target slices of one reference, so their alignment
// lists for a read never overlap; the merged list is the concatenation,
// re-sorted by the one comparator every output face sorts with
// (seqio.CompareHits, reached through client.CanonicalizeAlignments).
// Because a single whole-reference node orders its own hits by that same
// function, the merged document is byte-identical to the single node's —
// the property the e2e tests pin.
//
// One exception: a read with an exact hit keeps that hit alone, as the node
// returns straight after a successful exact path (§IV-A). Only the shard
// holding the hit's target takes that path (its seed counts and single-copy
// flags are the whole reference's); the others may find secondaries in
// copies of a repeat the read runs into.
//
// Status merging: too_short wins (every shard has the same K, so one shard
// saying too-short means all did — but one vote suffices and never loses
// data), then ok if any shard aligned the read, else unmapped.

// gather is the merged outcome of one scatter across the fleet, shared by
// every request of a coalesced batch.
type gather struct {
	results []client.ReadResult
	// degraded names the shards (addresses, in shard order) whose results
	// are missing — non-empty only under the partial policy.
	degraded []string
	// calls records each shard RPC of the scatter (shard order) so member
	// request traces can replay them as rpc spans.
	calls []rpcCall
	// carrier is the trace ID the scatter propagated to the shards — the
	// member's own trace for an uncoalesced call, a fresh carrier trace
	// when several requests shared the scatter. Recorded as Link on rpc
	// spans so shard-side logs can be joined from a member trace.
	carrier string
}

// rpcCall is one rung of a shard RPC's attempt ladder within a scatter.
type rpcCall struct {
	shard   int
	replica int
	addr    string
	start   time.Time
	dur     time.Duration
	rung    int // the rung's index in its ladder: 0 for the RPC's first attempt
	err     error
	hedged  bool // started early, beside a rung still running
}

// ShardFailure is one shard's terminal failure during a scatter: its RPC's
// attempt ladder ended without a success.
type ShardFailure struct {
	ID   int
	Addr string
	Err  error
}

// ShardError reports the shards a scatter lost. Under the fail policy any
// loss surfaces as this error (HTTP 502); under the partial policy it
// surfaces only when every shard failed.
type ShardError struct {
	Failed []ShardFailure
}

// Error names every failed shard and its reason.
func (e *ShardError) Error() string {
	parts := make([]string, len(e.Failed))
	for i, f := range e.Failed {
		parts[i] = fmt.Sprintf("shard %d (%s): %v", f.ID, f.Addr, f.Err)
	}
	return "cluster: shard(s) unavailable: " + strings.Join(parts, "; ")
}

// mergeResults folds per-shard responses into per-read results. per is in
// shard order; a nil entry is a shard excluded by the partial policy. Every
// included response must cover exactly the request's reads — a shard
// answering for a different batch shape is a protocol violation the caller
// screens out before merging.
func mergeResults(reads []meraligner.Seq, per []*client.AlignResponse) []client.ReadResult {
	out := make([]client.ReadResult, len(reads))
	for i := range reads {
		out[i] = client.ReadResult{Name: reads[i].Name, Status: client.StatusUnmapped}
	}
	for _, resp := range per {
		if resp == nil {
			continue
		}
		for i := range resp.Reads {
			rr := &resp.Reads[i]
			if rr.Status == client.StatusTooShort {
				out[i].Status = client.StatusTooShort
			}
			out[i].Alignments = append(out[i].Alignments, rr.Alignments...)
		}
	}
	for i := range out {
		hits := out[i].Alignments
		if j := slices.IndexFunc(hits, func(h client.Alignment) bool { return h.Exact }); j >= 0 {
			hits[0], out[i].Alignments = hits[j], hits[:1]
		}
		client.CanonicalizeAlignments(out[i].Alignments)
		if len(out[i].Alignments) > 0 && out[i].Status != client.StatusTooShort {
			out[i].Status = client.StatusOK
		}
	}
	return out
}

// writeSAM renders one response's merged results as a complete SAM
// document: global header over refs, then each read's records in request
// order; comments become @CO lines after @PG. The router holds no target
// bases and needs none: a wire alignment is the hit record seqio's renderer
// takes (name, coordinates, shard-computed NM), and the merged lists are
// already in its order.
func writeSAM(w io.Writer, refs []seqio.SAMRef, reads []meraligner.Seq, results []client.ReadResult, comments []string) error {
	sw, err := seqio.NewSAMWriter(w, refs, comments...)
	if err != nil {
		return err
	}
	for i, q := range reads {
		if err := sw.WriteRead(q.Name, q.Seq, q.Qual, results[i].Alignments); err != nil {
			return err
		}
	}
	return sw.Flush()
}
