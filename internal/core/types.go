// Package core implements merAligner itself: Algorithm 1 of the paper — a
// fully parallel seed-and-extend aligner over the seed index — together
// with the alignment optimizations that are properties of the algorithm
// rather than of a machine: the exact-match fast path built on
// single-copy-seed detection and target fragmentation (§IV-A) and the
// max-alignments-per-seed sensitivity threshold (§IV-C).
//
// There is one aligning procedure, QueryProcessor.ProcessClaim, and it
// knows nothing about time: it resolves a claim's seeds through one
// SeedResolver (the IndexAccess, unless the call brings its own), aligns
// each read from the answers, and counts the work it did (seed lookups,
// compared bytes, Smith-Waterman calls and cells). The serving engine in
// this package (BuildIndex, ThreadedIndex.Query, RunThreaded) runs it with
// real goroutines over the sealed dht.Sharded table and measures wall-clock
// time around it. The simulated PGAS machine of the paper's scaling figures
// lives in internal/sim, which drives the same processor through its own
// IndexAccess and converts the counts to simulated seconds afterwards. The
// dependency runs one way only — sim imports core, never the reverse — so
// nothing a server links knows the cost model.
package core

import (
	"context"
	"fmt"

	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/dht"
	"github.com/lbl-repro/meraligner/internal/kmer"
)

// IndexOptions is the build-time half of a merAligner configuration: every
// knob that shapes the seed index itself — the fragment table, the
// seed hash table and the single-copy marking. Two runs with equal IndexOptions over the same
// targets build byte-identical indexes, whatever their query-time settings.
type IndexOptions struct {
	K int // seed length (paper: 51 for human/wheat, 19 for E. coli)

	// Exact-match optimization (Fig 10 ablation): marking single-copy
	// fragments is an index-construction phase, so the fast path can only
	// be used at query time when the index was built with it.
	ExactMatch  bool
	FragmentLen int // target fragmentation length F (0 disables fragmentation)
}

// QueryOptions is the query-time half of a merAligner configuration: the
// knobs of the aligning phase only. Different Align calls against the same
// resident index may use different QueryOptions.
type QueryOptions struct {
	Scoring align.Scoring // Smith-Waterman parameters

	// Sensitivity threshold: seeds occurring more often than this are
	// skipped during candidate generation (0 = unlimited) — §IV-C.
	MaxSeedHits int

	// MinScore filters reported alignments; 0 defaults to K (a bare seed).
	MinScore int

	// CollectAlignments retains full alignment records (with cigars).
	// Disable for large runs where only statistics matter.
	CollectAlignments bool

	// CollectPerQuery retains one QueryStat per query in Results.PerQuery
	// (status, alignment count, Smith-Waterman calls, wall nanoseconds) —
	// the per-read latency source behind a service's p50/p99 reporting.
	// Honored by ThreadedIndex.Query only. A read's nanoseconds exclude the
	// resolution of its seeds, local probes or remote calls alike, which is
	// paid once per claim of reads before any of them is aligned.
	CollectPerQuery bool

	// Extend replaces the seed-extension engine (§VIII: "the Striped
	// Smith-Waterman local alignment engine could easily be replaced with
	// any other local alignment software tool"). nil uses align.ExtendSeed:
	// Smith-Waterman with traceback (align.Local: rolling score rows, one
	// direction byte per cell) on the seed window. A nil Extend on a
	// statistics-only call (CollectAlignments off) runs the same DP without
	// the traceback (align.Scorer).
	Extend ExtendFunc

	// SeedResolver answers the call's seed lookups in place of the local
	// table — the distributed-DHT seam. Every call resolves each claim of
	// queries (up to 256, in sub-claims of at most 65,536 seeds) before
	// aligning them, in at most two ResolveSeeds calls per sub-claim (which
	// the network tier batches per owning node): the first seed of every
	// query, then the remaining seeds of the queries the exact path did not
	// settle. Nil leaves the sealed table to answer them. Extension and
	// Smith-Waterman run locally either way, and the results are
	// bit-identical to the local table's. Like Extend, this field is runtime
	// wiring, not serialized configuration.
	SeedResolver SeedResolver
}

// SeedAnswer is one resolved seed lookup: the location list and the
// present/absent flag, exactly what dht.Sharded.Lookup returns locally.
type SeedAnswer struct {
	Res dht.LookupResult
	OK  bool
}

// SeedResolver resolves a batch of canonical seeds to their location lists:
// the one way the aligning phase looks seeds up, answered by the local
// table, the simulated machine or a remote fleet. Implementations must fill
// out[i] for every seeds[i] (len(out) == len(seeds)) or return an error; a
// missing seed is out[i].OK == false, so "unknown" is never silently
// conflated with "absent". The engine calls it at most twice per sub-claim
// of queries (whole reads, at most 65,536 seeds unless one read holds
// more), and every seed it ships is one the engine looks up: first the
// first seed of every query in the sub-claim, then the remaining seeds, in
// lookup order, of every query the exact path did not settle (one call in
// all when the index has the exact path off). An empty phase makes no
// call.
type SeedResolver interface {
	ResolveSeeds(ctx context.Context, seeds []kmer.Kmer, out []SeedAnswer) error
}

// Options configures a one-shot merAligner run: both halves of the
// configuration. The zero value is not usable; start from DefaultOptions.
type Options struct {
	IndexOptions
	QueryOptions
}

// ExtendFunc is a pluggable seed-extension engine: it locally aligns query
// against target given a seed match of length k at query offset qOff and
// target offset tOff, searching a window widened by pad.
type ExtendFunc func(query, target []byte, qOff, tOff, k int, sc align.Scoring, pad int) align.Result

// DefaultIndexOptions returns the paper's build-time configuration for a
// given seed length.
func DefaultIndexOptions(k int) IndexOptions {
	return IndexOptions{
		K:           k,
		ExactMatch:  true,
		FragmentLen: 2000,
	}
}

// DefaultQueryOptions returns the paper's query-time configuration.
func DefaultQueryOptions() QueryOptions {
	return QueryOptions{
		Scoring:     align.DefaultScoring,
		MaxSeedHits: 1000,
	}
}

// DefaultOptions returns the paper's configuration for a given seed length.
func DefaultOptions(k int) Options {
	return Options{
		IndexOptions: DefaultIndexOptions(k),
		QueryOptions: DefaultQueryOptions(),
	}
}

// Validate reports build-time option errors.
func (o IndexOptions) Validate() error {
	if o.K <= 0 || o.K > 64 {
		return fmt.Errorf("core: K=%d out of range 1..64", o.K)
	}
	if o.FragmentLen != 0 && o.FragmentLen <= o.K {
		return fmt.Errorf("core: FragmentLen %d must exceed K %d", o.FragmentLen, o.K)
	}
	return nil
}

// Validate reports query-time option errors.
func (o QueryOptions) Validate() error { return o.Scoring.Validate() }

// Validate reports option errors in either half.
func (o Options) Validate() error {
	if err := o.IndexOptions.Validate(); err != nil {
		return err
	}
	return o.QueryOptions.Validate()
}

func (o Options) minScore() int {
	if o.MinScore > 0 {
		return o.MinScore
	}
	return o.K
}

// QueryStatus classifies how the aligning phase admitted one query.
type QueryStatus uint8

const (
	// QueryOK: the query entered the aligning phase normally (it may still
	// have found no alignment — that is "unmapped", not a status).
	QueryOK QueryStatus = iota

	// QueryTooShort marks a read shorter than the seed length K: it carries
	// no complete seed, so the engine cannot align it at all. Callers
	// serving untrusted input (the network service) map this to a client
	// error instead of conflating it with "aligned nowhere".
	QueryTooShort
)

// String returns the lowercase wire name of the status.
func (s QueryStatus) String() string {
	switch s {
	case QueryOK:
		return "ok"
	case QueryTooShort:
		return "too_short"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// QueryStat is one query's aligning-phase account, collected when
// QueryOptions.CollectPerQuery is set.
type QueryStat struct {
	Status      QueryStatus
	Alignments  int32 // reported alignments for this query
	Exact       bool  // resolved entirely by the exact-match fast path
	SWCalls     int32 // Smith-Waterman invocations
	SeedLookups int32 // seed-index lookups
	Nanos       int64 // wall nanoseconds spent aligning this query (the claim's seed resolution excluded)
}

// Alignment is one reported query-to-target local alignment.
type Alignment struct {
	Query  int32 // query index
	Target int32 // target (contig) index
	RC     bool  // query aligned on the reverse strand
	Score  int32
	QStart int32 // query interval [QStart, QEnd)
	QEnd   int32
	TStart int32 // target interval [TStart, TEnd)
	TEnd   int32
	Exact  bool   // produced by the exact-match fast path
	Cigar  string // only when Options.CollectAlignments
}

// Phase is one measured phase of a run: its name and the wall-clock seconds
// it took on the host.
type Phase struct {
	Name     string
	RealWall float64
}

// Results aggregates a complete run.
type Results struct {
	// Phases are the measured phases, in pipeline order.
	Phases []Phase

	TotalReads      int
	AlignedReads    int // reads with >= 1 reported alignment
	ExactPathReads  int // reads resolved entirely by the fast path
	TooShortReads   int // reads shorter than K (no complete seed; not aligned)
	TotalAlignments int64
	SWCalls         int64
	SeedLookups     int64

	// TooShort lists the query indices (sorted) of reads shorter than the
	// seed length K. Such reads cannot be aligned; they are reported here —
	// and as QueryTooShort in PerQuery — instead of being silently dropped.
	TooShort []int32

	// PerQuery holds one stat record per query, indexed by query, when
	// QueryOptions.CollectPerQuery was set.
	PerQuery []QueryStat

	IndexStats dht.Stats

	// Alignments is populated when Options.CollectAlignments, in query
	// order and, within a read, in a total order over every other field
	// (MergeProcessors: placed by a counting pass over Query, each read's
	// run sorted). Window reads per-query ranges out of that order. An
	// exact-path record's Cigar is "<L>M", one string shared by the reads
	// of a processor that have its length.
	Alignments []Alignment

	// queryOrdered records that an engine put Alignments in query order, so
	// Window may binary-search without looking at every record first. A
	// hand-built Results leaves it unset and is checked instead.
	queryOrdered bool
}

// realWall sums the wall-clock seconds of phases.
func realWall(phases []Phase) float64 {
	var s float64
	for _, p := range phases {
		s += p.RealWall
	}
	return s
}

// TotalRealWall sums the wall-clock seconds of all phases — the measured
// end-to-end runtime.
func (r *Results) TotalRealWall() float64 { return realWall(r.Phases) }

// Phase names, in pipeline order. PhaseLoad replaces the three
// index-construction phases when the index comes from a snapshot; the two
// I/O phases exist on the simulated machine only (internal/sim).
const (
	PhaseReadTargets = "read targets (I/O)"
	PhaseExtract     = "extract+stage seeds"
	PhaseDrain       = "drain seed index"
	PhaseMark        = "mark single-copy"
	PhaseLoad        = "load index (mmap)"
	PhaseReadQueries = "read queries (I/O)"
	PhaseAlign       = "align"
)
