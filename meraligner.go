// Package meraligner is a Go reproduction of "merAligner: A Fully Parallel
// Sequence Aligner" (Georganas et al., IPDPS 2015): a seed-and-extend
// short-read aligner whose every phase — I/O, seed-index construction, and
// alignment — is parallel, built on a distributed hash table with the
// paper's aggregating-stores optimization, per-node software caches, an
// exact-match fast path, and Smith-Waterman extension (one affine-gap
// kernel, with traceback for alignment records and score-only for
// statistics-only runs).
//
// The primary API is persistent: Build constructs the seed index over the
// targets exactly once, and the resulting Aligner serves any number of
// query batches — concurrently, with per-call context cancellation:
//
//	a, err := meraligner.Build(8, meraligner.DefaultIndexOptions(19), targets)
//	res, err := a.Align(ctx, reads, meraligner.DefaultQueryOptions())
//
// AlignThreaded and AlignFiles are one-shot convenience wrappers — exactly
// Build followed by one Align call — reporting measured wall-clock phase
// times (the paper's single-node shared-memory configuration). The
// simulated PGAS machine behind the paper's scaling figures is not part of
// this package: it lives in internal/sim and drives the same per-read
// algorithm from outside.
//
// targets and reads are seqio.Seq slices (see ReadFasta/ReadQueries, which
// read FASTA/FASTQ/SeqDB and transparently decompress gzip).
package meraligner

import (
	"fmt"
	"io"
	"os"

	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// Re-exported core types: Options configures a run, Results carries
// alignments plus per-phase statistics, Alignment is one reported hit as
// the engine records it (query and target by index), Hit the same hit in
// output terms (target by name, NM computed — see ReadHits).
type (
	Options   = core.Options
	Results   = core.Results
	Alignment = core.Alignment
	Hit       = seqio.Hit
	Seq       = seqio.Seq
	Scoring   = align.Scoring
)

// DefaultOptions returns the paper's configuration for seed length k
// (51 for the human/wheat runs, 19 for E. coli).
func DefaultOptions(k int) Options { return core.DefaultOptions(k) }

// DefaultScoring is the commonly employed scoring scheme used throughout.
var DefaultScoring = align.DefaultScoring

// AlignThreaded runs the pipeline with real goroutines on the host (the
// single-node shared-memory mode); Results phases carry genuine wall-clock
// times in RealWall. It is a one-shot convenience wrapper:
// exactly Build followed by a single (*Aligner).Align call. Services that
// align many batches should call those two halves directly and reuse the
// index.
func AlignThreaded(threads int, opt Options, targets, queries []Seq) (*Results, error) {
	return core.RunThreaded(threads, opt, targets, queries)
}

// NewSeq packs a textual sequence into a Seq usable as a Build target or
// an Align query, without going through a file: bases are stored two bits
// each, so only {A,C,G,T,a,c,g,t} are accepted (replace ambiguity codes
// before packing, as ReadFasta's ReplaceN option does).
func NewSeq(name, bases string) (Seq, error) {
	p, err := dna.Pack(bases)
	if err != nil {
		return Seq{}, err
	}
	return Seq{Name: name, Seq: p}, nil
}

// ReadFasta loads targets (contigs) from a FASTA file, transparently
// decompressing gzip (sniffed by magic bytes). Ambiguous bases (N) are
// replaced with A, as the assembly pipeline does before alignment.
func ReadFasta(path string) ([]Seq, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, _, err := seqio.MaybeDecompress(f)
	if err != nil {
		return nil, err
	}
	return seqio.ReadFasta(r, seqio.ParseOptions{ReplaceN: true})
}

// ReadQueries loads reads from FASTQ or SeqDB (detected by content), with
// transparent gzip decompression for the text formats. SeqDB is a
// random-access container and cannot be read through gzip.
func ReadQueries(path string) ([]Seq, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, wasGzip, err := seqio.MaybeDecompress(f)
	if err != nil {
		return nil, err
	}
	magic, _ := r.Peek(4)
	if string(magic) == "MSDB" {
		if wasGzip {
			return nil, fmt.Errorf("meraligner: %s: gzipped SeqDB is not supported (SeqDB needs random access; decompress it first)", path)
		}
		// SeqDB reads by offset (ReadAt), unaffected by the sniffing above.
		db, err := seqio.OpenSeqDB(f)
		if err != nil {
			return nil, err
		}
		var out []Seq
		for c := 0; c < db.NumChunks(); c++ {
			recs, err := db.ReadChunk(c)
			if err != nil {
				return nil, err
			}
			out = append(out, recs...)
		}
		return out, nil
	}
	return seqio.ReadFastq(r, seqio.ParseOptions{ReplaceN: true})
}

// AlignFiles reads targets (FASTA) and queries (FASTQ or SeqDB) from disk
// and aligns them in threaded mode.
func AlignFiles(threads int, opt Options, targetPath, queryPath string) (*Results, []Seq, []Seq, error) {
	targets, err := ReadFasta(targetPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("meraligner: reading targets: %w", err)
	}
	queries, err := ReadQueries(queryPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("meraligner: reading queries: %w", err)
	}
	res, err := core.RunThreaded(threads, opt, targets, queries)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, targets, queries, nil
}

// WriteSAM writes the collected alignments as a SAM stream with @SQ headers
// for the targets: NewSAMStream + one WriteBatch + Flush. Reads with no
// alignment get an unmapped record; the best-scoring alignment of each read
// is primary, the rest are flagged secondary; NM tags are computed from the
// cigar and the sequences.
func WriteSAM(w io.Writer, res *Results, targets, queries []Seq) error {
	s, err := NewSAMStream(w, targets)
	if err != nil {
		return err
	}
	if err := s.WriteBatch(res, queries); err != nil {
		return err
	}
	return s.Flush()
}

// WriteAlignments writes alignments in a simple tab-separated format:
// query, target, strand, score, qstart, qend, tstart, tend, cigar.
func WriteAlignments(w io.Writer, res *Results, targets, queries []Seq) error {
	for _, a := range res.Alignments {
		strand := "+"
		if a.RC {
			strand = "-"
		}
		qn := fmt.Sprint(a.Query)
		if int(a.Query) < len(queries) {
			qn = queries[a.Query].Name
		}
		tn := fmt.Sprint(a.Target)
		if int(a.Target) < len(targets) {
			tn = targets[a.Target].Name
		}
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\n",
			qn, tn, strand, a.Score, a.QStart, a.QEnd, a.TStart, a.TEnd, a.Cigar); err != nil {
			return err
		}
	}
	return nil
}
