// Command meraligner aligns query reads (FASTQ or SeqDB, gzip transparent)
// to a set of target contigs (FASTA, gzip transparent) using the merAligner
// pipeline and writes tab-separated alignments (or SAM) to stdout.
//
// The engine builds the seed index once and serves query batches against
// it: -queries aligns a single batch; -batches aligns any number of
// FASTQ/SeqDB inputs against the same resident index, streaming output per
// batch — the build cost is paid exactly once. The simulated PGAS machine of
// the paper's scaling figures is cmd/merbench's, not this command's.
//
// Index snapshots decouple building from serving: -save-index writes the
// sealed index as a .merx snapshot after building (with or without aligning
// anything), and -index memory-maps a snapshot instead of building — cold
// start in milliseconds, with every build-time option restored from the
// file (-k and -no-exact do not apply). See docs/INDEX_FORMAT.md.
//
// Usage:
//
//	meraligner -targets contigs.fa -queries reads.fq [-k 51] [-threads N]
//	           [-max-hits 1000] [-min-score 0] [-no-exact] [-sam] [-o out.tsv]
//	meraligner -targets contigs.fa -batches r1.fq,r2.fq.gz,r3.fq -sam
//	meraligner -targets contigs.fa -save-index contigs.merx
//	meraligner -index contigs.merx -queries reads.fq -sam
//	meraligner -index contigs.merx -shard-save 3 -o shards/
//	meraligner -targets contigs.fa -dht-save 3 -o dht/
//	meraligner -index contigs.merx -queries reads.fq -sam \
//	           -dht-nodes http://n0:8491,http://n1:8491,http://n2:8491
//
// -shard-save partitions the reference into N contiguous, base-balanced
// shard snapshots (shard-000.merx, ...) under the -o directory, each a
// normal single-node index over its slice plus its fleet identity (the
// SHRD section) — the producer half of the distributed tier served by
// merserved shards behind a merrouted router. Like -dht-save, it carves the
// one sealed index that -targets builds or -index maps: every shard keeps
// the whole reference's seed counts and single-copy flags, so the fleet
// answers as one whole-reference node does.
//
// -dht-save partitions the seed table by hash into N seed-shard snapshots
// (seed-shard-000.merx, ...) under the -o directory — the producer half of
// the distributed seed DHT. Each snapshot is served by `merserved
// -seed-shard`; -dht-nodes lists the fleet in owner order and makes this
// aligner resolve seed lookups remotely against it (batched, retried, each
// attempt timed out — see internal/dhtnet) while extending and scoring
// locally, with output byte-identical to a fully local run. The local
// -index/-targets still provides the reference sequences; its mmap'd seed
// table pages are simply never touched.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/buildinfo"
	"github.com/lbl-repro/meraligner/internal/dhtnet"
	"github.com/lbl-repro/meraligner/internal/seqio"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("meraligner: ")

	var (
		targetsPath = flag.String("targets", "", "FASTA file of target sequences (contigs)")
		indexPath   = flag.String("index", "", "load a .merx index snapshot instead of building from -targets")
		saveIndex   = flag.String("save-index", "", "write the sealed index as a .merx snapshot (usable without -queries/-batches)")
		shardSave   = flag.Int("shard-save", 0, "partition the reference (-targets or -index) into N shard snapshots under the -o directory (shard-000.merx, ...) for a merrouted fleet")
		dhtSave     = flag.Int("dht-save", 0, "hash-partition the seed table into N seed-shard snapshots under the -o directory (seed-shard-000.merx, ...) for a merserved -seed-shard fleet")
		dhtNodes    = flag.String("dht-nodes", "", "comma-separated seed-shard base URLs in owner order; seed lookups resolve remotely against this fleet")
		queriesPath = flag.String("queries", "", "FASTQ or SeqDB file of query reads (one batch)")
		batchList   = flag.String("batches", "", "comma-separated FASTQ/SeqDB files aligned as successive batches against one resident index")
		k           = flag.Int("k", 51, "seed length (1-64)")
		threads     = flag.Int("threads", runtime.NumCPU(), "worker threads")
		maxHits     = flag.Int("max-hits", 1000, "max alignments per seed (0 = unlimited, §IV-C)")
		minScore    = flag.Int("min-score", 0, "minimum alignment score (0 = seed length)")
		noExact     = flag.Bool("no-exact", false, "disable the exact-match optimization (§IV-A)")
		outPath     = flag.String("o", "", "output file (default stdout; a .gz suffix gzip-compresses)")
		samOut      = flag.Bool("sam", false, "emit SAM instead of tab-separated alignments")
		verbose     = flag.Bool("v", false, "print build/align timing summary to stderr")
	)
	bi := buildinfo.Register(flag.CommandLine)
	logOpts := telemetry.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	if logger, err := logOpts.Logger("meraligner: "); err != nil {
		log.Fatal(err)
	} else {
		telemetry.CaptureStdLog(logger)
	}
	stopProfile, err := bi.Apply("meraligner")
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfile()
	if (*targetsPath == "") == (*indexPath == "") {
		fmt.Fprintln(os.Stderr, "need exactly one of -targets (build the index) / -index (load a .merx snapshot)")
		flag.Usage()
		os.Exit(2)
	}
	if *queriesPath != "" && *batchList != "" {
		fmt.Fprintln(os.Stderr, "use at most one of -queries / -batches")
		flag.Usage()
		os.Exit(2)
	}
	if *queriesPath == "" && *batchList == "" && *saveIndex == "" && *shardSave == 0 && *dhtSave == 0 {
		fmt.Fprintln(os.Stderr, "nothing to do: need -queries, -batches, -save-index, -shard-save, or -dht-save")
		flag.Usage()
		os.Exit(2)
	}
	// The fleet producers: -shard-save cuts the reference, -dht-save the seed
	// table, both from the one index -targets builds or -index maps.
	producer, parts := "-shard-save", *shardSave
	if *dhtSave != 0 {
		producer, parts = "-dht-save", *dhtSave
	}
	if parts != 0 {
		switch {
		case *shardSave != 0 && *dhtSave != 0:
			log.Fatal("use at most one of -shard-save / -dht-save")
		case parts < 0:
			log.Fatalf("%s wants a positive count, got %d", producer, parts)
		case *queriesPath != "" || *batchList != "" || *saveIndex != "":
			log.Fatalf("%s is a standalone producer; drop -queries/-batches/-save-index", producer)
		case *outPath == "":
			log.Fatalf("%s needs -o naming the output directory", producer)
		}
	}
	if *dhtNodes != "" {
		switch {
		case parts != 0:
			log.Fatal("-dht-nodes is a query-time option; it cannot be combined with the snapshot producers")
		case *queriesPath == "" && *batchList == "":
			log.Fatal("-dht-nodes needs reads to align; add -queries or -batches")
		}
	}
	if *indexPath != "" {
		// Build-time options come from the snapshot; catch silently ignored
		// flags up front.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "k" || f.Name == "no-exact" {
				log.Fatalf("-%s is a build-time option; it is stored in the snapshot and cannot be set with -index", f.Name)
			}
		})
	}

	iopt := meraligner.DefaultIndexOptions(*k)
	iopt.ExactMatch = !*noExact
	qopt := meraligner.DefaultQueryOptions()
	qopt.MaxSeedHits = *maxHits
	qopt.MinScore = *minScore
	qopt.CollectAlignments = true

	// Fleet producers: -o is the output directory here, not a file.
	if parts != 0 {
		a, err := openAligner(*threads, iopt, *indexPath, *targetsPath)
		if err != nil {
			log.Fatal(err)
		}
		defer a.Close()
		start := time.Now()
		save := a.SaveShards
		if *dhtSave != 0 {
			save = a.SaveSeedShards
		}
		paths, err := save(*outPath, parts)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range paths {
			fmt.Println(p)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "%d snapshot(s) (k=%d, %d internal shards) over %d targets written to %s in %.3fs\n",
				len(paths), a.IndexOptions().K, a.SeedTableShards(), len(a.Targets()), *outPath, time.Since(start).Seconds())
		}
		return
	}

	var out io.Writer = os.Stdout
	var outClose io.Closer // gzip stream to finish before the file closes
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		wc, _ := seqio.MaybeCompress(*outPath, f) // .gz suffix → gzip output
		defer wc.Close()
		out, outClose = wc, wc
	}

	// Build the index once, then serve each batch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var batches []string
	if *queriesPath != "" {
		batches = []string{*queriesPath}
	}
	if *batchList != "" {
		for _, p := range strings.Split(*batchList, ",") {
			if p = strings.TrimSpace(p); p != "" {
				batches = append(batches, p)
			}
		}
		if len(batches) == 0 {
			log.Fatal("-batches lists no files")
		}
	}
	// Catch unreadable batch files before paying the index build.
	for _, p := range batches {
		f, err := os.Open(p)
		if err != nil {
			log.Fatal(err)
		}
		if st, err := f.Stat(); err == nil && st.IsDir() {
			f.Close()
			log.Fatalf("%s: is a directory", p)
		}
		f.Close()
	}

	a, err := openAligner(*threads, iopt, *indexPath, *targetsPath)
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	targets := a.Targets()
	if *verbose {
		st := a.IndexStats()
		verb := "built"
		if a.Mapped() {
			verb = "mapped"
		}
		fmt.Fprintf(os.Stderr, "index %s in %.3fs (k=%d): %d distinct seeds, %d locations, ~%d MiB resident\n",
			verb, a.BuildWall(), a.IndexOptions().K, st.DistinctSeeds, st.TotalLocs, a.ResidentBytes()>>20)
	}
	if *dhtNodes != "" {
		var owners []string
		for _, u := range strings.Split(*dhtNodes, ",") {
			if u = strings.TrimSpace(u); u != "" {
				owners = append(owners, strings.TrimRight(u, "/"))
			}
		}
		if len(owners) == 0 {
			log.Fatal("-dht-nodes lists no base URLs")
		}
		fp, err := a.SeedPartitionFingerprint(len(owners))
		if err != nil {
			log.Fatal(err)
		}
		dc, err := dhtnet.New(dhtnet.Config{
			Owners:      owners,
			K:           a.IndexOptions().K,
			Shards:      a.SeedTableShards(),
			Fingerprint: fp,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer dc.Close()
		warmCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = dc.Warm(warmCtx)
		cancel()
		if err != nil {
			log.Fatalf("seed-shard fleet rejected: %v", err)
		}
		qopt.SeedResolver = dc
		if *verbose {
			fmt.Fprintf(os.Stderr, "resolving seeds against %d seed-shard node(s) (fingerprint %#x)\n", len(owners), fp)
		}
	}
	if *saveIndex != "" {
		saveStart := time.Now()
		if err := a.Save(*saveIndex); err != nil {
			log.Fatal(err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "index snapshot saved to %s in %.3fs\n", *saveIndex, time.Since(saveStart).Seconds())
		}
	}
	if len(batches) == 0 {
		return // build-and-save only
	}

	var stream *meraligner.SAMStream
	if *samOut {
		if stream, err = meraligner.NewSAMStream(out, targets); err != nil {
			log.Fatal(err)
		}
	}
	// die flushes the shared SAM stream (and finishes any gzip stream,
	// since log.Fatalf skips the deferred Close) before exiting, so records
	// of the batches that DID succeed are not lost in the writers' buffers.
	die := func(format string, args ...any) {
		if stream != nil {
			if ferr := stream.Flush(); ferr != nil {
				log.Printf("flushing SAM stream: %v", ferr)
			}
		}
		if outClose != nil {
			if cerr := outClose.Close(); cerr != nil {
				log.Printf("closing output: %v", cerr)
			}
		}
		log.Fatalf(format, args...)
	}
	for _, path := range batches {
		queries, err := meraligner.ReadQueries(path)
		if err != nil {
			die("%v", err)
		}
		res, err := a.Align(ctx, queries, qopt)
		if err != nil {
			die("%s: %v", path, err)
		}
		if stream != nil {
			err = stream.WriteBatch(res, queries)
		} else {
			err = meraligner.WriteAlignments(out, res, targets, queries)
		}
		if err != nil {
			die("%v", err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "%s: aligned %d/%d reads (%.1f%%), %d alignments, %d exact, %.3fs (%.0f reads/s)\n",
				path, res.AlignedReads, res.TotalReads,
				100*float64(res.AlignedReads)/float64(max(1, res.TotalReads)),
				res.TotalAlignments, res.ExactPathReads,
				res.TotalRealWall(), float64(res.TotalReads)/res.TotalRealWall())
		}
	}
	if stream != nil {
		if err := stream.Flush(); err != nil {
			log.Fatal(err)
		}
	}
}

// openAligner maps the -index snapshot when one is named, else builds the
// index over the -targets FASTA.
func openAligner(threads int, iopt meraligner.IndexOptions, indexPath, targetsPath string) (*meraligner.Aligner, error) {
	if indexPath != "" {
		return meraligner.OpenThreads(threads, indexPath)
	}
	return meraligner.BuildFiles(threads, iopt, targetsPath)
}
