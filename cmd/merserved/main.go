// Command merserved serves merAligner over HTTP: it builds the seed index
// over the target contigs exactly once, keeps it resident, and answers
// alignment requests forever — coalescing concurrent small requests into
// shared engine calls with a dynamic micro-batcher (see internal/service
// and internal/coalesce). It has four modes, one per index source: build
// (-targets), snapshot (-index), catalog (-index-dir) and seed-shard node
// (-seed-shard). The scatter/gather router over a sharded fleet is its own
// binary, cmd/merrouted.
//
// Usage:
//
//	merserved -targets contigs.fa [-k 51] [-threads N] [-addr :8490]
//	          [-max-batch 256] [-max-wait 2ms] [-queue 1024]
//	          [-max-hits 1000] [-min-score 0] [-no-exact] [-v]
//	merserved -index contigs.merx [-threads N] [-addr :8490] ...
//	merserved -index-dir snapshots/ [-resident-budget 2GiB]
//	          [-max-inflight-per-ref 64] [-swap-poll 1s] ...
//	merserved -seed-shard seed-shard-000.merx [-addr :8491] ...
//	merserved ... [-log-level info] [-log-format text|json]
//	          [-slow-request-ms 0] [-debug-addr 127.0.0.1:0]
//
// With -index the server memory-maps a .merx snapshot written by
// `meraligner -save-index` instead of building: warm start in
// milliseconds, and N replicas on one host share a single physical copy of
// the index through the page cache. Build-time options (-k, -no-exact)
// come from the snapshot and cannot be overridden.
//
// With -index-dir the server serves every <ref>.merx snapshot in the
// directory as /v1/<ref>/...: a multi-genome catalog behind one listener.
// Snapshots open lazily on first request, stay resident under the
// -resident-budget byte cap with LRU eviction, and hot-swap with zero
// downtime when a snapshot file is atomically replaced (rename into
// place — never truncate a served snapshot in place). -max-inflight-per-ref
// caps concurrent requests per reference (429 + Retry-After beyond it).
//
// With -seed-shard the server is a node of the distributed seed DHT: it
// memory-maps one seed-shard snapshot written by `meraligner -dht-save`
// and answers batched binary seed lookups (POST /v1/lookup, GET
// /v1/shardinfo) for the hash partition it owns — no reads, no extension,
// no SAM. Query nodes (`meraligner -dht-nodes`) resolve seeds against the
// fleet and align locally with byte-identical output (see internal/dhtnet).
//
// The listener binds and logs "listening on" immediately; until the index
// is built/mapped, every endpoint answers 503 warming except GET /healthz —
// poll GET /readyz for the 200 that means servable.
//
// Endpoints: POST /v1/align (JSON or FASTQ in; JSON, or SAM with
// Accept: text/x-sam, out), POST /v1/align/stream (NDJSON/SAM chunks),
// GET /v1/stats, /v1/targets, /healthz, /readyz, /metrics — all
// per-reference under /v1/<ref>/ in catalog mode, plus GET /v1/refs.
// Responses honor Accept-Encoding: gzip. SIGINT/SIGTERM drain gracefully:
// health flips to 503, queued requests finish, then the listener closes.
//
// Observability: every align request carries a request ID (minted, or
// adopted from traceparent / X-Request-Id) echoed in the X-Request-Id
// response header, error bodies, and -log-level debug request logs.
// -slow-request-ms logs a full span trace at warn for slow requests.
// -debug-addr starts a second, private listener with /debug/pprof/ and
// /debug/requests (recent request traces) — bind it to localhost only;
// it is not for public exposure.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/buildinfo"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/service"
)

func main() {
	var (
		targetsPath = flag.String("targets", "", "FASTA file of target sequences (contigs)")
		indexPath   = flag.String("index", "", "memory-map a .merx index snapshot instead of building from -targets")
		indexDir    = flag.String("index-dir", "", "serve every <ref>.merx snapshot in this directory as /v1/<ref>/... (catalog mode)")
		seedShard   = flag.String("seed-shard", "", "serve a seed-shard .merx snapshot (from `meraligner -dht-save`) as a batched seed-lookup node")
		budgetStr   = flag.String("resident-budget", "", "resident-bytes cap across open catalog indexes, e.g. 512MiB or 2GiB (empty = unlimited)")
		maxInflight = flag.Int("max-inflight-per-ref", 0, "max concurrently served align requests per reference (0 = unlimited)")
		swapPoll    = flag.Duration("swap-poll", 0, "min interval between snapshot hot-swap freshness checks (0 = 1s default, negative disables)")
		k           = flag.Int("k", 51, "seed length (1-64)")
		threads     = flag.Int("threads", runtime.NumCPU(), "worker threads (index build and engine pool)")
		maxHits     = flag.Int("max-hits", 1000, "max alignments per seed (0 = unlimited, §IV-C)")
		minScore    = flag.Int("min-score", 0, "minimum alignment score (0 = seed length)")
		noExact     = flag.Bool("no-exact", false, "disable the exact-match optimization (§IV-A)")
	)
	pf := service.RegisterProcessFlags(flag.CommandLine, ":8490")
	flag.Parse()
	p := pf.Init("merserved")
	logger := p.Logger

	var modes []string
	for _, m := range [][2]string{{"-targets", *targetsPath}, {"-index", *indexPath}, {"-index-dir", *indexDir}, {"-seed-shard", *seedShard}} {
		if m[1] != "" {
			modes = append(modes, m[0])
		}
	}
	if len(modes) != 1 {
		fmt.Fprintln(os.Stderr, "need exactly one of -targets (build the index) / -index (map a .merx snapshot) / -index-dir (serve a snapshot catalog) / -seed-shard (serve a seed-shard snapshot)")
		flag.Usage()
		os.Exit(2)
	}
	mode := modes[0]
	if mode != "-targets" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "k" || f.Name == "no-exact" {
				p.Fatal(fmt.Errorf("-%s is a build-time option; it is stored in the snapshot and cannot be set with %s", f.Name, mode))
			}
		})
	}
	budget, err := parseBytes(*budgetStr)
	if err != nil {
		p.Fatal(fmt.Errorf("-resident-budget: %v", err))
	}

	p.Listen()
	if *seedShard != "" {
		sh, err := core.LoadSeedShard(*seedShard)
		if err != nil {
			p.Fatal(err)
		}
		defer sh.Close()
		srv, err := service.NewSeedShard(service.SeedShardConfig{Shard: sh, Logger: logger})
		if err != nil {
			p.Fatal(err)
		}
		info := sh.Info()
		logger.Info(fmt.Sprintf("seed-shard mode: serving shard %d/%d (k=%d, %d internal shards, fingerprint %#x, ~%d MiB mapped)",
			info.ID, info.Count, info.K, info.Shards, info.Fingerprint, sh.ResidentBytes()>>20))
		p.Serve(srv)
		return
	}

	qopt := meraligner.DefaultQueryOptions()
	qopt.MaxSeedHits = *maxHits
	qopt.MinScore = *minScore
	cfg := service.Config{
		FrontConfig:       p.Front(),
		Query:             qopt,
		Workers:           *threads,
		MaxInflightPerRef: *maxInflight,
		Version:           buildinfo.Version,
	}
	if *indexDir != "" {
		cfg.IndexDir = *indexDir
		cfg.ResidentBudget = budget
		cfg.SwapPoll = *swapPoll
		budgetDesc := "unlimited"
		if budget > 0 {
			budgetDesc = fmt.Sprintf("~%d MiB", budget>>20)
		}
		logger.Info(fmt.Sprintf("catalog mode: serving *%s from %s (resident budget %s)", service.SnapshotExt, *indexDir, budgetDesc))
	} else {
		buildStart := time.Now()
		var al *meraligner.Aligner
		if *indexPath != "" {
			al, err = meraligner.OpenThreads(*threads, *indexPath)
		} else {
			iopt := meraligner.DefaultIndexOptions(*k)
			iopt.ExactMatch = !*noExact
			al, err = meraligner.BuildFiles(*threads, iopt, *targetsPath)
		}
		if err != nil {
			p.Fatal(err)
		}
		defer al.Close()
		verb := "built"
		if al.Mapped() {
			verb = "mapped"
		}
		st := al.IndexStats()
		logger.Info(fmt.Sprintf("index %s in %.3fs (k=%d): %d targets, %d distinct seeds, %d locations, ~%d MiB resident",
			verb, time.Since(buildStart).Seconds(), al.IndexOptions().K, len(al.Targets()), st.DistinctSeeds, st.TotalLocs, al.ResidentBytes()>>20))
		cfg.Aligner = al
	}
	srv, err := service.New(cfg)
	if err != nil {
		p.Fatal(err)
	}
	p.Serve(srv)
}

// parseBytes parses a human byte size: a plain integer (bytes) or one with
// a K/M/G/T suffix, optionally written as KiB/MiB/GiB/TiB (binary units
// either way). Empty means 0 (unlimited).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	num := strings.ToUpper(s)
	num = strings.TrimSuffix(num, "IB")
	num = strings.TrimSuffix(num, "B")
	shift := 0
	switch {
	case strings.HasSuffix(num, "K"):
		shift, num = 10, num[:len(num)-1]
	case strings.HasSuffix(num, "M"):
		shift, num = 20, num[:len(num)-1]
	case strings.HasSuffix(num, "G"):
		shift, num = 30, num[:len(num)-1]
	case strings.HasSuffix(num, "T"):
		shift, num = 40, num[:len(num)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("not a byte size: %q", s)
	}
	return int64(v * float64(int64(1)<<shift)), nil
}
