// Distributed: run the full merAligner pipeline on a simulated 3,072-core
// PGAS machine (128 nodes x 24 cores) and print the phase breakdown,
// communication statistics and cache effectiveness — a window into exactly
// what the strong-scaling experiments measure.
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/sim"
	"github.com/lbl-repro/meraligner/internal/upc"
)

func main() {
	log.SetFlags(0)
	cores := flag.Int("cores", 3072, "simulated cores (24 per node)")
	genomeLen := flag.Int("genome", 4_000_000, "genome length")
	flag.Parse()

	profile := genome.HumanLike(*genomeLen)
	profile.Depth = 10
	profile.InsertMean = 0
	ds, err := genome.Generate(profile)
	if err != nil {
		log.Fatal(err)
	}

	mach := upc.Edison(*cores)
	fmt.Printf("simulated machine: %d cores = %d nodes x %d\n", mach.Threads, mach.Nodes(), mach.PPN)
	fmt.Printf("workload: %d contigs (%d bp genome), %d reads\n\n",
		len(ds.Contigs), profile.GenomeLen, len(ds.Reads))

	res, err := sim.Run(mach, sim.DefaultOptions(51), ds.Contigs, ds.Reads)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("simulated phase breakdown (wall = slowest thread, barriers between phases):")
	for _, p := range res.Phases {
		fmt.Printf("  %-24s %10.4fs   comp %9.4fs  comm %9.4fs  io %8.4fs\n",
			p.Name, p.Wall, p.MaxComp, p.MaxComm, p.MaxIO)
	}
	fmt.Printf("  %-24s %10.4fs\n\n", "TOTAL", res.TotalWall())

	fmt.Printf("reads aligned:        %d/%d (%.1f%%)\n", res.AlignedReads, res.TotalReads,
		100*float64(res.AlignedReads)/float64(res.TotalReads))
	fmt.Printf("exact-match fast path: %d reads (%.1f%% of aligned)\n", res.ExactPathReads,
		100*float64(res.ExactPathReads)/float64(max(1, res.AlignedReads)))
	fmt.Printf("throughput:            %.2fM reads/s (simulated)\n",
		float64(res.TotalReads)/res.TotalWall()/1e6)
	fmt.Printf("seed lookups:          %d, Smith-Waterman calls: %d\n", res.SeedLookups, res.SWCalls)
	fmt.Printf("seed cache:            %.1f%% hit rate\n", 100*res.SeedCache.HitRate())
	fmt.Printf("target cache:          %.1f%% hit rate\n", 100*res.TargetCache.HitRate())
	fmt.Printf("index:                 %d distinct seeds over %d fragments (%d single-copy)\n",
		res.IndexStats.DistinctSeeds, res.IndexStats.Fragments, res.IndexStats.SingleCopyFrags)
	fmt.Printf("align-phase comm:      seed lookups %.4fs, target fetches %.4fs (slowest thread)\n",
		res.CommSeedLookupMax, res.CommFetchTargetMax)
}
