package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

func TestPartitionTargetsByBasesCoversAll(t *testing.T) {
	f := func(seed int64, threadsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		threads := 1 + int(threadsRaw%64)
		n := rng.Intn(200)
		targets := make([]seqio.Seq, n)
		for i := range targets {
			targets[i] = seqio.Seq{Seq: dna.Random(rng, 1+rng.Intn(5000))}
		}
		ranges := PartitionTargetsByBases(targets, threads)
		if len(ranges) != threads {
			return false
		}
		prev := 0
		for _, r := range ranges {
			if r[0] != prev || r[1] < r[0] {
				return false // contiguous, ordered
			}
			prev = r[1]
		}
		return prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPartitionTargetsByBasesBalances(t *testing.T) {
	// Highly skewed lengths: one giant contig plus many small ones. The
	// giant's holder should receive (nearly) nothing else.
	rng := rand.New(rand.NewSource(1))
	targets := []seqio.Seq{{Seq: dna.Random(rng, 100_000)}}
	for i := 0; i < 100; i++ {
		targets = append(targets, seqio.Seq{Seq: dna.Random(rng, 1000)})
	}
	ranges := PartitionTargetsByBases(targets, 2)
	// Thread 0 gets the giant (100k bases = half the total); thread 1 the
	// hundred small ones.
	if ranges[0][1]-ranges[0][0] > 5 {
		t.Errorf("giant-holding thread got %d targets, want few", ranges[0][1]-ranges[0][0])
	}
	if ranges[1][1]-ranges[1][0] < 90 {
		t.Errorf("other thread got %d targets, want ~100", ranges[1][1]-ranges[1][0])
	}
}

func TestPartitionTargetsByBasesEmptyAndTiny(t *testing.T) {
	ranges := PartitionTargetsByBases(nil, 4)
	for _, r := range ranges {
		if r[0] != r[1] {
			t.Error("empty target set produced non-empty range")
		}
	}
	// More threads than targets: every target still assigned exactly once.
	rng := rand.New(rand.NewSource(2))
	targets := []seqio.Seq{{Seq: dna.Random(rng, 10)}, {Seq: dna.Random(rng, 10)}}
	ranges = PartitionTargetsByBases(targets, 7)
	covered := 0
	for _, r := range ranges {
		covered += r[1] - r[0]
	}
	if covered != 2 {
		t.Errorf("covered %d targets, want 2", covered)
	}
}

// A read overlapping the boundary between two fragments of one target must
// still be found end-to-end: its seeds live in both fragments, and the
// alignment window maps back to the parent target in either case.
func TestReadSpanningFragmentBoundaryFound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k, F = 21, 500
	tg := dna.Random(rng, 3000)
	targets := []seqio.Seq{{Name: "c0", Seq: tg}}

	// Reads planted right across every fragment boundary (every F-k+1).
	var reads []seqio.Seq
	var positions []int
	step := F - k + 1
	for b := step; b+60 < tg.Len(); b += step {
		pos := b - 50
		reads = append(reads, seqio.Seq{Name: "q", Seq: tg.Slice(pos, pos+100)})
		positions = append(positions, pos)
	}
	if len(reads) == 0 {
		t.Fatal("no boundary reads constructed")
	}
	opt := testOptions(k)
	opt.FragmentLen = F
	res, err := RunThreaded(4, opt, targets, reads)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int32]bool{}
	for _, a := range res.Alignments {
		if int(a.Score) == 100 && int(a.TStart) == positions[a.Query] {
			found[a.Query] = true
		}
	}
	for qi := range reads {
		if !found[int32(qi)] {
			t.Errorf("boundary-spanning read %d (pos %d) not found at full score", qi, positions[qi])
		}
	}
}

// Wheat-like repeat-heavy workload end-to-end smoke: repeats must produce
// multi-location seeds and still align the bulk of reads.
func TestWheatLikeRepeatHeavy(t *testing.T) {
	p := genome.WheatLike(150_000)
	p.Depth = 3
	p.InsertMean = 0
	ds, err := genome.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunThreaded(4, testOptions(31), ds.Contigs, ds.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexStats.RepeatSeeds == 0 {
		t.Error("repeat-heavy genome produced no repeat seeds")
	}
	frac := float64(res.AlignedReads) / float64(res.TotalReads)
	if frac < 0.6 {
		t.Errorf("aligned only %.2f of wheat-like reads", frac)
	}
	if res.IndexStats.SingleCopyFrags >= res.IndexStats.Fragments {
		t.Error("every fragment single-copy despite repeats")
	}
}
