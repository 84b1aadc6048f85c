package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/genome"
)

// batch is batch_exact and batch_divergent: Build once, then the resident
// engine over chunks of reads — Aligner.AlignWorkers, then
// SAMStream.WriteBatch. The two differ only in their inputs, which put them
// at opposite ends of the engine: batch_exact is one probe and a memcmp per
// read, batch_divergent is a lookup per seed and Smith-Waterman on most hits.
type batch struct {
	divergent bool

	ds   *genome.DataSet
	k    int
	qopt meraligner.QueryOptions
	al   *meraligner.Aligner

	buildWall time.Duration // the last set-up, for core.build.seal_s
	exact     []bool        // per read: resolved on the exact path (from the gate)
	meter     swMeter
	acc       engineAcc // summed over the traced passes
}

// chunkReads is the unit of work of the batch workloads: large enough that
// the engine's 256-read claims spread over every worker, small enough that a
// run times hundreds of chunks.
func (b *batch) chunkReads() int {
	if b.divergent {
		return 512
	}
	return 4096
}

func (b *batch) prepare(e *env) error {
	name := "batch_exact"
	if b.divergent {
		name = "batch_divergent"
	}
	ds, sz, err := dataset(name, e.cfg.seed, e.cfg.scale)
	if err != nil {
		return err
	}
	b.ds, b.k = ds, sz.k
	b.qopt = meraligner.DefaultQueryOptions()
	b.qopt.CollectAlignments = true
	e.counts["reads"] = len(ds.Reads)
	return nil
}

func (b *batch) setup(e *env) error {
	t0 := time.Now()
	al, err := meraligner.Build(e.workers, meraligner.DefaultIndexOptions(b.k), b.ds.Contigs)
	b.al, b.buildWall = al, time.Since(t0)
	return err
}

func (b *batch) teardown() {
	if b.al != nil {
		b.al.Close()
		b.al = nil
	}
}

func (b *batch) gate(e *env) error {
	_, res, err := gateLocal(e, b.al, b.ds, b.ds.Reads, b.qopt)
	if err != nil {
		return err
	}
	setResident(e, b.al.ResidentBytes())
	b.exact = exactReads(res, len(b.ds.Reads))
	frac := float64(res.ExactPathReads) / float64(res.TotalReads)
	if e.cfg.scale != 1 {
		return nil // the shape is asserted at the frozen sizes; 150 smoke reads prove nothing
	}
	if !b.divergent && frac < 0.97 {
		return fmt.Errorf("batch_exact: only %.3f of reads took the exact path, want >= 0.97", frac)
	}
	if b.divergent && frac > 0.01 {
		return fmt.Errorf("batch_divergent: %.3f of reads took the exact path, want < 0.01", frac)
	}
	return nil
}

func (b *batch) measure(e *env, d time.Duration) error {
	reads := b.ds.Reads
	if _, err := b.pass(e, e.workers, reads[:max(len(reads)/10, 1)], false); err != nil { // warm-up
		return err
	}
	st, err := repeatPasses(e, d, func(traced bool) (passOut, error) {
		return b.pass(e, e.workers, reads, traced)
	})
	if err != nil {
		return err
	}
	setLatency(e, "", st.lat)
	if e.tr != nil && b.divergent && e.cfg.scale == 1 {
		// The workload exists to show Smith-Waterman; if it does not
		// dominate at the frozen sizes the inputs have lost their shape.
		if share := b.acc.swShare(e.workers); share < 0.6 {
			return fmt.Errorf("batch_divergent: align.sw_share %.2f, want >= 0.6", share)
		}
	}
	return nil
}

// pass aligns and renders reads chunk by chunk. A traced pass routes
// extension through the meter and records one span per chunk and layer.
func (b *batch) pass(e *env, workers int, reads []meraligner.Seq, traced bool) (passOut, error) {
	var out passOut
	sink := &countWriter{}
	start := time.Now()
	stream, err := meraligner.NewSAMStream(sink, b.al.Targets())
	if err != nil {
		return out, err
	}
	q := b.qopt
	if traced {
		q.Extend = b.meter.extend
	}
	step := b.chunkReads()
	for lo := 0; lo < len(reads); lo += step {
		chunk := reads[lo:min(lo+step, len(reads))]
		t0 := time.Now()
		sw0 := b.meter.sample()
		res, err := b.al.AlignWorkers(context.Background(), workers, chunk, q)
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		if err := stream.WriteBatch(res, chunk); err != nil {
			return out, err
		}
		t2 := time.Now()
		out.lat = append(out.lat, t2.Sub(t0))
		out.ok += len(chunk)
		if traced {
			b.acc.addCall(e.tr, 0, lo/step, workers, res, t0, t1, t2, sw0, b.meter.sample())
		}
	}
	if err := stream.Flush(); err != nil {
		return out, err
	}
	out.wall = time.Since(start)
	if traced {
		b.acc.passes++
		b.acc.bytesOut += sink.n
	}
	return out, nil
}

func (b *batch) layers(e *env) error {
	b.acc.publish(e, e.workers)
	buildMetrics(e, b.al, b.buildWall)
	scanNs := scanReplay(e, b.ds.Reads, b.exact, b.k)
	lookupNs, err := lookupReplay(e, b.al, b.ds.Reads, b.exact, b.k)
	if err != nil {
		return err
	}
	b.acc.publishSelf(e, e.workers, scanNs, lookupNs)
	if b.divergent {
		return b.workerScaling(e)
	}
	return nil
}

// workerScaling times the first quarter of the reads at one worker and at
// all of them. A scaling figure taken with more workers than CPUs measures
// contention, so it is refused rather than reported.
func (b *batch) workerScaling(e *env) error {
	if e.workers < 2 {
		return nil // nothing to compare on one CPU: omitted, not estimated
	}
	if cpus := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); e.workers > cpus {
		return fmt.Errorf("core.worker_scaling_x: %d workers on %d usable CPUs; refusing to record a scaling row", e.workers, cpus)
	}
	quarter := b.ds.Reads[:max(len(b.ds.Reads)/4, 1)]
	one, err := b.pass(e, 1, quarter, false)
	if err != nil {
		return err
	}
	all, err := b.pass(e, e.workers, quarter, false)
	if err != nil {
		return err
	}
	e.set("core.worker_scaling_x", one.wall.Seconds()/all.wall.Seconds())
	return nil
}

// countWriter discards SAM text and counts it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
