package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// oneshot is oneshot_build: files on disk in, a SAM file out, the index
// built on the way — BuildFiles, ReadQueries, Align, WriteSAM. It drives the
// seed table the other way round from every other workload (staged writes,
// drain, mark and seal instead of probes) and parses FASTA and FASTQ, so a
// lookup speed-up bought with a slower seal or a bigger table costs here.
// There is nothing to set up once: every pass is a cold start, which is what
// a user of the one-shot path pays, and setup_s is the BuildFiles share.
type oneshot struct {
	ds            *genome.DataSet
	k             int
	fasta, fastq  string
	sam           string
	qopt          meraligner.QueryOptions
	want          []byte // the SAM document the gate checked
	reads         []meraligner.Seq
	exact         []bool
	meter         swMeter
	acc           engineAcc
	builds, walls []float64 // per untraced pass: BuildFiles seconds, files-to-SAM seconds
	lastBuild     *meraligner.Aligner
	lastBuildWall time.Duration
}

func (o *oneshot) prepare(e *env) error {
	ds, sz, err := dataset("oneshot_build", e.cfg.seed, e.cfg.scale)
	if err != nil {
		return err
	}
	o.ds, o.k = ds, sz.k
	o.qopt = meraligner.DefaultQueryOptions()
	o.qopt.CollectAlignments = true
	o.fasta = filepath.Join(e.tmp, "contigs.fa")
	o.fastq = filepath.Join(e.tmp, "reads.fq")
	o.sam = filepath.Join(e.tmp, "out.sam")
	e.counts["reads"] = len(ds.Reads)
	if err := writeSeqs(o.fasta, ds.Contigs, seqio.WriteFasta); err != nil {
		return err
	}
	return writeSeqs(o.fastq, ds.Reads, seqio.WriteFastq)
}

func writeSeqs(path string, seqs []meraligner.Seq, write func(w io.Writer, seqs []meraligner.Seq) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw, seqs); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (o *oneshot) setup(e *env) error { return nil }
func (o *oneshot) teardown() {
	if o.lastBuild != nil {
		o.lastBuild.Close()
		o.lastBuild = nil
	}
}

// gate runs the pipeline once and holds its SAM file to the shared checks;
// every timed pass must then reproduce that file byte for byte.
func (o *oneshot) gate(e *env) error {
	al, err := meraligner.BuildFiles(e.workers, meraligner.DefaultIndexOptions(o.k), o.fasta)
	if err != nil {
		return err
	}
	defer al.Close()
	if o.reads, err = meraligner.ReadQueries(o.fastq); err != nil {
		return err
	}
	if len(o.reads) != len(o.ds.Reads) {
		return fmt.Errorf("parsed %d reads, generated %d", len(o.reads), len(o.ds.Reads))
	}
	sam, res, err := gateLocal(e, al, o.ds, o.reads, o.qopt)
	if err != nil {
		return err
	}
	setResident(e, al.ResidentBytes())
	o.want, o.exact = sam, exactReads(res, len(o.reads))
	return nil
}

func (o *oneshot) measure(e *env, d time.Duration) error {
	st, err := repeatPasses(e, d, func(traced bool) (passOut, error) { return o.pass(e, traced) })
	if err != nil {
		return err
	}
	setLatency(e, "", st.lat)
	e.setMedian("setup_s", o.builds)
	e.setMedian("time_to_sam_s", o.walls)
	return nil
}

// pass is one cold run, files to SAM file.
func (o *oneshot) pass(e *env, traced bool) (passOut, error) {
	var out passOut
	q := o.qopt
	if traced {
		q.Extend = o.meter.extend
	}
	t0 := time.Now()
	al, err := meraligner.BuildFiles(e.workers, meraligner.DefaultIndexOptions(o.k), o.fasta)
	if err != nil {
		return out, err
	}
	o.teardown()
	o.lastBuild = al
	t1 := time.Now()
	reads, err := meraligner.ReadQueries(o.fastq)
	if err != nil {
		return out, err
	}
	t2 := time.Now()
	sw0 := o.meter.sample()
	res, err := al.Align(context.Background(), reads, q)
	if err != nil {
		return out, err
	}
	t3 := time.Now()
	if err := writeSAMFile(o.sam, res, al.Targets(), reads); err != nil {
		return out, err
	}
	t4 := time.Now()

	got, err := os.ReadFile(o.sam)
	if err != nil {
		return out, err
	}
	out.ok = len(reads)
	if !bytes.Equal(got, o.want) {
		out.ok, out.failed = 0, len(reads)
	}
	out.wall = t4.Sub(t0)
	out.lat = []time.Duration{out.wall}
	if traced {
		w := time.Duration(e.workers)
		root := e.tr.add(0, o.acc.passes, "bench.unit", t0, t4, t4.Sub(t0)*w, int64(len(reads)))
		e.tr.add(root, o.acc.passes, "core.build", t0, t1, t1.Sub(t0)*w, int64(len(al.Targets())))
		e.tr.add(root, o.acc.passes, "seqio.fastq", t1, t2, t2.Sub(t1)*w, int64(len(reads)))
		o.acc.addCall(e.tr, root, o.acc.passes, e.workers, res, t2, t3, t4, sw0, o.meter.sample())
		o.acc.passes++
		o.acc.bytesOut += int64(len(got))
		o.lastBuildWall = t1.Sub(t0)
	} else {
		o.builds = append(o.builds, t1.Sub(t0).Seconds())
		o.walls = append(o.walls, out.wall.Seconds())
	}
	return out, nil
}

func writeSAMFile(path string, res *meraligner.Results, targets, reads []meraligner.Seq) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := meraligner.WriteSAM(f, res, targets, reads); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (o *oneshot) layers(e *env) error {
	o.acc.publish(e, e.workers)
	parse, err := o.parseReplay(e)
	if err != nil {
		return err
	}
	buildMetrics(e, o.lastBuild, o.lastBuildWall-parse)
	scanNs := scanReplay(e, o.reads, o.exact, o.k)
	lookupNs, err := lookupReplay(e, o.lastBuild, o.reads, o.exact, o.k)
	if err != nil {
		return err
	}
	o.acc.publishSelf(e, e.workers, scanNs, lookupNs)
	return nil
}

// parseReplay times ReadFasta and ReadFastq over the workload's own bytes,
// from memory, and returns the FASTA share (BuildFiles pays it).
func (o *oneshot) parseReplay(e *env) (fasta time.Duration, err error) {
	for _, f := range []struct {
		path, metric string
		parse        func(raw []byte) error
	}{
		{o.fasta, "seqio.fasta_parse_mb_per_s", func(raw []byte) error {
			_, err := seqio.ReadFasta(bytes.NewReader(raw), seqio.ParseOptions{ReplaceN: true})
			return err
		}},
		{o.fastq, "seqio.fastq_parse_mb_per_s", func(raw []byte) error {
			_, err := seqio.ReadFastq(bytes.NewReader(raw), seqio.ParseOptions{ReplaceN: true})
			return err
		}},
	} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.parse(raw); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		e.set(f.metric, float64(len(raw))/1e6/d.Seconds())
		if f.path == o.fasta {
			fasta = d
		}
	}
	return fasta, nil
}
