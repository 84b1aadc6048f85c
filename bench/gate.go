package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/eval"
	"github.com/lbl-repro/meraligner/internal/genome"
)

// The correctness gate runs before any timing. It reads SAM text the way a
// downstream tool would — nothing is taken from the engine's own structs —
// so a bug in the renderer or in the NM computation cannot vouch for itself.

// checkSAM checks every record of a SAM document against the reads and the
// targets it names: FLAG and POS in range, the CIGAR's query span equal to
// the read length, SEQ equal to the read on the reported strand, the
// reference span inside the target, NM equal to the edit distance recomputed
// from CIGAR and bases, and exactly one primary record per read, in read
// order.
func checkSAM(sam []byte, targets, reads []meraligner.Seq) error {
	tIdx := make(map[string]int, len(targets))
	tBases := make([]string, len(targets))
	for i, t := range targets {
		tIdx[t.Name] = i
	}
	next, primaries, sq := 0, 0, 0 // next read expected to start a record group
	var cur string
	for ln, line := range strings.Split(strings.TrimSuffix(string(sam), "\n"), "\n") {
		if strings.HasPrefix(line, "@") {
			if strings.HasPrefix(line, "@SQ") {
				sq++
			}
			continue
		}
		bad := func(format string, a ...any) error {
			return fmt.Errorf("sam line %d (%s): %s", ln+1, cur, fmt.Sprintf(format, a...))
		}
		f := strings.Split(line, "\t")
		if len(f) < 11 {
			return bad("%d fields", len(f))
		}
		if f[0] != cur { // a new read's group starts
			if cur != "" && primaries != 1 {
				return bad("previous read had %d primary records", primaries)
			}
			if next >= len(reads) || reads[next].Name != f[0] {
				return bad("record for %q out of read order", f[0])
			}
			cur, primaries = f[0], 0
			next++
		}
		read := reads[next-1].Seq
		flag, err := strconv.Atoi(f[1])
		if err != nil || flag&^(0x4|0x10|0x100) != 0 {
			return bad("flag %q", f[1])
		}
		if flag&0x100 == 0 {
			primaries++
		}
		if flag&0x4 != 0 {
			if f[2] != "*" || f[5] != "*" {
				return bad("unmapped record names a target")
			}
			continue
		}
		ti, ok := tIdx[f[2]]
		if !ok {
			return bad("unknown target %q", f[2])
		}
		if tBases[ti] == "" {
			tBases[ti] = targets[ti].Seq.String()
		}
		tb := tBases[ti]
		pos, err := strconv.Atoi(f[3])
		if err != nil || pos < 1 || pos > len(tb) {
			return bad("pos %q outside target of %d", f[3], len(tb))
		}
		want := read
		if flag&0x10 != 0 {
			want = want.ReverseComplement()
		}
		seq := f[9]
		if seq != want.String() {
			return bad("SEQ is not the read on the reported strand")
		}
		nmTag := -1
		for _, tag := range f[11:] {
			if v, ok := strings.CutPrefix(tag, "NM:i:"); ok {
				nmTag, _ = strconv.Atoi(v)
			}
		}
		qp, tp, nm, n := 0, pos-1, 0, 0
		for i := 0; i < len(f[5]); i++ {
			c := f[5][i]
			if c >= '0' && c <= '9' {
				n = n*10 + int(c-'0')
				continue
			}
			if n == 0 {
				return bad("cigar %q", f[5])
			}
			switch c {
			case 'S':
				qp += n
			case 'I':
				qp, nm = qp+n, nm+n
			case 'D':
				tp, nm = tp+n, nm+n
			case 'M':
				if qp+n > len(seq) || tp+n > len(tb) {
					return bad("cigar %q runs past the read or the target", f[5])
				}
				for j := 0; j < n; j++ {
					if seq[qp+j] != tb[tp+j] {
						nm++
					}
				}
				qp, tp = qp+n, tp+n
			default:
				return bad("cigar op %q", c)
			}
			n = 0
		}
		if qp != read.Len() {
			return bad("cigar %q spans %d query bases, read has %d", f[5], qp, read.Len())
		}
		if tp > len(tb) {
			return bad("alignment ends at %d past target end %d", tp, len(tb))
		}
		if nm != nmTag {
			return bad("NM:i:%d but CIGAR and bases give %d", nmTag, nm)
		}
	}
	if sq != len(targets) {
		return fmt.Errorf("sam: %d @SQ lines for %d targets", sq, len(targets))
	}
	if next != len(reads) || primaries != 1 {
		return fmt.Errorf("sam: records for %d of %d reads", next, len(reads))
	}
	return nil
}

// localSAM aligns reads in process and renders them with WriteSAM: the
// reference every other tier must match byte for byte.
func localSAM(al *meraligner.Aligner, reads []meraligner.Seq, q meraligner.QueryOptions) ([]byte, *meraligner.Results, error) {
	q.CollectAlignments = true
	res, err := al.Align(context.Background(), reads, q)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := meraligner.WriteSAM(&buf, res, al.Targets(), reads); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), res, nil
}

// gateLocal is the part of the gate every workload shares: align the whole
// read set in process (reads are ds.Reads, or the same reads parsed back from
// a file), check the SAM structurally, and score it against the generator's
// truth. Tiers that answer over a wire then only have to show
// byte-identity with this document.
func gateLocal(e *env, al *meraligner.Aligner, ds *genome.DataSet, reads []meraligner.Seq, q meraligner.QueryOptions) ([]byte, *meraligner.Results, error) {
	sam, res, err := localSAM(al, reads, q)
	if err != nil {
		return nil, nil, err
	}
	if err := checkSAM(sam, al.Targets(), reads); err != nil {
		return nil, nil, err
	}
	m := eval.Evaluate(ds, res, eval.Options{})
	e.set("recall_frac", m.Sensitivity())
	e.set("precision_frac", m.Precision())
	return sam, res, nil
}

// gateWire checks a serving tier against the in-process engine: the whole
// read set is aligned and checked locally, then the tier must answer a probe
// of the same reads with the same SAM bytes.
func gateWire(e *env, al *meraligner.Aligner, ds *genome.DataSet, cl *client.Client) error {
	q := meraligner.DefaultQueryOptions()
	if _, _, err := gateLocal(e, al, ds, ds.Reads, q); err != nil {
		return err
	}
	probe := ds.Reads[:min(len(ds.Reads), 1024)]
	for lo := 0; lo < len(probe); lo += 256 {
		part := probe[lo:min(lo+256, len(probe))]
		want, _, err := localSAM(al, part, q)
		if err != nil {
			return err
		}
		got, err := cl.AlignSAM(context.Background(), client.AlignRequest{Reads: client.FromSeqs(part)})
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("SAM over the wire differs from the in-process engine's on reads %d..%d", lo, lo+len(part))
		}
	}
	return nil
}

// setResident records index_resident_mb: the resident bytes of every index
// the workload keeps open, one entry per node of a fleet.
func setResident(e *env, bytes ...int64) {
	var total int64
	for _, b := range bytes {
		total += b
	}
	e.set("index_resident_mb", float64(total)/(1<<20))
}
