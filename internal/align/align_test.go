package align

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/lbl-repro/meraligner/internal/dna"
)

func codes(s string) []byte { return dna.MustPack(s).Codes() }

func randCodes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(4))
	}
	return out
}

// Score computes the score-only local alignment of query vs target with the
// reference O(mn) affine-gap dynamic program: the independent score the
// kernel's Results are checked against.
func Score(query, target []byte, sc Scoring) int {
	n, m := len(query), len(target)
	if n == 0 || m == 0 {
		return 0
	}
	// H, E over a rolling column; F computed on the fly.
	H := make([]int, n+1)
	E := make([]int, n+1)
	negInf := -1 << 30
	for j := 0; j <= n; j++ {
		E[j] = negInf
	}
	best := 0
	for i := 1; i <= m; i++ {
		diag := 0 // H[i-1][0]
		F := negInf
		for j := 1; j <= n; j++ {
			E[j] = max(E[j]-sc.GapExtend, H[j]-sc.GapOpen-sc.GapExtend)
			F = max(F-sc.GapExtend, H[j-1]-sc.GapOpen-sc.GapExtend)
			h := max(0, diag+sc.score(query[j-1], target[i-1]), E[j], F)
			diag = H[j]
			H[j] = h
			best = max(best, h)
		}
	}
	return best
}

func TestScoringValidate(t *testing.T) {
	if err := DefaultScoring.Validate(); err != nil {
		t.Errorf("default scoring invalid: %v", err)
	}
	if err := (Scoring{Match: 0, Mismatch: 1}).Validate(); err == nil {
		t.Error("Match=0 accepted")
	}
	if err := (Scoring{Match: 1, Mismatch: -1}).Validate(); err == nil {
		t.Error("negative mismatch accepted")
	}
}

func TestScoreIdentical(t *testing.T) {
	q := codes("ACGTACGTAC")
	if got := Score(q, q, DefaultScoring); got != 10 {
		t.Errorf("self-alignment score = %d, want 10", got)
	}
}

func TestScoreDisjoint(t *testing.T) {
	// Local alignment of unrelated short sequences can still pick up a
	// 1-base match; all-A vs all-C shares nothing.
	q := codes("AAAAAAAA")
	tg := codes("CCCCCCCC")
	if got := Score(q, tg, DefaultScoring); got != 0 {
		t.Errorf("disjoint score = %d, want 0", got)
	}
}

func TestScoreEmptyInputs(t *testing.T) {
	if Score(nil, codes("ACGT"), DefaultScoring) != 0 {
		t.Error("empty query score != 0")
	}
	if Score(codes("ACGT"), nil, DefaultScoring) != 0 {
		t.Error("empty target score != 0")
	}
	r := Local(nil, nil, DefaultScoring)
	if r.Score != 0 || len(r.Cigar) != 0 {
		t.Error("Local on empty inputs not zero")
	}
}

func TestScoreKnownMismatch(t *testing.T) {
	// One substitution in the middle: best local alignment is the longer
	// exact flank unless spanning pays. With match=1, mismatch=3:
	// spanning scores 9*1-3=6, right flank alone = 5, left = 4 -> flank 5?
	// Actually spanning: 10 bases, 9 match 1 mismatch = 9-3 = 6 > 5.
	q := codes("ACGTAGGTAC") // vs ACGTACGTAC: position 5 differs (G vs C)
	tg := codes("ACGTACGTAC")
	if got := Score(q, tg, DefaultScoring); got != 6 {
		t.Errorf("score = %d, want 6", got)
	}
}

func TestScoreGap(t *testing.T) {
	// Query = target with one base deleted. Spanning alignment:
	// 12 matches - (open 5 + extend 2) = 12 - 7 = 5; best flank = 6 matches.
	// With 13-base target: flanks are 6 and 6... spanning = 12-7=5 < 6.
	q := codes("ACGTAC" + "GTACGT")        // 12 bases
	tg := codes("ACGTAC" + "A" + "GTACGT") // 13 bases, insertion in middle
	sc := Scoring{Match: 2, Mismatch: 3, GapOpen: 2, GapExtend: 1}
	// Spanning: 12*2 - (2+1) = 21; flank alone: 6*2=12.
	if got := Score(q, tg, sc); got != 21 {
		t.Errorf("gapped score = %d, want 21", got)
	}
}

func TestLocalTracebackExact(t *testing.T) {
	q := codes("ACGTACGT")
	res := Local(q, q, DefaultScoring)
	if res.Score != 8 || res.QStart != 0 || res.QEnd != 8 || res.TStart != 0 || res.TEnd != 8 {
		t.Errorf("unexpected result %+v", res)
	}
	if res.Cigar.String() != "8M" {
		t.Errorf("cigar = %s, want 8M", res.Cigar)
	}
}

func TestLocalTracebackSubstring(t *testing.T) {
	tg := codes("TTTTTACGTACGTTTTTT")
	q := codes("ACGTACGT")
	res := Local(q, tg, DefaultScoring)
	if res.Score != 8 {
		t.Fatalf("score = %d, want 8", res.Score)
	}
	if res.TStart != 5 || res.TEnd != 13 {
		t.Errorf("target span [%d,%d), want [5,13)", res.TStart, res.TEnd)
	}
	if res.Cigar.String() != "8M" {
		t.Errorf("cigar = %s", res.Cigar)
	}
}

func TestLocalTracebackWithGap(t *testing.T) {
	sc := Scoring{Match: 2, Mismatch: 3, GapOpen: 2, GapExtend: 1}
	q := codes("ACGTACGTACGT")
	tg := codes("ACGTACAGTACGT") // one extra A at position 6
	res := Local(q, tg, sc)
	if res.Score != 21 {
		t.Fatalf("score = %d, want 21", res.Score)
	}
	if res.Cigar.QuerySpan() != 12 {
		t.Errorf("query span = %d, want 12", res.Cigar.QuerySpan())
	}
	if res.Cigar.TargetSpan() != 13 {
		t.Errorf("target span = %d, want 13", res.Cigar.TargetSpan())
	}
}

// Property: traceback result is internally consistent and its cigar rescores
// to the reported score.
func TestLocalCigarRescoresProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randCodes(rng, 5+rng.Intn(60))
		tg := randCodes(rng, 5+rng.Intn(120))
		sc := DefaultScoring
		res := Local(q, tg, sc)
		if res.Score != Score(q, tg, sc) {
			return false
		}
		if res.Score == 0 {
			return true
		}
		// Walk the cigar and recompute the score.
		qi, ti, total := res.QStart, res.TStart, 0
		for _, op := range res.Cigar {
			switch op.Op {
			case 'M':
				for x := 0; x < op.Len; x++ {
					total += sc.score(q[qi], tg[ti])
					qi++
					ti++
				}
			case 'I':
				total -= sc.GapOpen + op.Len*sc.GapExtend
				qi += op.Len
			case 'D':
				total -= sc.GapOpen + op.Len*sc.GapExtend
				ti += op.Len
			}
		}
		return total == res.Score && qi == res.QEnd && ti == res.TEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// localOracle is the textbook three-matrix Local that the rolling-row kernel
// replaced, kept verbatim as the reference every Result is compared with:
// full (m+1) x (n+1) H, E and F matrices, traced back through the stored
// scores.
func localOracle(query, target []byte, sc Scoring) Result {
	n, m := len(query), len(target)
	if n == 0 || m == 0 {
		return Result{}
	}
	// Full matrices for traceback: H, E, F as (m+1) x (n+1).
	w := n + 1
	H := make([]int32, (m+1)*w)
	E := make([]int32, (m+1)*w)
	F := make([]int32, (m+1)*w)
	const negInf = int32(-1 << 28)
	for j := 0; j < w; j++ {
		E[j] = negInf
		F[j] = negInf
	}
	for i := 1; i <= m; i++ {
		E[i*w] = negInf
		F[i*w] = negInf
	}
	var best int32
	bi, bj := 0, 0
	go_, ge := int32(sc.GapOpen+sc.GapExtend), int32(sc.GapExtend)
	for i := 1; i <= m; i++ {
		row, prow := i*w, (i-1)*w
		for j := 1; j <= n; j++ {
			e := max(E[prow+j]-ge, H[prow+j]-go_)
			f := max(F[row+j-1]-ge, H[row+j-1]-go_)
			h := max(0, H[prow+j-1]+int32(sc.score(query[j-1], target[i-1])), e, f)
			E[row+j] = e
			F[row+j] = f
			H[row+j] = h
			if h > best {
				best, bi, bj = h, i, j
			}
		}
	}
	if best == 0 {
		return Result{}
	}
	// Traceback from (bi, bj) until H == 0.
	var ops []CigarOp
	pushOp := func(op byte) {
		if len(ops) > 0 && ops[len(ops)-1].Op == op {
			ops[len(ops)-1].Len++
			return
		}
		ops = append(ops, CigarOp{Op: op, Len: 1})
	}
	i, j := bi, bj
	state := byte('H')
	for i > 0 && j > 0 {
		row, prow := i*w, (i-1)*w
		switch state {
		case 'H':
			h := H[row+j]
			if h == 0 {
				i, j = 0, 0 // terminate
				continue
			}
			switch {
			case h == H[prow+j-1]+int32(sc.score(query[j-1], target[i-1])):
				pushOp('M')
				i, j = i-1, j-1
			case h == E[row+j]:
				state = 'E'
			case h == F[row+j]:
				state = 'F'
			default:
				// h == 0 handled above; unreachable for valid DP.
				i, j = 0, 0
			}
		case 'E': // gap in query consuming target ('D')
			pushOp('D')
			if E[row+j] == H[prow+j]-go_ {
				state = 'H'
			}
			i--
		case 'F': // gap in target consuming query ('I')
			pushOp('I')
			if F[row+j] == H[row+j-1]-go_ {
				state = 'H'
			}
			j--
		}
		if state == 'H' && i > 0 && j > 0 && H[i*w+j] == 0 {
			break
		}
	}
	// ops were collected end->start; reverse.
	for l, r := 0, len(ops)-1; l < r; l, r = l+1, r-1 {
		ops[l], ops[r] = ops[r], ops[l]
	}
	res := Result{Score: int(best), QEnd: bj, TEnd: bi, Cigar: ops}
	res.QStart = bj - res.Cigar.QuerySpan()
	res.TStart = bi - res.Cigar.TargetSpan()
	return res
}

// oracleScorings spans the regimes the kernel's tie rules meet: the default,
// cheap gaps, expensive opens, free opens, costly mismatches and free
// mismatches.
var oracleScorings = []Scoring{
	DefaultScoring,
	{Match: 2, Mismatch: 1, GapOpen: 1, GapExtend: 1},
	{Match: 5, Mismatch: 4, GapOpen: 10, GapExtend: 1},
	{Match: 1, Mismatch: 1, GapOpen: 0, GapExtend: 1},
	{Match: 2, Mismatch: 3, GapOpen: 2, GapExtend: 1},
	{Match: 1, Mismatch: 0, GapOpen: 0, GapExtend: 1},
}

// mutate copies src with substitutions, insertions and deletions, each at
// rate per base.
func mutate(rng *rand.Rand, src []byte, rate float64) []byte {
	out := make([]byte, 0, len(src)+8)
	for _, b := range src {
		switch r := rng.Float64(); {
		case r < rate:
			out = append(out, byte(rng.Intn(4)))
		case r < 2*rate:
			out = append(out, b, byte(rng.Intn(4)))
		case r < 3*rate:
		default:
			out = append(out, b)
		}
	}
	return out
}

// oracleCase draws one (query, target) pair: unrelated random codes, a
// mutated substring with indels, or a tandem repeat whose many equal-scoring
// cells exercise the tie-breaks.
func oracleCase(rng *rand.Rand) (q, tg []byte) {
	switch rng.Intn(3) {
	case 0:
		return randCodes(rng, 1+rng.Intn(120)), randCodes(rng, 1+rng.Intn(200))
	case 1:
		tg = randCodes(rng, 20+rng.Intn(250))
		start := rng.Intn(len(tg) / 2)
		end := start + 1 + rng.Intn(len(tg)-start)
		return mutate(rng, tg[start:end], 0.05), tg
	default:
		unit := randCodes(rng, 1+rng.Intn(6))
		for len(tg) < 30+rng.Intn(200) {
			tg = append(tg, unit...)
		}
		q = mutate(rng, tg[rng.Intn(len(tg)/2):], 0.03)
		if len(q) == 0 {
			q = unit
		}
		return q, tg
	}
}

// scoreOnly is the part of a Result a Scorer reports: the best cell, no
// traceback. The zero Result maps to itself.
func scoreOnly(r Result) Result { return Result{Score: r.Score, QEnd: r.QEnd, TEnd: r.TEnd} }

// checkOracle fails t unless Local returns localOracle's Result and z, a
// Scorer reused across calls, returns its score-only part.
func checkOracle(t *testing.T, z *Scorer, q, tg []byte, sc Scoring, what string) {
	t.Helper()
	want := localOracle(q, tg, sc)
	if got := Local(q, tg, sc); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Local, sc=%+v q=%v t=%v:\n got  %+v\n want %+v", what, sc, q, tg, got, want)
	}
	if got := z.Score(q, tg, sc); !reflect.DeepEqual(got, scoreOnly(want)) {
		t.Fatalf("%s: Scorer, sc=%+v q=%v t=%v:\n got  %+v\n want %+v", what, sc, q, tg, got, scoreOnly(want))
	}
}

// TestLocalMatchesOracle: the rolling-row kernel returns exactly the
// three-matrix Result — score, both endpoints and cigar — on random,
// indel-mutated and tandem-repeat inputs under every oracle scoring, and
// a Scorer returns the same score and end-points.
func TestLocalMatchesOracle(t *testing.T) {
	trials := 2000
	if testing.Short() {
		trials = 300
	}
	rng := rand.New(rand.NewSource(30))
	var z Scorer
	for _, sc := range oracleScorings {
		for trial := range trials {
			q, tg := oracleCase(rng)
			checkOracle(t, &z, q, tg, sc, fmt.Sprintf("trial %d", trial))
		}
	}
}

// TestLocalOtherBytes: Local and Scorer score bytes outside the 2-bit
// alphabet by equality, as the oracle does.
func TestLocalOtherBytes(t *testing.T) {
	q := []byte{0, 1, 7, 2, 3, 7, 7, 1}
	tg := []byte{3, 0, 1, 7, 2, 3, 7, 9, 1, 255}
	var z Scorer
	for _, sc := range oracleScorings {
		checkOracle(t, &z, q, tg, sc, "other bytes")
	}
}

// FuzzLocal checks Local and Scorer against localOracle on arbitrary
// 2-bit inputs of up to 300 bases, under the oracle scoring the seed byte
// picks.
func FuzzLocal(f *testing.F) {
	f.Add([]byte("ACGTACGTAC"), []byte("TTACGTAGGTACTT"), byte(0))
	f.Add([]byte{0, 1, 0, 1, 0, 1}, []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, byte(3))
	f.Add([]byte{2, 2, 2}, []byte{1, 1}, byte(5))
	var z Scorer
	f.Fuzz(func(t *testing.T, q, tg []byte, pick byte) {
		const capLen = 300
		q, tg = q[:min(len(q), capLen)], tg[:min(len(tg), capLen)]
		for i := range q {
			q[i] &= 3
		}
		for i := range tg {
			tg[i] &= 3
		}
		checkOracle(t, &z, q, tg, oracleScorings[int(pick)%len(oracleScorings)], "fuzz")
	})
}

// TestLocalSteadyStateAllocs: once the pool is warm, a non-zero Result costs
// exactly its cigar and a zero one costs nothing, through Local and
// ExtendSeed alike; a Scorer costs nothing either way.
func TestLocalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	q, tg := benchSeqs(150, 198)
	disjoint := codes("AAAAAAAAAAAA")
	other := codes("CCCCCCCCCCCCCCCCCCCC")
	var z Scorer
	cases := []struct {
		name    string
		fn      func() Result
		nonZero bool
		want    float64
	}{
		{"Local", func() Result { return Local(q, tg, DefaultScoring) }, true, 1},
		{"ExtendSeed", func() Result { return ExtendSeed(q, tg, 0, 24, 21, DefaultScoring, 24) }, true, 1},
		{"Scorer", func() Result { return z.Score(q, tg, DefaultScoring) }, true, 0},
		{"Local zero", func() Result { return Local(disjoint, other, DefaultScoring) }, false, 0},
		{"ExtendSeed zero", func() Result { return ExtendSeed(disjoint, other, 0, 4, 4, DefaultScoring, 24) }, false, 0},
		{"Scorer zero", func() Result { return z.Score(disjoint, other, DefaultScoring) }, false, 0},
	}
	for _, c := range cases {
		if r := c.fn(); (r.Score != 0) != c.nonZero {
			t.Fatalf("%s: score %d, want a non-zero result: %v", c.name, r.Score, c.nonZero)
		}
		if got := testing.AllocsPerRun(100, func() { c.fn() }); got != c.want {
			t.Errorf("%s: %.2f allocs/run, want %v", c.name, got, c.want)
		}
	}
}

func TestCigarString(t *testing.T) {
	for _, c := range []struct {
		cigar Cigar
		want  string
	}{
		{nil, ""},
		{Cigar{{Op: 'M', Len: 150}}, "150M"},
		{Cigar{{Op: 'M', Len: 37}, {Op: 'I', Len: 1}, {Op: 'M', Len: 63}, {Op: 'D', Len: 2}, {Op: 'M', Len: 5}}, "37M1I63M2D5M"},
		{Cigar{{Op: 'D', Len: 1234567}, {Op: 'M', Len: 0}}, "1234567D0M"},
	} {
		if got := c.cigar.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", []CigarOp(c.cigar), got, c.want)
		}
	}
}

// --- ExtendSeed ---

func TestExtendSeedFindsEmbeddedMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tg := randCodes(rng, 1000)
	q := append([]byte(nil), tg[400:500]...)
	// Seed: query offset 10 matches target offset 410, length 21.
	res := ExtendSeed(q, tg, 10, 410, 21, DefaultScoring, 16)
	if res.Score != 100 {
		t.Fatalf("score = %d, want 100", res.Score)
	}
	if res.TStart != 400 || res.TEnd != 500 {
		t.Errorf("target span [%d,%d), want [400,500)", res.TStart, res.TEnd)
	}
	if res.Cigar.String() != "100M" {
		t.Errorf("cigar = %s", res.Cigar)
	}
}

func TestExtendSeedWindowClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tg := randCodes(rng, 50)
	q := append([]byte(nil), tg[0:30]...)
	res := ExtendSeed(q, tg, 0, 0, 21, DefaultScoring, 100)
	if res.Score != 30 || res.TStart != 0 {
		t.Errorf("clamped extension: %+v", res)
	}
	// Degenerate window.
	if r := ExtendSeed(q, tg, 0, 50, 1, DefaultScoring, 0); r.Score != 0 {
		t.Errorf("empty window should score 0, got %+v", r)
	}
	// Negative pad treated as zero.
	if r := ExtendSeed(q, tg, 0, 0, 21, DefaultScoring, -5); r.Score != 30 {
		t.Errorf("negative pad: %+v", r)
	}
}

func TestCells(t *testing.T) {
	if Cells(100, 200) != 20000 {
		t.Error("Cells broken")
	}
}

// --- Benchmarks (the SW micro-benchmarks behind the cost model) ---

func benchSeqs(qLen, tLen int) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(13))
	tg := randCodes(rng, tLen)
	start := (tLen - qLen) / 2 // the query sits mid-window, as ExtendSeed centres it
	q := append([]byte(nil), tg[start:start+qLen]...)
	for i := range q {
		if rng.Float64() < 0.01 {
			q[i] = byte(rng.Intn(4))
		}
	}
	return q, tg
}

func BenchmarkReferenceSW100x200(b *testing.B) {
	q, tg := benchSeqs(100, 200)
	b.SetBytes(int64(len(q) * len(tg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Score(q, tg, DefaultScoring)
	}
}

func BenchmarkLocalWithTraceback100x200(b *testing.B) {
	q, tg := benchSeqs(100, 200)
	b.SetBytes(int64(len(q) * len(tg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Local(q, tg, DefaultScoring)
	}
}

// BenchmarkLocal150x198 is one extension at the bench's shape: a 150-base
// read against its 198-base window (the read plus the engine's 24-base pad
// on each side).
func BenchmarkLocal150x198(b *testing.B) {
	benchLocal(b, Local)
}

// BenchmarkLocalOracle150x198 is the same extension through the three-matrix
// oracle, the baseline BenchmarkLocal150x198's B/op is read against.
func BenchmarkLocalOracle150x198(b *testing.B) {
	benchLocal(b, localOracle)
}

func benchLocal(b *testing.B, local func(q, tg []byte, sc Scoring) Result) {
	q, tg := benchSeqs(150, 198)
	b.ReportAllocs()
	for b.Loop() {
		local(q, tg, DefaultScoring)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(Cells(len(q), len(tg))), "ns/cell")
}

// The package's entry points (ExtendSeed, Local, and a Scorer per goroutine)
// must be safe for concurrent use: the threaded engine runs them from many
// worker goroutines against shared target slices. Run under -race in CI's
// race job.
func TestConcurrentEntryPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	target := randCodes(rng, 4000)
	queries := make([][]byte, 16)
	for i := range queries {
		off := rng.Intn(len(target) - 120)
		q := append([]byte(nil), target[off:off+100]...)
		q[rng.Intn(len(q))] = byte(rng.Intn(4)) // maybe a substitution
		queries[i] = q
	}

	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			var z Scorer
			for i, q := range queries {
				lr := Local(q, target, DefaultScoring)
				if sr := z.Score(q, target, DefaultScoring); !reflect.DeepEqual(sr, scoreOnly(lr)) {
					done <- fmt.Errorf("worker %d query %d: Scorer %+v != Local's %+v", w, i, sr, scoreOnly(lr))
					return
				}
				er := ExtendSeed(q, target, 0, 0, 21, DefaultScoring, 16)
				if er.Score > lr.Score {
					done <- fmt.Errorf("worker %d query %d: window score %d exceeds full %d", w, i, er.Score, lr.Score)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
