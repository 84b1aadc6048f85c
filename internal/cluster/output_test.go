package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// randomHits draws one read's hits from value sets small enough that every
// comparator key ties somewhere: both strands, clips, indels, cigar-less
// hits. As from the engine, a read gets either one exact hit or only
// non-exact ones, and NM follows from the keys (two hits that tie on every
// key are the same alignment).
func randomHits(rng *rand.Rand, readLen int) []seqio.Hit {
	n := rng.Intn(8)
	exact := n > 0 && rng.Intn(4) == 0
	if exact {
		n = 1
	}
	hits := make([]seqio.Hit, n)
	for i := range hits {
		h := seqio.Hit{
			Target: []string{"ctgA", "ctgB", "ctg10"}[rng.Intn(3)],
			Strand: []string{"+", "-"}[rng.Intn(2)],
			Score:  40 + rng.Intn(3),
			QStart: rng.Intn(3), QEnd: readLen - rng.Intn(3),
			TStart: 100 * rng.Intn(3),
			Cigar:  []string{"", "12M", "5M1I6M2D3M", "5M2I5M2D3M"}[rng.Intn(4)],
		}
		h.TEnd = h.TStart + h.QEnd - h.QStart + rng.Intn(2)
		h.Exact = exact
		h.NM = (h.Score+h.TStart/100+h.QStart+h.TEnd+len(h.Cigar))%5 - 1
		hits[i] = h
	}
	return hits
}

// roundTrip sends v through encoding/json, as the wire does.
func roundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMergeAndRenderProperty: what a node renders from its own hits, a
// router renders from the wire — after a JSON round trip as client.Alignment
// (the same record), and for any partition of the hits across 1-6 shard
// responses in any arrival order.
func TestMergeAndRenderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var head bytes.Buffer
	if err := writeSAM(&head, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	render := func(reads []meraligner.Seq, results []client.ReadResult) []byte {
		var buf bytes.Buffer
		if err := writeSAM(&buf, nil, reads, results, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[head.Len():]
	}
	for trial := 0; trial < 400; trial++ {
		read := meraligner.Seq{Name: "r", Seq: dna.Random(rng, 20)}
		if trial%3 != 0 {
			read.Qual = []byte("ABCDEFGHIJKLMNOPQRST")
		}
		reads := []meraligner.Seq{read}
		hits := randomHits(rng, read.Seq.Len())

		// The node's own rendering: hits in canonical order, straight in.
		slices.SortStableFunc(hits, seqio.CompareHits)
		want := seqio.AppendSAMRead(nil, read.Name, read.Seq, read.Qual, hits)

		own := client.ReadResult{Name: "r", Status: client.StatusUnmapped}
		for _, h := range hits {
			own.Alignments = append(own.Alignments, h)
			own.Status = client.StatusOK
		}
		if got := render(reads, []client.ReadResult{roundTrip(t, own)}); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: SAM from the wire differs from SAM from the hits:\n%s\nwant\n%s", trial, got, want)
		}

		// Scatter the hits over 1-6 shards (some left empty, each answering
		// in its own order), gather in a random arrival order.
		per := make([]*client.AlignResponse, 1+rng.Intn(6))
		for i := range per {
			per[i] = &client.AlignResponse{Reads: []client.ReadResult{{Name: "r", Status: client.StatusUnmapped}}}
		}
		for _, i := range rng.Perm(len(hits)) {
			rr := &per[rng.Intn(len(per))].Reads[0]
			rr.Alignments = append(rr.Alignments, hits[i])
			rr.Status = client.StatusOK
		}
		rng.Shuffle(len(per), func(i, j int) { per[i], per[j] = per[j], per[i] })
		for i := range per {
			per[i] = roundTrip(t, per[i])
		}
		merged := mergeResults(reads, per)
		if got := render(reads, merged); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: %d hits over %d shards merge to different SAM:\n%s\nwant\n%s", trial, len(hits), len(per), got, want)
		}
		if want := own.Status; merged[0].Status != want {
			t.Fatalf("trial %d: merged status %q, want %q", trial, merged[0].Status, want)
		}
		if a, b := mustJSON(t, merged[0]), mustJSON(t, own); !bytes.Equal(a, b) {
			t.Fatalf("trial %d: merged wire result differs from the node's own:\n%s\nwant\n%s", trial, a, b)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRouterRejectsSAMInjection: the router shares the node's ParseReads, so
// a read name carrying a forged record, or a qual shorter than its read, is
// refused with the node's own 400 before any shard sees it.
func TestRouterRejectsSAMInjection(t *testing.T) {
	fleet := newFleet(t)
	single := newSingle(t)
	rt, rts := newRouter(t, fleet, nil)
	waitReady(t, rt)
	body := mustJSON(t, client.AlignRequest{Reads: []client.Read{{
		Name: "r1\tX\nEVIL\t4\t*\t0\t0\t*\t*\t0\t0\tA\t*",
		Seq:  fixReads[0].Seq.String(),
		Qual: "IIIIIII",
	}}})
	answers := make([]string, 0, 2)
	for _, url := range []string{rts.URL, single.URL} {
		req, err := http.NewRequest(http.MethodPost, url+"/v1/align", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "text/x-sam")
		req.Header.Set("X-Request-Id", "00112233445566778899aabbccddeeff")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "read 0") {
			t.Fatalf("%s: status %d body %q, want 400 naming read 0", url, resp.StatusCode, raw)
		}
		answers = append(answers, string(raw))
	}
	if answers[0] != answers[1] {
		t.Fatalf("router and node refuse differently:\n%s\n%s", answers[0], answers[1])
	}
	if st := rt.Stats(); st.Batches != 0 {
		t.Fatalf("the refused request reached the shards: %+v", st)
	}
}
