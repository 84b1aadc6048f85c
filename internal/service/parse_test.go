package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/client"
)

// injectionBody is a JSON align request whose one read carries a forged SAM
// record in its name and a quality string shorter than its sequence. Before
// ParseReads validated the JSON path, POST /v1/align with Accept: text/x-sam
// answered it 200 with the forged line in the body.
func injectionBody(t testing.TB, seq string) []byte {
	t.Helper()
	body, err := json.Marshal(client.AlignRequest{Reads: []client.Read{{
		Name: "r1\tX\nEVIL\t4\t*\t0\t0\t*\t*\t0\t0\tA\t*",
		Seq:  seq,
		Qual: "IIIIIII",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestParseReadsRejectsSAMInjection(t *testing.T) {
	_, reads := fixture(t)
	_, ts := newTestServer(t, nil)
	seq := reads[0].Seq.String()
	post := func(ct string, body []byte) (int, string) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/align", bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		req.Header.Set("Accept", "text/x-sam")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	qual := strings.Repeat("I", len(seq))
	for _, tc := range []struct {
		what, ct, body string
	}{
		{"forged record in a JSON name", "application/json", string(injectionBody(t, seq))},
		{"short JSON qual", "application/json", `{"reads":[{"name":"ok","seq":"` + seq + `","qual":"III"}]}`},
		{"tab in JSON qual", "application/json", `{"reads":[{"name":"ok","seq":"` + seq + `","qual":"` + qual[1:] + `\t"}]}`},
		{"empty JSON name", "application/json", `{"reads":[{"name":"","seq":"` + seq + `"}]}`},
		{"255-byte JSON name", "application/json", `{"reads":[{"name":"` + strings.Repeat("n", 255) + `","seq":"` + seq + `"}]}`},
		{"header-like JSON name", "application/json", `{"reads":[{"name":"@CO","seq":"` + seq + `"}]}`},
		{"tab in FASTQ qual", "text/x-fastq", "@ok\n" + seq + "\n+\n" + qual[1:] + "\t\n"},
		{"control byte in FASTQ name", "text/x-fastq", "@o\x01k\n" + seq + "\n+\n" + qual + "\n"},
	} {
		code, body := post(tc.ct, []byte(tc.body))
		if code != http.StatusBadRequest || !strings.Contains(body, "read 0") {
			t.Errorf("%s: status %d body %q, want 400 naming read 0", tc.what, code, body)
		}
		if strings.Contains(body, "EVIL\t") {
			t.Errorf("%s: the error echoes the forged record: %q", tc.what, body)
		}
	}
	// The same read with a legal name and a full-length qual is served.
	code, body := post("application/json", []byte(`{"reads":[{"name":"r1","seq":"`+seq+`","qual":"`+qual+`"}]}`))
	if code != http.StatusOK || !strings.Contains(body, "\nr1\t") || !strings.Contains(body, "\t"+qual) {
		t.Errorf("legal read: status %d body %q", code, body)
	}
}

// TestParseReadsCapsReadLength: a read over maxReadBases is refused with a
// 400 naming it, in either body format, before an engine call could size
// extension matrices by it; a read at the cap is served.
func TestParseReadsCapsReadLength(t *testing.T) {
	_, reads := fixture(t)
	_, ts := newTestServer(t, nil)
	post := func(ct, body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/align", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	ok := reads[0].Seq.String()
	atCap := strings.Repeat("ACGT", maxReadBases/4)
	over := atCap + "A"
	for _, tc := range []struct{ what, ct, body string }{
		{"JSON", "application/json", `{"reads":[{"name":"ok","seq":"` + ok + `"},{"name":"long","seq":"` + over + `"}]}`},
		{"FASTQ", "text/x-fastq", "@ok\n" + ok + "\n+\n" + strings.Repeat("I", len(ok)) + "\n@long\n" + over + "\n+\n" + strings.Repeat("I", len(over)) + "\n"},
	} {
		code, body := post(tc.ct, tc.body)
		if code != http.StatusBadRequest || !strings.Contains(body, "read 1 (long)") || !strings.Contains(body, "read limit") {
			t.Errorf("%s: %d-base read: status %d body %q, want 400 naming read 1", tc.what, len(over), code, body)
		}
	}
	if code, body := post("application/json", `{"reads":[{"name":"cap","seq":"`+atCap+`"}]}`); code != http.StatusOK {
		t.Errorf("%d-base read: status %d body %q, want 200", len(atCap), code, body)
	}
}

// FuzzParseReads holds the request surface to the SAM face: whatever
// ParseReads accepts — JSON, FASTQ or gzip — renders to exactly one
// well-formed line per expected record, named as the request named it, and
// no read over the length cap.
func FuzzParseReads(f *testing.F) {
	al, reads := fixture(f)
	seq := reads[0].Seq.String()
	fastq := "@r1 desc\n" + seq + "\n+\n" + strings.Repeat("I", len(seq)) + "\n@r2\nACGTN\n+\n!!~~I\n"
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(fastq))
	zw.Close()
	f.Add(true, injectionBody(f, seq))
	f.Add(true, []byte(`{"reads":[{"name":"a","seq":"`+seq+`","qual":"`+strings.Repeat("#", len(seq))+`"},{"name":"b","seq":"ACGT"}]}`))
	f.Add(true, []byte(`{"reads":[{"name":"@HD","seq":"ACGT","qual":"II\nI"}]}`))
	f.Add(false, []byte(fastq))
	f.Add(false, gz.Bytes())
	f.Add(false, []byte("@a\tb\nACGT\n+\nII\tI\n"))

	header := 2 + len(al.Targets()) // @HD, one @SQ per target, @PG
	f.Fuzz(func(t *testing.T, isJSON bool, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/align", bytes.NewReader(body))
		if isJSON {
			req.Header.Set("Content-Type", "application/json")
		}
		reads, err := ParseReads(httptest.NewRecorder(), req, 1<<20)
		if err != nil || len(reads) > 32 {
			return
		}
		var wire client.AlignRequest
		if isJSON {
			// Decoded as the server decodes: the first JSON value of the body.
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wire); err != nil || len(wire.Reads) != len(reads) {
				t.Fatalf("ParseReads accepted %d reads from a JSON body that decodes to %d (%v)", len(reads), len(wire.Reads), err)
			}
		}
		small := true
		for i, r := range reads {
			if n := r.Seq.Len(); n > maxReadBases {
				t.Fatalf("ParseReads accepted read %d of %d bases, over the %d-base cap", i, n, maxReadBases)
			}
			small = small && r.Seq.Len() <= 400
		}
		if !small {
			return // keep the engine call small
		}
		res, err := al.Align(context.Background(), reads, queryOpts())
		if err != nil {
			t.Fatal(err)
		}
		var sam bytes.Buffer
		if err := meraligner.WriteSAM(&sam, res, al.Targets(), reads); err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(reads)) // records per read
		for _, a := range res.Alignments {
			want[a.Query]++
		}
		lines := strings.Split(strings.TrimSuffix(sam.String(), "\n"), "\n")[header:]
		for i, r := range reads {
			for n := max(want[i], 1); n > 0; n-- {
				if len(lines) == 0 {
					t.Fatalf("SAM body ends before read %d's records", i)
				}
				fields := strings.Split(lines[0], "\t")
				lines = lines[1:]
				if len(fields) < 11 {
					t.Fatalf("read %d: record has %d fields: %q", i, len(fields), fields)
				}
				if fields[0] != r.Name || (isJSON && fields[0] != wire.Reads[i].Name) {
					t.Fatalf("read %d: QNAME %q, parsed name %q", i, fields[0], r.Name)
				}
				if q := fields[10]; q != "*" && len(q) != len(fields[9]) {
					t.Fatalf("read %d: QUAL %q does not match SEQ %q", i, q, fields[9])
				}
			}
		}
		if len(lines) != 0 {
			t.Fatalf("%d lines beyond the expected records, first %q", len(lines), lines[0])
		}
	})
}
