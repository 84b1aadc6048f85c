//go:build e2e

// Package e2e drives the shipped binaries end to end, black-box: it builds
// ./cmd/... once, generates workloads with the built mergen, spawns real
// processes on kernel-assigned ports, talks to them over HTTP and compares
// output against output. It is the repo's behavioural oracle for anything
// between flag parsing and exit status — what no in-process suite crosses.
//
//	go test -tags e2e ./internal/e2e                      # all six scenarios
//	go test -tags e2e ./internal/e2e -run '^TestCluster$' # one of them
//
// TestFlagSurface pins every binary's flag names beside them.
//
// It imports only the standard library, the public client package and
// internal/faultinject (TestE2EDriverIsBlackBox holds that line): a check
// here can pass only through a binary's public surface.
//
// Workloads (mergen -depth 2 -unpaired, every index at k=19):
//
//	alpha, beta  ecoli 120 kbp, seeds 1 and 2, 2,400 reads   Snapshot, Service, Catalog
//	ecoli        ecoli 600 kbp, 13 contigs, 12,000 reads     Cluster, Chaos, DHT
//	wheat        wheat 600 kbp, 25 % repeats, 8,000 reads    Snapshot, Cluster, Chaos, DHT
package e2e

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/lbl-repro/meraligner/client"
)

const k = "19"

// workload is one mergen output: a reference, its reads on disk and in memory.
type workload struct {
	name    string
	contigs string // FASTA path
	reads   string // FASTQ path
	fastq   []byte // contents of reads
}

var (
	binDir                    string // the binaries built from ./cmd/...
	alpha, beta, ecoli, wheat workload
)

// httpc carries every request the driver makes, so one call drops its idle
// connections before the goroutine check and no hung server hangs the suite.
var httpc = &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{}}

func TestMain(m *testing.M) { os.Exit(buildAndRun(m)) }

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "meraligner-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	binDir = filepath.Join(dir, "bin")
	build := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/...")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build ./cmd/...: %v\n%s", err, out)
		return 1
	}
	for _, g := range []struct {
		w                     *workload
		profile, genome, seed string
	}{
		{&alpha, "ecoli", "120000", "1"},
		{&beta, "ecoli", "120000", "2"},
		{&ecoli, "ecoli", "600000", "1"},
		{&wheat, "wheat", "600000", "1"},
	} {
		prefix := filepath.Join(dir, g.profile+g.genome+"-"+g.seed)
		gen := exec.Command(filepath.Join(binDir, "mergen"), "-profile", g.profile, "-genome", g.genome,
			"-seed", g.seed, "-depth", "2", "-unpaired", "-out-prefix", prefix)
		if out, err := gen.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "mergen %s: %v\n%s", prefix, err, out)
			return 1
		}
		*g.w = workload{name: g.profile, contigs: prefix + ".contigs.fa", reads: prefix + ".reads.fq"}
		if g.w.fastq, err = os.ReadFile(g.w.reads); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return m.Run()
}

// firstReads is the first n records of a FASTQ document (head -n 4n).
func firstReads(fastq []byte, n int) []byte {
	end := 0
	for range 4 * n {
		i := bytes.IndexByte(fastq[end:], '\n')
		if i < 0 {
			return fastq
		}
		end += i + 1
	}
	return fastq[:end]
}

// scenario arms the driver's own leak check: once every child's cleanup has
// run, the goroutine count must be back where the test found it.
func scenario(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		httpc.CloseIdleConnections()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				stacks := make([]byte, 1<<16)
				t.Errorf("driver leaked goroutines: %d at start, %d at cleanup\n%s",
					base, runtime.NumGoroutine(), stacks[:runtime.Stack(stacks, true)])
				return
			}
		}
	})
}

// proc is one spawned server binary.
type proc struct {
	t    *testing.T
	tag  string // what the test calls it, for messages and the log dump
	bin  string // binary name: the prefix of its lifecycle log lines
	cmd  *exec.Cmd
	log  lockedBuffer
	done chan struct{} // closed once the process has been reaped
	URL  string        // base URL of the -addr listener
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// start spawns bin with args on a kernel-assigned port and returns once its
// "listening on" line is out (the port binds before the index loads: follow
// with ready). The test must end the process itself — Term or Kill; one
// still alive at cleanup fails the test, and a failed test dumps every log.
func start(t *testing.T, tag, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, tag: tag, bin: bin, done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(binDir, bin), append(args, "-addr", "127.0.0.1:0")...)
	p.cmd.Stdout, p.cmd.Stderr = &p.log, &p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	go func() { _ = p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			_ = p.cmd.Process.Kill()
			<-p.done
			if !t.Failed() {
				t.Errorf("%s: still running at cleanup; every child is ended by the test that started it", tag)
			}
		}
		if t.Failed() {
			t.Logf("---- %s: %s\n%s", tag, strings.Join(p.cmd.Args, " "), p.log.String())
		}
	})
	p.URL = "http://" + p.listenAddr("listening on ")
	return p
}

// listenAddr waits for the lifecycle line "<bin>: <what><addr>" — what is
// "listening on " for -addr, "debug listening on " for -debug-addr — and
// returns addr. The prefix is matched exactly and from the start of a
// complete line, so neither line can be taken for the other.
func (p *proc) listenAddr(what string) string {
	p.t.Helper()
	prefix := p.bin + ": " + what
	for deadline := time.Now().Add(10 * time.Second); ; {
		for line := range strings.Lines(p.log.String()) {
			if addr, ok := strings.CutPrefix(line, prefix); ok && strings.HasSuffix(addr, "\n") {
				return strings.TrimSuffix(addr, "\n")
			}
		}
		select {
		case <-p.done:
			p.t.Fatalf("%s exited before logging %q", p.tag, prefix)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("%s never logged %q", p.tag, prefix)
		}
	}
}

// end delivers sig and returns the exit status (-1 when a signal killed it).
func (p *proc) end(sig syscall.Signal) int {
	p.t.Helper()
	_ = p.cmd.Process.Signal(sig)
	select {
	case <-p.done:
	case <-time.After(45 * time.Second): // past the default -drain-timeout
		p.t.Fatalf("%s: still running 45s after signal %v", p.tag, sig)
	}
	return p.cmd.ProcessState.ExitCode()
}

// Term is the graceful end every scenario asserts: SIGTERM, exit status 0,
// "drained cleanly" in the log.
func (p *proc) Term() {
	p.t.Helper()
	if code := p.end(syscall.SIGTERM); code != 0 {
		p.t.Errorf("%s: exit status %d after SIGTERM, want 0", p.tag, code)
	}
	p.logged("drained cleanly")
}

// Kill is kill -9.
func (p *proc) Kill() { p.end(syscall.SIGKILL) }

func (p *proc) logged(s string) {
	p.t.Helper()
	if !strings.Contains(p.log.String(), s) {
		p.t.Errorf("%s: log has no %q", p.tag, s)
	}
}

// ready polls /readyz of each base URL until it answers 200.
func ready(t *testing.T, urls ...string) {
	t.Helper()
	for _, u := range urls {
		c := client.New(u, client.WithHTTPClient(httpc))
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			err := c.Ready(context.Background())
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never became ready: %v", u, err)
			}
		}
	}
}

// run executes a one-shot binary to completion and returns its combined
// output and exit error; mustRun requires success.
func run(bin string, args ...string) (string, error) {
	out, err := exec.Command(filepath.Join(binDir, bin), args...).CombinedOutput()
	return string(out), err
}

func mustRun(t *testing.T, bin string, args ...string) {
	t.Helper()
	if out, err := run(bin, args...); err != nil {
		t.Fatalf("%s %s: %v\n%s", bin, strings.Join(args, " "), err, out)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reply is one HTTP exchange's outcome.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// do is one HTTP exchange; header is alternating names and values. It is
// safe off the test goroutine: nothing here fails the test.
func do(method, url string, body []byte, header ...string) (reply, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	for i := 0; i < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, resp.Header, got}, err
}

// post sends a FASTQ batch to url (curl -X POST --data-binary @batch -H
// 'Content-Type: text/x-fastq' plus header).
func post(url string, batch []byte, header ...string) (reply, error) {
	return do(http.MethodPost, url, batch, append([]string{"Content-Type", "text/x-fastq"}, header...)...)
}

// align posts batch to an align endpoint asking for accept and returns the
// body of the 200 it requires (curl -sf).
func align(t *testing.T, url, accept string, batch []byte) []byte {
	t.Helper()
	r, err := post(url, batch, "Accept", accept)
	if err != nil || r.status != http.StatusOK {
		t.Fatalf("POST %s (%s): status %d, err %v\n%s", url, accept, r.status, err, r.body)
	}
	return r.body
}

const (
	v1Align = "/v1/align"
	sam     = "text/x-sam"
	jsonT   = "application/json"
)

// get fetches url and returns the body of the 200 it requires.
func get(t *testing.T, url string) []byte {
	t.Helper()
	r, err := do(http.MethodGet, url, nil)
	if err != nil || r.status != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v\n%s", url, r.status, err, r.body)
	}
	return r.body
}

// echoesRequestID posts batch under a caller-supplied request ID and
// requires the 200 to echo it.
func echoesRequestID(t *testing.T, url string, batch []byte, id string) {
	t.Helper()
	r, err := post(url, batch, "X-Request-Id", id)
	if err != nil || r.status != http.StatusOK || r.header.Get("X-Request-Id") != id {
		t.Errorf("POST %s with X-Request-Id: status %d, echoed %q, err %v", url, r.status, r.header.Get("X-Request-Id"), err)
	}
}

// same is cmp: byte identity, reported at the first differing line.
func same(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s differ at line %d:\n got %.300s\nwant %.300s", what, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s differ in length: %d lines, want %d", what, len(g), len(w))
}

// has is grep -qF: doc contains the literal text.
func has(t *testing.T, what string, doc []byte, text string) {
	t.Helper()
	if !bytes.Contains(doc, []byte(text)) {
		t.Errorf("%s has no %q:\n%.2000s", what, text, doc)
	}
}

// sample is the integer value of the first /metrics sample line whose
// series (name and labels) matches the regexp series.
func sample(t *testing.T, what string, doc []byte, series string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + series + ` (\d+)$`).FindSubmatch(doc)
	if m == nil {
		t.Fatalf("%s has no integer sample of %q:\n%.2000s", what, series, doc)
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// matches is grep -q: pattern is a regexp in multi-line mode, so ^ and $
// anchor lines as grep's do.
func matches(t *testing.T, what string, doc []byte, pattern string) {
	t.Helper()
	if !regexp.MustCompile("(?m)" + pattern).Match(doc) {
		t.Errorf("%s has no match for %q:\n%.2000s", what, pattern, doc)
	}
}
