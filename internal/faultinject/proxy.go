// Package faultinject is an in-process TCP chaos proxy for deterministic
// fault-injection testing of the serving tiers. A Proxy listens on a
// loopback port and forwards every accepted connection to one upstream
// target, optionally injecting faults on the way:
//
//   - added latency before the first upstream byte (a slow network or an
//     overloaded accept queue)
//   - connection resets at a configured probability (a crashing replica, a
//     flaky middlebox)
//   - blackholes: the connection is accepted and then never answered (a
//     partitioned host — the worst failure mode, because only timeouts
//     detect it)
//   - truncated responses: the upstream's reply is cut after N bytes (a
//     proxy dying mid-body)
//   - slow-loris responses: the reply trickles out in small delayed chunks
//
// Fault decisions come from a seeded math/rand/v2 source guarded by the
// proxy's mutex, so a given seed yields the same fault schedule on every
// run — chaos tests are reproducible, not flaky. All knobs are mutable at
// runtime (SetLatency, SetErrorRate, ...), so one test can walk a replica
// through healthy → failing → healed without restarting anything, and
// KillActive resets every live connection at once to simulate a process
// kill.
package faultinject

import (
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is one chaos proxy instance: a loopback listener forwarding to a
// fixed upstream target with injectable faults. Create with New, stop with
// Close. Safe for concurrent use.
type Proxy struct {
	ln     net.Listener
	target string

	mu        sync.Mutex
	rng       *rand.Rand
	latency   time.Duration // delay before dialing upstream
	errorRate float64       // probability of resetting an accepted connection
	blackhole bool          // accept and never answer
	truncate  int64         // cut the response after this many bytes (0 = off)
	loris     time.Duration // per-chunk delay while copying the response
	conns     map[net.Conn]struct{}

	accepted    atomic.Int64
	resets      atomic.Int64
	blackholed  atomic.Int64
	truncations atomic.Int64

	closed atomic.Bool
	wg     sync.WaitGroup
}

// Stats is a snapshot of a Proxy's fault counters.
type Stats struct {
	Accepted    int64 // connections accepted
	Resets      int64 // connections reset by injected error or KillActive
	Blackholed  int64 // connections swallowed by the blackhole
	Truncations int64 // responses cut short
}

// New starts a Proxy on a fresh loopback port forwarding to target
// (host:port). seed fixes the fault schedule: the same seed and the same
// sequence of connections yield the same injected faults.
func New(target string, seed uint64) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		ln:     ln,
		target: target,
		rng:    rand.New(rand.NewPCG(seed, seed)),
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address (host:port) — what a router
// should be pointed at in place of the real replica address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's address as an http:// base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetLatency injects d of delay before each new connection reaches the
// upstream. Zero restores pass-through.
func (p *Proxy) SetLatency(d time.Duration) {
	p.mu.Lock()
	p.latency = d
	p.mu.Unlock()
}

// SetErrorRate makes each new connection be reset (RST, not FIN) with
// probability rate in [0, 1]. Zero restores pass-through.
func (p *Proxy) SetErrorRate(rate float64) {
	p.mu.Lock()
	p.errorRate = rate
	p.mu.Unlock()
}

// SetBlackhole, when on, accepts connections and never answers them:
// no upstream dial, no bytes, no close until the client gives up or the
// proxy shuts down.
func (p *Proxy) SetBlackhole(on bool) {
	p.mu.Lock()
	p.blackhole = on
	p.mu.Unlock()
}

// SetTruncate cuts each response after n upstream bytes, then resets the
// connection — a mid-body failure the client sees as an unexpected EOF.
// Zero restores whole responses.
func (p *Proxy) SetTruncate(n int64) {
	p.mu.Lock()
	p.truncate = n
	p.mu.Unlock()
}

// SetSlowLoris trickles each response out in 64-byte chunks with d between
// chunks. Zero restores full-speed copies.
func (p *Proxy) SetSlowLoris(d time.Duration) {
	p.mu.Lock()
	p.loris = d
	p.mu.Unlock()
}

// KillActive resets every live proxied connection at once — the network
// face of kill -9 on the upstream. New connections are still accepted
// (and still forwarded, unless other faults say otherwise).
func (p *Proxy) KillActive() {
	p.mu.Lock()
	for c := range p.conns {
		abort(c)
		p.resets.Add(1)
	}
	clear(p.conns)
	p.mu.Unlock()
}

// Stats returns the proxy's live fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Accepted:    p.accepted.Load(),
		Resets:      p.resets.Load(),
		Blackholed:  p.blackholed.Load(),
		Truncations: p.truncations.Load(),
	}
}

// Close stops the listener and resets every live connection.
func (p *Proxy) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.ln.Close()
	p.KillActive()
	p.wg.Wait()
}

// decide samples the fault plan of one new connection under the mutex, so
// concurrent connections draw from the seeded schedule in accept order.
type plan struct {
	latency   time.Duration
	reset     bool
	blackhole bool
	truncate  int64
	loris     time.Duration
}

func (p *Proxy) decide() plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	return plan{
		latency:   p.latency,
		reset:     p.errorRate > 0 && p.rng.Float64() < p.errorRate,
		blackhole: p.blackhole,
		truncate:  p.truncate,
		loris:     p.loris,
	}
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.accepted.Add(1)
		p.track(conn)
		p.wg.Add(1)
		go p.serve(conn)
	}
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		abort(c)
		return
	}
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// serve forwards one connection under its fault plan.
func (p *Proxy) serve(down net.Conn) {
	defer p.wg.Done()
	pl := p.decide()
	if pl.blackhole {
		// Swallow the connection: read and discard so the client can send
		// its request, answer nothing, hold until the client hangs up or
		// KillActive/Close resets us.
		p.blackholed.Add(1)
		_, _ = io.Copy(io.Discard, down)
		p.untrack(down)
		down.Close()
		return
	}
	if pl.reset {
		p.resets.Add(1)
		p.untrack(down)
		abort(down)
		return
	}
	if pl.latency > 0 {
		time.Sleep(pl.latency)
	}
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		p.resets.Add(1)
		p.untrack(down)
		abort(down)
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // request path: client -> upstream, always at full speed
		defer wg.Done()
		_, _ = io.Copy(up, down)
		half(up)
	}()
	// Response path: upstream -> client, where truncation and slow-loris
	// apply.
	p.copyResponse(down, up, pl)
	up.Close()
	wg.Wait()
	p.untrack(down)
	down.Close()
}

// copyResponse streams upstream bytes to the client under the plan's
// truncation and slow-loris settings.
func (p *Proxy) copyResponse(down, up net.Conn, pl plan) {
	if pl.truncate <= 0 && pl.loris <= 0 {
		_, _ = io.Copy(down, up)
		half(down)
		return
	}
	var written int64
	buf := make([]byte, 64)
	for {
		if pl.truncate > 0 && written >= pl.truncate {
			p.truncations.Add(1)
			abort(down)
			return
		}
		n, err := up.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if pl.truncate > 0 && written+int64(n) > pl.truncate {
				chunk = chunk[:pl.truncate-written]
			}
			if _, werr := down.Write(chunk); werr != nil {
				return
			}
			written += int64(len(chunk))
			if pl.loris > 0 {
				time.Sleep(pl.loris)
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				abort(down)
				return
			}
			half(down)
			return
		}
	}
}

// abort resets a connection (RST instead of FIN) so the peer sees a hard
// failure, the way a killed process's kernel answers.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	c.Close()
}

// half closes the write side of a TCP connection, letting the peer finish
// reading a complete response before the full close.
func half(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
}
