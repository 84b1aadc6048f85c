package service

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/lbl-repro/meraligner/internal/buildinfo"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// The process skeleton cmd/merserved and cmd/merrouted share: one flag
// block, logger and profile setup, bind-before-load behind a warming
// handler, the -debug-addr listener, the -v access log, and the SIGTERM →
// Drain → Shutdown → exit-code sequence. A server binary is
//
//	pf := service.RegisterProcessFlags(flag.CommandLine, ":8490")
//	flag.Parse()
//	p := pf.Init("merserved")  // logger, -version, -cpuprofile
//	p.Listen()                 // "listening on"; every endpoint 503 warming
//	app := ...                 // build or map the index, assemble the tier
//	                           // with p.Front() as its front-door block
//	p.Serve(app)               // swap in, serve until signaled, drain

// readHeaderTimeout bounds how long either listener waits for a request's
// header: a client that connects and never finishes it must not hold a
// goroutine and a descriptor for the life of the process. Bodies and
// streamed responses stay untimed.
const readHeaderTimeout = 10 * time.Second

// ProcessFlags holds the values of the shared flag block.
type ProcessFlags struct {
	Addr         string
	DrainTimeout time.Duration
	DebugAddr    string
	Verbose      bool

	maxBatch    int
	maxWait     time.Duration
	queueReads  int
	minDeadline time.Duration
	slowMs      int
	build       *buildinfo.Flags
	logs        *telemetry.LogOptions
}

// RegisterProcessFlags adds the shared flag block (-addr -max-batch
// -max-wait -queue -drain-timeout -slow-request-ms -debug-addr
// -min-deadline -v, plus the buildinfo and logging flags) to fs. Call
// before fs is parsed.
func RegisterProcessFlags(fs *flag.FlagSet, defaultAddr string) *ProcessFlags {
	f := &ProcessFlags{}
	fs.StringVar(&f.Addr, "addr", defaultAddr, "listen address (use :0 for a random port)")
	fs.IntVar(&f.maxBatch, "max-batch", 256, "max reads per coalesced call")
	fs.DurationVar(&f.maxWait, "max-wait", 2*time.Millisecond, "max wait behind a busy call before an overlapping one dispatches (negative disables window-holding)")
	fs.IntVar(&f.queueReads, "queue", 0, "admission bound on queued reads (0 = 4*max-batch)")
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM")
	fs.IntVar(&f.slowMs, "slow-request-ms", 0, "log a full span trace at warn for requests at least this slow (0 disables)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "private debug listener with /debug/pprof/ and /debug/requests (bind to localhost only; empty disables)")
	fs.DurationVar(&f.minDeadline, "min-deadline", 0, "reject requests whose propagated X-Deadline-Ms budget is below this (0 disables)")
	fs.BoolVar(&f.Verbose, "v", false, "log per-request summaries")
	f.build = buildinfo.Register(fs)
	f.logs = telemetry.RegisterLogFlags(fs)
	return f
}

// App is what a Process serves: one of the HTTP tiers.
type App interface {
	http.Handler
	Drain(context.Context) error
	TraceRing() *telemetry.Ring
}

// Process is one server process between flag parsing and exit.
type Process struct {
	// Logger is the process's structured logger.
	Logger *slog.Logger

	flags       *ProcessFlags
	stopProfile func()
	swap        swapHandler
	hs          *http.Server
	served      chan error
	ctx         context.Context
	stopSignals context.CancelFunc
}

// Init acts on the parsed flags: it builds the logger (stray log.Printf
// lines are routed through it, so every line honors -log-format), handles
// -version and starts -cpuprofile. name is the program name.
func (f *ProcessFlags) Init(name string) *Process {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	logger, err := f.logs.Logger(name + ": ")
	if err != nil {
		log.Fatal(err)
	}
	telemetry.CaptureStdLog(logger)
	stop, err := f.build.Apply(name)
	if err != nil {
		log.Fatal(err)
	}
	return &Process{Logger: logger, flags: f, stopProfile: stop}
}

// Front is the front-door block the flags and the logger configure, for
// either tier's Config.
func (p *Process) Front() FrontConfig {
	f := p.flags
	return FrontConfig{
		MaxBatch:    f.maxBatch,
		MaxWait:     f.maxWait,
		QueueReads:  f.queueReads,
		MinDeadline: f.minDeadline,
		Logger:      p.Logger,
		SlowRequest: time.Duration(f.slowMs) * time.Millisecond,
	}
}

// Fatal logs err, flushes the CPU profile and exits 1.
func (p *Process) Fatal(err error) {
	p.Logger.Error(err.Error())
	p.stopProfile()
	os.Exit(1)
}

// Listen binds -addr and starts serving before any heavy work:
// orchestrators see the port immediately and poll /readyz; every other
// endpoint answers 503 warming (GET /healthz 200) until Serve swaps the
// real handler in.
func (p *Process) Listen() {
	ln, err := net.Listen("tcp", p.flags.Addr)
	if err != nil {
		p.Fatal(err)
	}
	p.Logger.Info("listening on " + ln.Addr().String())
	p.swap.set(warmingHandler())
	var handler http.Handler = &p.swap
	if p.flags.Verbose {
		handler = logRequests(handler)
	}
	p.hs = &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
	p.ctx, p.stopSignals = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	p.served = make(chan error, 1)
	go func() { p.served <- p.hs.Serve(ln) }()
}

// Serve installs app behind the listener (and its trace ring behind
// -debug-addr), blocks until SIGINT/SIGTERM, then drains gracefully: stop
// admission and flush (app.Drain), then close the listener so in-flight
// responses finish writing. It returns after "drained cleanly"; an
// incomplete drain exits 1.
func (p *Process) Serve(app App) {
	p.swap.set(app)
	if p.flags.DebugAddr != "" {
		dln, err := net.Listen("tcp", p.flags.DebugAddr)
		if err != nil {
			p.Fatal(fmt.Errorf("-debug-addr: %w", err))
		}
		p.Logger.Info("debug listening on " + dln.Addr().String())
		ds := &http.Server{Handler: telemetry.NewDebugMux(app.TraceRing()), ReadHeaderTimeout: readHeaderTimeout}
		go func() { _ = ds.Serve(dln) }()
	}
	select {
	case err := <-p.served:
		p.Fatal(err)
	case <-p.ctx.Done():
	}
	// Restore default signal handling: a second SIGINT/SIGTERM during the
	// drain kills the process instead of being swallowed.
	p.stopSignals()
	p.Logger.Info(fmt.Sprintf("signal received, draining (deadline %s)", p.flags.DrainTimeout))
	drainCtx, cancel := context.WithTimeout(context.Background(), p.flags.DrainTimeout)
	defer cancel()
	clean := true
	if err := app.Drain(drainCtx); err != nil {
		p.Logger.Warn(fmt.Sprintf("drain incomplete: %v (in-flight work aborted)", err))
		clean = false
	}
	if err := p.hs.Shutdown(drainCtx); err != nil {
		p.Logger.Warn(fmt.Sprintf("http shutdown: %v", err))
		clean = false
	}
	p.stopProfile()
	if !clean {
		os.Exit(1)
	}
	p.Logger.Info("drained cleanly")
}

// swapHandler lets the real handler be installed after the listener is
// already serving: requests before the swap hit the warming handler.
// (The indirection through a pointer-to-interface keeps the atomic happy
// across differently-typed handlers.)
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// warmingHandler answers for the window between bind and the tier being
// servable: liveness is already 200, readiness and everything else 503.
func warmingHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "warming\n")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "{\"error\":\"warming: index not ready\"}\n")
	})
	return mux
}

// logRequests is a minimal access log for -v.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %.1fms", r.Method, r.URL.Path, float64(time.Since(start).Microseconds())/1e3)
	})
}
