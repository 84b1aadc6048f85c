package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"

	"github.com/lbl-repro/meraligner/client"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dhtnet"
	"github.com/lbl-repro/meraligner/internal/telemetry"
)

// SeedShardServer serves one seed-shard snapshot's share of the distributed
// seed table (merserved -seed-shard): batched binary lookups against the
// mmap'd partition, nothing else. It is deliberately a fraction of the
// align Server — a lookup node resolves seeds, it never parses reads,
// extends, or renders SAM — but it shares the fleet's request lifecycle
// (Lifecycle: request-id tracing, the draining gate, the probes), deadline
// propagation, and a Prometheus endpoint (merserved_seedshard_*).
//
//	POST /v1/lookup     batched binary seed lookup (dhtnet frames)
//	GET  /v1/shardinfo  JSON identity (id, count, k, shards, fingerprint)
//	GET  /healthz       200 while serving, 503 while draining
//	GET  /readyz        readiness (same states; warming is fronted upstream)
//	GET  /metrics       Prometheus text exposition
type SeedShardServer struct {
	*Lifecycle

	shard *core.SeedShard
	mux   *http.ServeMux

	lookups  atomic.Int64 // lookup calls served to completion
	seeds    atomic.Int64 // seeds resolved across those calls
	misses   atomic.Int64 // seeds that resolved absent
	rejected atomic.Int64 // 400s: malformed frames, k mismatches, misrouted seeds
}

// SeedShardConfig assembles a SeedShardServer.
type SeedShardConfig struct {
	// Shard is the mapped seed-shard snapshot to serve. Required; the
	// server does not own it — the caller closes it after Drain.
	Shard *core.SeedShard

	// Logger receives request logs. Nil discards.
	Logger *slog.Logger
}

// maxLookupBody bounds a lookup request body: exactly one full frame of
// dhtnet.MaxLookupBatch seeds.
const maxLookupBody = 16 + dhtnet.MaxLookupBatch*16

// NewSeedShard builds the server for one seed shard.
func NewSeedShard(cfg SeedShardConfig) (*SeedShardServer, error) {
	if cfg.Shard == nil {
		return nil, fmt.Errorf("service: seed-shard server needs a shard")
	}
	s := &SeedShardServer{Lifecycle: NewLifecycle(cfg.Logger, 0, 0), shard: cfg.Shard}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lookup", s.Traced(s.handleLookup))
	mux.HandleFunc("GET /v1/shardinfo", s.handleShardInfo)
	mux.HandleFunc("GET /healthz", s.Healthz)
	mux.HandleFunc("GET /readyz", s.Healthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *SeedShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admission (new lookups answer 503) and waits for in-flight
// lookups to finish, or for ctx to expire. Once it returns nil no lookup is
// reading the shard, so the caller may close (unmap) it.
func (s *SeedShardServer) Drain(ctx context.Context) error {
	s.StartDrain()
	return s.WaitIdle(ctx)
}

func (s *SeedShardServer) error(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusBadRequest {
		s.rejected.Add(1)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	io.WriteString(w, msg+"\n")
}

// handleLookup answers one batched lookup frame. Malformed frames, seed
// length mismatches, and misrouted seeds (a seed this shard does not own)
// are 400s — a misrouted seed answered "absent" would silently drop
// alignments, so the server refuses instead.
func (s *SeedShardServer) handleLookup(w http.ResponseWriter, r *http.Request) {
	if !s.Enter() {
		s.error(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.Exit()
	if budget, ok := client.DeadlineFromHeader(r.Header); ok {
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		r = r.WithContext(ctx)
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxLookupBody))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.error(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("lookup body exceeds %d bytes", maxLookupBody))
		return
	case err != nil:
		s.error(w, http.StatusBadRequest, "reading lookup body: "+err.Error())
		return
	}
	k, seeds, err := dhtnet.DecodeLookupRequest(body)
	if err != nil {
		s.error(w, http.StatusBadRequest, err.Error())
		return
	}
	info := s.shard.Info()
	if k != info.K {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("lookup with k=%d against a k=%d shard", k, info.K))
		return
	}
	answers := make([]dhtnet.LookupAnswer, len(seeds))
	misses := 0
	for i, seed := range seeds {
		if r.Context().Err() != nil {
			s.error(w, http.StatusServiceUnavailable, "deadline exhausted")
			return
		}
		if !s.shard.Owns(seed) {
			s.error(w, http.StatusBadRequest, fmt.Sprintf(
				"seed %d is not owned by shard %d/%d: misrouted lookup (client and fleet disagree on the partition)", i, info.ID, info.Count))
			return
		}
		res, ok := s.shard.Lookup(seed)
		answers[i] = dhtnet.LookupAnswer{Res: res, OK: ok}
		if !ok {
			misses++
		}
	}
	s.lookups.Add(1)
	s.seeds.Add(int64(len(seeds)))
	s.misses.Add(int64(misses))
	resp := dhtnet.AppendLookupResponse(make([]byte, 0, 12+len(answers)*8), answers)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(resp)
}

func (s *SeedShardServer) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, r, http.StatusOK, s.shard.Info())
}

func (s *SeedShardServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	shard := strconv.Itoa(s.shard.Info().ID)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := telemetry.NewExposition(w)
	m.Counter("merserved_seedshard_lookup_requests_total", "lookup calls served to completion").Int(s.lookups.Load(), "shard", shard)
	m.Counter("merserved_seedshard_seeds_total", "seeds resolved across lookup calls").Int(s.seeds.Load(), "shard", shard)
	m.Counter("merserved_seedshard_misses_total", "seeds that resolved absent").Int(s.misses.Load(), "shard", shard)
	m.Counter("merserved_seedshard_rejected_total", "lookups refused with 400 (malformed frame, k mismatch, misrouted seed)").Int(s.rejected.Load(), "shard", shard)
	m.Gauge("merserved_seedshard_resident_bytes", "mapped seed-shard footprint").Int(s.shard.ResidentBytes(), "shard", shard)
	m.Gauge("merserved_seedshard_draining", "1 while draining (healthz returns 503)").Bool(s.Draining(), "shard", shard)
}
