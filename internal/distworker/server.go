// Package distworker is the server half of the distributed scoring fleet:
// it registers encoded datasets under their content fingerprints and
// executes distwire work units against them using the same core.Local
// scorer the coordinator runs in-process — the worker cannot drift from the
// oracle because it *is* the oracle, fed over the wire.
//
// Workers are stateless by design: the dataset store is a bounded LRU, and
// an evicted (or never-seen) fingerprint is answered with 404 "unknown
// dataset" so the coordinator re-registers and retries. Seeded fault
// injection, serving metrics and graceful drain come from package rpc
// (rpc.ServerConfig), exactly as for kgserve; faults hit the /dist/v1/
// endpoints only — stats and /healthz are always honest.
package distworker

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"nexus/internal/core"
	"nexus/internal/distwire"
	"nexus/internal/rpc"
)

const (
	// parallelism bounds the scoring goroutines per work unit: a fleet gets
	// its parallelism from concurrent units across workers, and a
	// single-flight unit keeps per-request latency predictable.
	parallelism = 1
	// maxDatasets bounds the dataset LRU. Datasets hold the full encoded
	// input of a scoring context, so the cap is a memory bound; eviction
	// only costs the coordinator a re-registration.
	maxDatasets = 8
	// maxBatch rejects oversized score requests with 400.
	maxBatch = 1024
)

// Config configures a Server.
type Config struct {
	// ServerConfig holds the fault-injection and observability settings;
	// FailRate and Latency apply to the /dist/v1/ endpoints.
	rpc.ServerConfig
}

// Server handles the distwire endpoints on the shared rpc substrate, which
// provides Handler, Serve, Registry, SlowLog and Requests. Construct with
// New.
type Server struct {
	*rpc.Server
	local core.Local
	store *rpc.LRU[string, *dataset] // registered datasets by fingerprint
	units atomic.Int64
}

// New returns a worker server for cfg.
func New(cfg Config) *Server {
	s := &Server{
		Server: rpc.NewServer("nexusw", cfg.ServerConfig),
		local:  core.Local{Parallelism: parallelism},
		store:  rpc.NewLRU[string, *dataset](maxDatasets),
	}
	rpc.Handle(s.Server, distwire.PathDataset, "dataset", s.register)
	rpc.Handle(s.Server, distwire.PathScore, "score", s.score)
	rpc.HandleGet(s.Server, distwire.PathStats, "stats", s.Stats)
	return s
}

// Stats returns the per-endpoint request counts, injected faults, datasets
// held and units executed so far.
func (s *Server) Stats() distwire.StatsResponse {
	return distwire.StatsResponse{
		Requests: s.RequestCounts(),
		Injected: s.Injected(),
		Datasets: s.store.Len(),
		Units:    s.units.Load(),
	}
}

// dataset is a registered dataset with its decoded scoring context.
type dataset struct {
	wire *distwire.Dataset
	sctx *core.ScoreContext
}

func (s *Server) register(_ context.Context, req *distwire.RegisterRequest) (distwire.RegisterResponse, error) {
	d := &req.Dataset
	if err := d.Validate(); err != nil {
		return distwire.RegisterResponse{}, err
	}
	s.store.Put(d.Fingerprint, &dataset{wire: d, sctx: d.Context()})
	return distwire.RegisterResponse{Rows: d.Rows(), Cols: len(d.Cols)}, nil
}

func (s *Server) score(ctx context.Context, req *distwire.ScoreRequest) (distwire.ScoreResponse, error) {
	if len(req.Units) > maxBatch {
		return distwire.ScoreResponse{}, fmt.Errorf("batch of %d units exceeds limit %d", len(req.Units), maxBatch)
	}
	d, ok := s.store.Get(req.Fingerprint)
	if !ok {
		return distwire.ScoreResponse{}, &rpc.StatusError{Code: http.StatusNotFound, Body: "unknown dataset " + req.Fingerprint}
	}
	resp := distwire.ScoreResponse{Results: make([]distwire.UnitResult, len(req.Units))}
	for i := range req.Units {
		res, err := s.exec(ctx, d, &req.Units[i])
		if err != nil {
			return distwire.ScoreResponse{}, err
		}
		resp.Results[i] = res
	}
	s.units.Add(int64(len(req.Units)))
	return resp, nil
}

// exec runs one work unit through the in-process oracle.
func (s *Server) exec(ctx context.Context, d *dataset, u *distwire.Unit) (distwire.UnitResult, error) {
	if err := u.Validate(d.wire); err != nil {
		return distwire.UnitResult{}, err
	}
	if u.Kind == distwire.KindRelevance {
		vals, err := s.local.Relevance(ctx, d.sctx, u.Cands)
		if err != nil {
			return distwire.UnitResult{}, err
		}
		return distwire.UnitResult{Values: vals}, nil
	}
	// KindPerm: Validate rejected every other kind.
	spec := core.PermSpec{
		Cand: u.Cand, Op: core.PermOp(u.Op), Observed: u.Observed,
		Seeds: u.Seeds, Allow: u.Allow,
	}
	if u.Given != nil {
		spec.Given = u.Given.ToEncoded()
	}
	exceed, ran, err := s.local.PermBlock(ctx, d.sctx, spec)
	if err != nil {
		return distwire.UnitResult{}, err
	}
	return distwire.UnitResult{Exceed: exceed, Ran: ran}, nil
}
