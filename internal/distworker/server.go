// Package distworker is the server half of the distributed scoring fleet
// (cmd/nexusw is the binary wrapper): it registers encoded datasets under
// their content fingerprints and executes distwire work units against them
// using the same core.Local scorer the coordinator runs in-process — the
// worker cannot drift from the oracle because it *is* the oracle, fed over
// the wire.
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

// Config configures a Server.
type Config struct {
	// Parallelism bounds the scoring goroutines per work unit (default 1:
	// a fleet gets its parallelism from concurrent units across workers,
	// and a single-flight unit keeps per-request latency predictable).
	Parallelism int
	// MaxDatasets bounds the dataset LRU (default 8). Datasets hold the
	// full encoded input of a scoring context, so the cap is a memory
	// bound; eviction only costs the coordinator a re-registration.
	MaxDatasets int
	// MaxBatch rejects oversized score requests with 400 (default 1024
	// units).
	MaxBatch int
	// ServerConfig holds the fault-injection and observability settings;
	// FailRate and Latency apply to the /dist/v1/ endpoints.
	rpc.ServerConfig
}

// Server handles the distwire endpoints on the shared rpc substrate, which
// provides Handler, Serve, Registry, SlowLog and Requests. Construct with
// New.
type Server struct {
	*rpc.Server
	cfg   Config
	local core.Local
	store *rpc.LRU[string, *dataset] // registered datasets by fingerprint
	units atomic.Int64
}

// New returns a worker server for cfg.
func New(cfg Config) *Server {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.MaxDatasets <= 0 {
		cfg.MaxDatasets = 8
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	s := &Server{
		Server: rpc.NewServer("nexusw", cfg.ServerConfig),
		cfg:    cfg,
		local:  core.Local{Parallelism: cfg.Parallelism},
		store:  rpc.NewLRU[string, *dataset](cfg.MaxDatasets),
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

// dataset is a registered dataset with its decoded scoring contexts.
type dataset struct {
	wire *distwire.Dataset
	sctx *core.ScoreContext
	gc   *core.GroupContext
}

func (s *Server) register(_ context.Context, req *distwire.RegisterRequest) (distwire.RegisterResponse, error) {
	d := &req.Dataset
	if err := d.Validate(); err != nil {
		return distwire.RegisterResponse{}, err
	}
	sctx, gc := d.Contexts()
	s.store.Put(d.Fingerprint, &dataset{wire: d, sctx: sctx, gc: gc})
	return distwire.RegisterResponse{Rows: d.Rows(), Cols: len(d.Cols)}, nil
}

func (s *Server) score(ctx context.Context, req *distwire.ScoreRequest) (distwire.ScoreResponse, error) {
	if len(req.Units) > s.cfg.MaxBatch {
		return distwire.ScoreResponse{}, fmt.Errorf("batch of %d units exceeds limit %d", len(req.Units), s.cfg.MaxBatch)
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
	switch u.Kind {
	case distwire.KindRelevance:
		vals, err := s.local.Relevance(ctx, d.sctx, u.Cands)
		if err != nil {
			return distwire.UnitResult{}, err
		}
		return distwire.UnitResult{Values: vals}, nil
	case distwire.KindPerm:
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
	default: // KindSubgroup; Validate rejected everything else
		specs := make([]core.GroupSpec, len(u.Groups))
		for i, g := range u.Groups {
			conds := make([]core.GroupCond, len(g.Conds))
			for j, c := range g.Conds {
				conds[j] = core.GroupCond{Attr: c.Attr, Code: c.Code}
			}
			specs[i] = core.GroupSpec{Conds: conds}
		}
		vals, err := s.local.SubgroupBatch(ctx, d.gc, specs)
		if err != nil {
			return distwire.UnitResult{}, err
		}
		return distwire.UnitResult{Values: vals}, nil
	}
}
