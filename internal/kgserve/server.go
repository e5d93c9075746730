// Package kgserve exposes any kg.Source over the kgwire HTTP protocol —
// the server half of the remote knowledge-graph backend (cmd/kgd is the
// binary wrapper). Each endpoint decodes a batch request, answers it from
// the wrapped source, and replies with index-aligned JSON.
//
// Seeded fault injection for resilience testing, serving metrics and
// graceful drain come from package rpc (rpc.ServerConfig); faults hit the
// /kg/v2/ batch endpoints only — stats and /healthz are always honest.
package kgserve

import (
	"context"
	"fmt"

	"nexus/internal/kg"
	"nexus/internal/kgwire"
	"nexus/internal/rpc"
)

// Config configures a Server.
type Config struct {
	// Source is the knowledge graph to serve. Required.
	Source kg.Source
	// MaxBatch rejects oversized batch requests with 400 (default 65536).
	MaxBatch int
	// ServerConfig holds the fault-injection and observability settings;
	// FailRate and Latency apply to the /kg/v2/ batch endpoints.
	rpc.ServerConfig
}

// Server handles the kgwire endpoints on the shared rpc substrate, which
// provides Handler, Serve, Registry, SlowLog and Requests. Construct with
// New.
type Server struct {
	*rpc.Server
	cfg Config
}

// New returns a server for cfg.Source.
func New(cfg Config) *Server {
	if cfg.Source == nil {
		panic("kgserve: Config.Source is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 65536
	}
	s := &Server{Server: rpc.NewServer("kgd", cfg.ServerConfig), cfg: cfg}
	rpc.Handle(s.Server, kgwire.PathResolve, "resolve", s.resolve)
	rpc.Handle(s.Server, kgwire.PathEntities, "entities", s.entities)
	rpc.Handle(s.Server, kgwire.PathProperties, "properties", s.properties)
	rpc.HandleGet(s.Server, kgwire.PathStats, "stats", s.Stats)
	return s
}

// Stats returns the per-endpoint request counts and the number of
// injected faults so far.
func (s *Server) Stats() kgwire.StatsResponse {
	return kgwire.StatsResponse{Requests: s.RequestCounts(), Injected: s.Injected()}
}

// checkBatch rejects a batch of n items over the configured limit.
func (s *Server) checkBatch(n int) error {
	if n > s.cfg.MaxBatch {
		return fmt.Errorf("batch of %d exceeds limit %d", n, s.cfg.MaxBatch)
	}
	return nil
}

func entityIDs(wire []int32) []kg.EntityID {
	ids := make([]kg.EntityID, len(wire))
	for i, id := range wire {
		ids[i] = kg.EntityID(id)
	}
	return ids
}

func (s *Server) resolve(ctx context.Context, req *kgwire.ResolveRequest) (kgwire.ResolveResponse, error) {
	if err := s.checkBatch(len(req.Values)); err != nil {
		return kgwire.ResolveResponse{}, err
	}
	links, err := s.cfg.Source.Resolve(ctx, req.Values)
	if err != nil {
		return kgwire.ResolveResponse{}, err
	}
	resp := kgwire.ResolveResponse{Links: make([]kgwire.Link, len(links))}
	for i, l := range links {
		resp.Links[i] = kgwire.FromLink(l)
	}
	return resp, nil
}

func (s *Server) entities(ctx context.Context, req *kgwire.EntitiesRequest) (kgwire.EntitiesResponse, error) {
	if err := s.checkBatch(len(req.IDs)); err != nil {
		return kgwire.EntitiesResponse{}, err
	}
	ents, err := s.cfg.Source.Entities(ctx, entityIDs(req.IDs))
	if err != nil {
		return kgwire.EntitiesResponse{}, err
	}
	resp := kgwire.EntitiesResponse{Entities: make([]kgwire.Entity, len(ents))}
	for i, e := range ents {
		resp.Entities[i] = kgwire.FromEntity(e)
	}
	return resp, nil
}

func (s *Server) properties(ctx context.Context, req *kgwire.PropertiesRequest) (kgwire.PropertiesResponse, error) {
	if err := s.checkBatch(len(req.IDs)); err != nil {
		return kgwire.PropertiesResponse{}, err
	}
	props, err := s.cfg.Source.GetProperties(ctx, entityIDs(req.IDs))
	if err != nil {
		return kgwire.PropertiesResponse{}, err
	}
	return kgwire.BuildProperties(props), nil
}
