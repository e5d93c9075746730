// Package harness drives the paper's evaluation (§5): it builds the four
// datasets over a shared synthetic world, prepares every query of the user
// study, runs MESA and all baselines on identical inputs, and regenerates
// each table and figure. Both cmd/experiments and the repository benchmarks
// are thin wrappers around this package.
package harness

import (
	"fmt"

	"nexus"
	"nexus/internal/core"
	"nexus/internal/kg"
	"nexus/internal/workload"
)

// Scale configures dataset sizes. Zero fields mean paper sizes (Table 1),
// except FlightsRows whose paper size (5.8M) is reserved for the headline
// scalability run; comparative experiments default to 200k flights.
type Scale struct {
	SORows      int
	FlightsRows int
	ForbesRows  int
	CovidRows   int
}

// DefaultScale returns the sizes used by cmd/experiments.
func DefaultScale() Scale {
	return Scale{SORows: 47623, FlightsRows: 200000, ForbesRows: 1647}
}

// TestScale returns a small configuration for unit tests.
func TestScale() Scale {
	return Scale{SORows: 8000, FlightsRows: 20000, ForbesRows: 1647, CovidRows: 188}
}

// Suite owns the world, datasets and sessions shared by all experiments.
type Suite struct {
	World *kg.World
	Seed  uint64

	Datasets map[string]*workload.Dataset
	sessions map[string]*nexus.Session
	opts     nexus.Options
}

// NewSuite generates the world and the four datasets.
func NewSuite(seed uint64, sc Scale) *Suite {
	w := kg.NewWorld(kg.WorldConfig{Seed: seed})
	s := &Suite{
		World:    w,
		Seed:     seed,
		Datasets: map[string]*workload.Dataset{},
		sessions: map[string]*nexus.Session{},
	}
	s.Datasets["SO"] = s.generate("SO", sc.SORows)
	s.Datasets["Covid-19"] = s.generate("Covid-19", sc.CovidRows)
	s.Datasets["Flights"] = s.generate("Flights", sc.FlightsRows)
	s.Datasets["Forbes"] = s.generate("Forbes", sc.ForbesRows)
	return s
}

// shortNames maps each dataset's table name to its workload.ByName name.
var shortNames = map[string]string{"SO": "so", "Covid-19": "covid", "Flights": "flights", "Forbes": "forbes"}

// generate builds a dataset at a row count (0 = its default) over the
// suite's world and seed.
func (s *Suite) generate(dataset string, rows int) *workload.Dataset {
	ds, err := workload.ByName(s.World, shortNames[dataset], rows, s.Seed)
	if err != nil {
		panic(fmt.Sprintf("harness: unknown dataset %q", dataset))
	}
	return ds
}

// Session returns (building lazily) the session for a dataset, with its
// table registered under the dataset name.
func (s *Suite) Session(dataset string) *nexus.Session {
	if sess, ok := s.sessions[dataset]; ok {
		return sess
	}
	ds, ok := s.Datasets[dataset]
	if !ok {
		panic(fmt.Sprintf("harness: unknown dataset %q", dataset))
	}
	opts := s.opts
	sess := nexus.NewSession(s.World.Graph, &opts)
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	s.sessions[dataset] = sess
	return sess
}

// SessionWith returns a fresh session with explicit options (not cached).
func (s *Suite) SessionWith(dataset string, opts nexus.Options) *nexus.Session {
	ds := s.Datasets[dataset]
	sess := nexus.NewSession(s.World.Graph, &opts)
	sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
	sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
	return sess
}

// nexusOptions lifts core options into session options.
func nexusOptions(c core.Options) nexus.Options {
	return nexus.Options{Core: c}
}
