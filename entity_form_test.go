package nexus_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"nexus"
	"nexus/internal/baselines"
	"nexus/internal/bins"
	"nexus/internal/core"
	"nexus/internal/counting"
	"nexus/internal/infotheory"
	"nexus/internal/kg"
	"nexus/internal/stats"
	"nexus/internal/table"
	"nexus/internal/workload"
)

// rowForm returns copies of the candidates without their entity form: the
// prunes then encode every one of them to rows and count over the rows, the
// reference the entity-level path must agree with. Stripping the form also
// swaps the entity-level permutation null for the row-level one of
// Candidate.Permute — the same test under other random draws, so borderline
// verdicts differ — which is why the comparisons below run with
// noPermRelevance; the entity-level null itself is pinned by effortCounts
// (permutations_run, pruned.online.*) and TestOnlinePruneUsesTheRunsOutcome.
func rowForm(cands []*core.Candidate) []*core.Candidate {
	out := make([]*core.Candidate, len(cands))
	for i, c := range cands {
		cp := *c
		cp.Entity = nil
		out[i] = &cp
	}
	return out
}

func noPermRelevance() core.PruneOptions {
	return core.PruneOptions{DisablePermRelevance: true}
}

func candidateNames(cands []*core.Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.Name
	}
	return out
}

// TestOnlinePruneUsesTheRunsOutcome pins the fix of a stale table: the
// entity-level permutation test used to tally outcome × slot once per
// Analysis, from the outcome of the first prune that reached it, and test
// every later run against that. Pruning one Analysis against its outcome and
// then against a shuffled copy must keep exactly what a fresh Analysis pruned
// against the shuffled copy keeps. Covid-19 has one row per country, so the
// analytic tests leave most verdicts to the permutation test.
func TestOnlinePruneUsesTheRunsOutcome(t *testing.T) {
	w := integrationWorld()
	ds := workload.Covid(w, workload.Config{Seed: 2})
	ctx := context.Background()
	var opts core.PruneOptions
	prepare := func() *nexus.Analysis {
		sess := nexus.NewSession(w.Graph, nil)
		sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
		a, err := sess.PrepareCtx(context.Background(), "SELECT Country, avg(Deaths_per_100_cases) FROM `Covid-19` GROUP BY Country")
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	reused, fresh := prepare(), prepare()
	o2 := core.ShuffleObserved(reused.O, stats.NewRNG(7))

	first, _, err := core.OnlinePruneCtx(ctx, nil, reused.T, reused.O, reused.Candidates, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := core.OnlinePruneCtx(ctx, nil, reused.T, o2, reused.Candidates, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.OnlinePruneCtx(ctx, nil, fresh.T, o2, fresh.Candidates, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(want) >= len(first) {
		t.Fatalf("fixture too weak: %d candidates survive the shuffled outcome, %d the real one", len(want), len(first))
	}
	if g, w := candidateNames(got), candidateNames(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("second prune of one Analysis kept %d candidates, a fresh Analysis keeps %d against the same outcome:\n got %v\nwant %v",
			len(g), len(w), g, w)
	}
}

// TestPrunesAgreeWithAndWithoutEntityForm runs both prunes over the same KG
// candidates in entity form and stripped to the row form: the kept candidates,
// in order, and the per-rule drop counts must be identical. Candidates with
// IPW weights take the row pass either way, so both sides of the choice run
// wherever selection bias is detected.
func TestPrunesAgreeWithAndWithoutEntityForm(t *testing.T) {
	if testing.Short() {
		t.Skip("24 prepared analyses; skipped in -short mode")
	}
	datasets := []struct {
		name string
		make func(*kg.World, workload.Config) *workload.Dataset
		rows int
		sql  string
	}{
		{"so", workload.StackOverflow, 2000, "SELECT Country, avg(Salary) FROM SO GROUP BY Country"},
		{"flights", workload.Flights, 2000, flightsQuery},
		{"covid", workload.Covid, 0, "SELECT Country, avg(Deaths_per_100_cases) FROM `Covid-19` GROUP BY Country"},
		{"forbes", workload.Forbes, 0, "SELECT Name, avg(Pay) FROM Forbes WHERE Category = 'Athletes' GROUP BY Name"},
	}
	ctx := context.Background()
	opts := noPermRelevance()
	for seed := uint64(1); seed <= 3; seed++ {
		world := kg.NewWorld(kg.WorldConfig{Seed: seed})
		for _, d := range datasets {
			ds := d.make(world, workload.Config{Rows: d.rows, Seed: seed + 10})
			for hops := 1; hops <= 2; hops++ {
				t.Run(fmt.Sprintf("%s/seed=%d/hops=%d", d.name, seed, hops), func(t *testing.T) {
					sess := nexus.NewSession(world.Graph, &nexus.Options{Hops: hops})
					sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
					sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
					a, err := sess.PrepareCtx(context.Background(), d.sql)
					if err != nil {
						t.Fatal(err)
					}
					folded, weighted := 0, 0
					for _, c := range a.Candidates {
						if c.Entity != nil {
							folded++
							if c.Entity.Weights() != nil {
								weighted++
							}
						}
					}
					if folded == 0 {
						t.Fatal("no candidate has an entity form")
					}
					t.Logf("%d candidates, %d in entity form, %d of those IPW-weighted", len(a.Candidates), folded, weighted)

					ent, entStats, err := core.OfflinePruneCtx(ctx, nil, a.Candidates, opts)
					if err != nil {
						t.Fatal(err)
					}
					row, rowStats, err := core.OfflinePruneCtx(ctx, nil, rowForm(a.Candidates), opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(candidateNames(ent), candidateNames(row)) || !reflect.DeepEqual(entStats, rowStats) {
						t.Fatalf("offline prune differs:\nentity form %v %+v\n   row form %v %+v", candidateNames(ent), entStats, candidateNames(row), rowStats)
					}
					ent2, entStats2, err := core.OnlinePruneCtx(ctx, nil, a.T, a.O, ent, opts)
					if err != nil {
						t.Fatal(err)
					}
					row2, rowStats2, err := core.OnlinePruneCtx(ctx, nil, a.T, a.O, row, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(candidateNames(ent2), candidateNames(row2)) || !reflect.DeepEqual(entStats2, rowStats2) {
						t.Fatalf("online prune differs:\nentity form %v %+v\n   row form %v %+v", candidateNames(ent2), entStats2, candidateNames(row2), rowStats2)
					}
				})
			}
		}
	}
}

// TestCondVerdictsMatchUnfusedOnDatasets holds the conditional finalize the
// online prune runs to the unfused estimator, candidate by candidate, over
// the datasets, seeds and depths of TestPrunesAgreeWithAndWithoutEntityForm:
// the screen the prune would build for a candidate (the cube fold for an
// unweighted entity form, the row pass otherwise) must give, at every
// threshold, the verdict of infotheory.CondIndependent over the candidate's
// broadcast encoding — a math.Log2 walk over its own row tally, which the
// entropy form shares no code with.
func TestCondVerdictsMatchUnfusedOnDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("24 prepared analyses; skipped in -short mode")
	}
	datasets := []struct {
		name string
		make func(*kg.World, workload.Config) *workload.Dataset
		rows int
		sql  string
	}{
		{"so", workload.StackOverflow, 2000, "SELECT Country, avg(Salary) FROM SO GROUP BY Country"},
		{"flights", workload.Flights, 2000, flightsQuery},
		{"covid", workload.Covid, 0, "SELECT Country, avg(Deaths_per_100_cases) FROM `Covid-19` GROUP BY Country"},
		{"forbes", workload.Forbes, 0, "SELECT Name, avg(Pay) FROM Forbes WHERE Category = 'Athletes' GROUP BY Name"},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		world := kg.NewWorld(kg.WorldConfig{Seed: seed})
		for _, d := range datasets {
			ds := d.make(world, workload.Config{Rows: d.rows, Seed: seed + 10})
			for hops := 1; hops <= 2; hops++ {
				t.Run(fmt.Sprintf("%s/seed=%d/hops=%d", d.name, seed, hops), func(t *testing.T) {
					sess := nexus.NewSession(world.Graph, &nexus.Options{Hops: hops})
					sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
					sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
					a, err := sess.PrepareCtx(context.Background(), d.sql)
					if err != nil {
						t.Fatal(err)
					}
					type cubes struct{ cube, pair *counting.SlotCube }
					byMap := map[*int32]cubes{}
					folded, byEntropyForm, verdicts := 0, 0, 0
					for _, c := range a.Candidates {
						enc, err := c.Enc()
						if err != nil {
							t.Fatal(err)
						}
						var w []float64
						if c.Weights != nil {
							w = c.Weights(enc)
						}
						var sc *infotheory.OnlineScreen
						if c.Entity != nil && w == nil {
							ent, err := c.Entity.Enc()
							if err != nil {
								t.Fatal(err)
							}
							key := &c.Entity.Slots[0]
							if _, ok := byMap[key]; !ok {
								o, none := counting.Dim{Codes: a.O.Codes, Card: a.O.Card}, counting.Dim{Card: 1}
								byMap[key] = cubes{
									cube: counting.NewSlotCube(c.Entity.Slots, none, o, counting.Dim{Codes: a.T.Codes, Card: a.T.Card}),
									pair: counting.NewSlotCube(c.Entity.Slots, none, o, none),
								}
							}
							if sc = infotheory.ScreenSlots(byMap[key].cube, byMap[key].pair, ent); sc != nil {
								folded++
							}
						}
						if sc == nil {
							sc = infotheory.ScreenAll(a.O, a.T, enc, infotheory.Weights{W: w})
						}
						for _, thr := range []float64{0.001, 0.02, 0.1, 0.5} {
							got, want := sc.CondIndependentGivenT(thr), infotheory.CondIndependent(a.O, enc, []infotheory.Var{a.T}, infotheory.Weights{W: w}, thr)
							if got != want {
								t.Fatalf("%s at threshold %v: the prune's screen says independent = %v, the unfused estimator %v", c.Name, thr, got, want)
							}
							verdicts++
							if !sc.CondWalked() {
								byEntropyForm++
							}
						}
						sc.Release()
					}
					if folded == 0 || byEntropyForm == 0 {
						t.Fatalf("fixture too weak: %d candidates folded, %d verdicts by the entropy form", folded, byEntropyForm)
					}
					t.Logf("%d candidates (%d folded), %d of %d verdicts by the entropy form", len(a.Candidates), folded, byEntropyForm, verdicts)
				})
			}
		}
	}
}

// explanationKey renders everything deterministic about an explanation, with
// scores as exact bits.
func explanationKey(ex *core.Explanation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "base=%x score=%x offline=%+v online=%+v\n",
		math.Float64bits(ex.BaseScore), math.Float64bits(ex.Score), ex.OfflineStats, ex.OnlineStats)
	for _, a := range ex.Attrs {
		fmt.Fprintf(&b, "%s %s hops=%d rel=%x resp=%x\n", a.Name, a.Origin, a.Hops,
			math.Float64bits(a.Relevance), math.Float64bits(a.Responsibility))
	}
	return b.String()
}

// TestEntityFormDegenerateInputs drives inputs at the edges of the entity
// form through the session: each must give the row path's answer (the same
// query explained with the entity forms stripped, see rowForm) or the row
// path's error, and Session.ExplainCtx with its defaults — entity-level
// permutation test included — must neither panic nor hang on any of them.
func TestEntityFormDegenerateInputs(t *testing.T) {
	w := integrationWorld()
	so := workload.StackOverflow(w, workload.Config{Rows: 2500, Seed: 5})
	soSession := func(opts nexus.Options) *nexus.Session {
		sess := nexus.NewSession(w.Graph, &opts)
		sess.RegisterTable(so.Name, so.Table, so.LinkColumns...)
		return sess
	}
	const soQuery = "SELECT Country, avg(Salary) FROM SO GROUP BY Country"

	// A link column no value of which resolves: every slot is -1.
	n := so.Table.NumRows()
	nowhere := make([]string, n)
	for i := range nowhere {
		nowhere[i] = fmt.Sprintf("Nowhere-%d", i%40)
	}
	unresolved := table.MustFromColumns(so.Table.MustColumn("Country"), so.Table.MustColumn("Salary"),
		so.Table.MustColumn("Age"), table.NewStringColumn("Planet", nowhere))

	// |T|·|O|·|E| past counting.MaxDense: 3,000 exposure groups × 8 outcome
	// bins × an attribute with 250 values over 300 entities.
	wide := kg.NewGraph()
	const wideRows, wideGroups, wideEnts, wideZones = 12000, 3000, 300, 250
	if wideGroups*8*wideZones <= counting.MaxDense {
		t.Fatal("the wide fixture no longer leaves the dense bound")
	}
	for e := 0; e < wideEnts; e++ {
		id := wide.AddEntity(fmt.Sprintf("Town %d", e), "town")
		wide.Set(id, "Zone", kg.Str(fmt.Sprintf("zone-%d", e%wideZones)))
		wide.Set(id, "Altitude", kg.Num(float64(e%17)))
	}
	rng := stats.NewRNG(9)
	town, group, pay := make([]string, wideRows), make([]string, wideRows), make([]float64, wideRows)
	for i := range town {
		e := rng.Intn(wideEnts)
		town[i] = fmt.Sprintf("Town %d", e)
		group[i] = fmt.Sprintf("g%d", (e*10+rng.Intn(10))%wideGroups)
		pay[i] = float64(e%17) + rng.Norm()
	}
	wideTable := table.MustFromColumns(table.NewStringColumn("Town", town),
		table.NewStringColumn("Grp", group), table.NewFloatColumn("Pay", pay))

	cases := []struct {
		name string
		sess func(nexus.Options) *nexus.Session
		sql  string
		// edit, when set, changes the prepared candidates before explaining.
		edit func(t *testing.T, a *nexus.Analysis)
	}{
		{name: "zero-row view", sess: soSession,
			sql: "SELECT Country, avg(Salary) FROM SO WHERE Continent = 'Atlantis' GROUP BY Country"},
		{name: "every entity unresolved", sess: func(opts nexus.Options) *nexus.Session {
			sess := nexus.NewSession(w.Graph, &opts)
			sess.RegisterTable("U", unresolved, "Planet")
			return sess
		}, sql: "SELECT Country, avg(Salary) FROM U GROUP BY Country"},
		{name: "single slot", sess: soSession,
			sql: "SELECT DevType, avg(Salary) FROM SO WHERE Country = '" + so.Table.MustColumn("Country").StringAt(0) + "' GROUP BY DevType"},
		{name: "attribute null for every entity", sess: soSession, sql: soQuery,
			edit: func(t *testing.T, a *nexus.Analysis) {
				attr := a.Extraction.Attrs[0]
				null := table.NewColumn("AllNull", table.Float)
				for i := 0; i < attr.Col.Len(); i++ {
					null.AppendNull()
				}
				blank := attr.WithColumn(null)
				blank.Name = "AllNull"
				a.Candidates = append(a.Candidates, a.KGCandidate(blank))
			}},
		{name: "DisableIPW", sess: func(opts nexus.Options) *nexus.Session {
			opts.DisableIPW = true
			return soSession(opts)
		}, sql: soQuery},
		{name: "cardinality product past MaxDense", sess: func(opts nexus.Options) *nexus.Session {
			sess := nexus.NewSession(wide, &opts)
			sess.RegisterTable("Wide", wideTable, "Town")
			return sess
		}, sql: "SELECT Grp, avg(Pay) FROM Wide GROUP BY Grp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			explain := func(opts nexus.Options, strip bool) (string, error) {
				a, err := tc.sess(opts).PrepareCtx(context.Background(), tc.sql)
				if err != nil {
					return "", err
				}
				if tc.edit != nil {
					tc.edit(t, a)
				}
				if strip {
					a.Candidates = rowForm(a.Candidates)
				}
				rep, err := a.ExplainCtx(context.Background())
				if err != nil {
					return "", err
				}
				return explanationKey(rep.Explanation), nil
			}
			var opts nexus.Options
			opts.Core = core.DefaultOptions()
			opts.Core.Prune = noPermRelevance()
			want, wantErr := explain(opts, true)
			got, gotErr := explain(opts, false)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("entity form: %v\n%s\nrow form: %v\n%s", gotErr, got, wantErr, want)
			}
			if _, err := explain(nexus.Options{}, false); fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("with the session defaults: %v, want %v", err, wantErr)
			}
		})
	}
}

// TestBaselinesScoreEntityFormsAsBroadcasts pins that the baselines read a
// candidate as the pipeline does without changing an answer: Brute-Force,
// Top-K, HypDB and LR over the entity forms (slot codes and slot weights
// read through the row→slot map) give the attributes and the Float64bits of
// the score they give over broadcast copies of the same candidates (rowForm,
// whose Enc and Weights are n-long). The candidates are the pruned set the
// comparison harness hands them, IPW-weighted ones among them.
func TestBaselinesScoreEntityFormsAsBroadcasts(t *testing.T) {
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	ctx := context.Background()
	weightedScored := false
	for _, d := range []struct {
		name string
		make func(*kg.World, workload.Config) *workload.Dataset
		sql  string
	}{
		{"covid", workload.Covid, "SELECT Country, avg(Deaths_per_100_cases) FROM `Covid-19` GROUP BY Country"},
		{"forbes", workload.Forbes, "SELECT Name, avg(Pay) FROM Forbes WHERE Category = 'Athletes' GROUP BY Name"},
	} {
		ds := d.make(world, workload.Config{Seed: 12})
		sess := nexus.NewSession(world.Graph, nil)
		sess.RegisterTable(ds.Name, ds.Table, ds.LinkColumns...)
		sess.ExcludeCandidates(ds.Name, ds.ExcludeCandidates...)
		a, err := sess.PrepareCtx(ctx, d.sql)
		if err != nil {
			t.Fatal(err)
		}
		offline, _, err := core.OfflinePruneCtx(ctx, nil, a.Candidates, core.PruneOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ent, _, err := core.OnlinePruneCtx(ctx, nil, a.T, a.O, offline, core.PruneOptions{})
		if err != nil {
			t.Fatal(err)
		}
		row := rowForm(ent)
		weighted := map[string]bool{}
		for _, c := range ent {
			if c.Entity != nil && c.Entity.Weights() != nil {
				weighted[c.Name] = true
			}
		}
		if len(weighted) == 0 {
			t.Fatalf("%s: fixture too weak: no IPW-weighted candidate among %d", d.name, len(ent))
		}

		outcome := a.View.MustColumn(a.Result.Outcome).Floats()
		var series []baselines.NamedSeries
		for _, c := range ent {
			if attr := a.Extraction.Attr(c.Name); attr != nil && attr.Col.Typ == table.Float {
				series = append(series, baselines.NamedSeries{Name: c.Name, Values: attr.Materialize().Floats()})
			}
		}
		run := func(cands []*core.Candidate) []*baselines.Result {
			bf, err := baselines.BruteForce(a.T, a.O, cands, 5)
			if err != nil {
				t.Fatal(err)
			}
			topk, err := baselines.TopK(a.T, a.O, cands, 5)
			if err != nil {
				t.Fatal(err)
			}
			hyp, err := baselines.HypDB(a.T, a.O, cands, 5)
			if err != nil {
				t.Fatal(err)
			}
			encOf := func(name string) *bins.Encoded {
				for _, c := range cands {
					if c.Name == name {
						e, _, err := c.Vectors()
						if err != nil {
							t.Fatal(err)
						}
						return e
					}
				}
				return nil
			}
			lr := baselines.LinearRegression(outcome, series, a.T, a.O, encOf, 5)
			return []*baselines.Result{bf, topk, hyp, lr}
		}
		got, want := run(ent), run(row)
		for i := range got {
			g, w := got[i], want[i]
			if !reflect.DeepEqual(g.Attrs, w.Attrs) || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Errorf("%s %s: entity forms give %v %v, broadcasts %v %v", d.name, g.Method, g.Attrs, g.Score, w.Attrs, w.Score)
			}
			for _, name := range g.Attrs {
				weightedScored = weightedScored || weighted[name] && g.Method != baselines.MethodHypDB && g.Method != baselines.MethodLR
			}
		}
	}
	if !weightedScored {
		t.Fatal("fixture too weak: no weighted method scored an IPW-weighted candidate")
	}
}
