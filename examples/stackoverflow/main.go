// Stack Overflow walkthrough: the paper's running SO example (§2) —
// salary-per-country explanation, context refinement to Europe, entity-
// linking aliases, individual responsibilities of a user-chosen set, and
// the top-k unexplained subgroups (Table 4).
//
// Run with: go run ./examples/stackoverflow
package main

import (
	"context"
	"fmt"
	"log"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/workload"
)

func main() {
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	so := workload.StackOverflow(world, workload.Config{Rows: 20000, Seed: 12})

	sess := nexus.NewSession(world.Graph, nil)
	sess.RegisterTable("SO", so.Table, so.LinkColumns...)
	ctx := context.Background()

	// The survey spells some countries differently from the knowledge
	// graph ("Russian Federation" vs "Russia") — the NED failure mode the
	// paper reports. Registering aliases recovers those links.
	for alias, canonical := range map[string]string{
		"Russian Federation":         "Russia",
		"Republic of Korea":          "South Korea",
		"Viet Nam":                   "Vietnam",
		"Iran (Islamic Republic of)": "Iran",
		"USA":                        "United States",
	} {
		if id, ok := world.Graph.Lookup(canonical); ok {
			sess.Linker().AddAlias(alias, id)
		}
	}

	// Q_so: why do average developer salaries differ so much by country?
	fmt.Println("=== SO Q1: average salary per country ===")
	rep, err := sess.ExplainCtx(ctx, "SELECT Country, avg(Salary) FROM SO GROUP BY Country")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Summary())
	for col, st := range rep.Analysis.LinkStats {
		fmt.Printf("entity linking %-10s: %d linked, %d unlinked, %d ambiguous\n",
			col, st.Linked, st.Unlinked, st.Ambiguous)
	}

	// Responsibility of an analyst-chosen set (paper Example 2.6).
	fmt.Println("\n=== Individual responsibility of {GDP, Gini} ===")
	resp, err := rep.Analysis.Responsibility([]string{"GDP", "Gini"})
	if err != nil {
		log.Fatal(err)
	}
	for name, r := range resp {
		fmt.Printf("  Resp(%s) = %.2f\n", name, r)
	}

	// Context refinement (paper Example 2.1): within Europe the HDI is
	// clustered, so the global explanation may not hold — a different set
	// explains the within-Europe differences.
	fmt.Println("\n=== SO Q3: average salary per country in Europe ===")
	repEU, err := sess.ExplainCtx(ctx,
		"SELECT Country, avg(Salary) FROM SO WHERE Continent = 'Europe' GROUP BY Country")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(repEU.Summary())

	// Unexplained subgroups (Algorithm 2 / Table 4): where does the global
	// explanation fail?
	fmt.Println("=== Top-5 unexplained subgroups for SO Q1 (auto τ) ===")
	groups, stats, err := rep.SubgroupsCtx(ctx, 5, 0)
	if err != nil {
		log.Fatal(err)
	}
	if len(groups) == 0 {
		fmt.Println("  none at this threshold")
	}
	for i, g := range groups {
		fmt.Printf("  %d. size=%-7d score=%.3f  %s\n", i+1, g.Size, g.Score, g.String())
	}
	fmt.Printf("  (lattice: %d nodes scored, %d pushed)\n", stats.Explored, stats.Pushed)
}
