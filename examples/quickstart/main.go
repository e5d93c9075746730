// Quickstart: the paper's running Covid-19 example (Examples 1.1–1.2).
//
// Ann queries the average death rate per country and sees a puzzling
// correlation between Country and Deaths_per_100_cases. nexus mines
// candidate confounders from the knowledge graph (HDI, GDP, ...), applies
// inverse probability weighting to attributes with selection bias, and
// explains the correlation away with a small attribute set ranked by
// responsibility.
//
// Run with: go run ./examples/quickstart
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
	// A deterministic synthetic DBpedia-like knowledge graph: countries
	// with economy/demography properties, planted correlations, realistic
	// sparsity and selection bias.
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})

	// The Covid-19 dataset: one row per country; the death rate is driven
	// by development (HDI/GDP), inequality, density and case load.
	covid := workload.Covid(world, workload.Config{Seed: 13})

	sess := nexus.NewSession(world.Graph, nil)
	sess.RegisterTable("Covid", covid.Table, covid.LinkColumns...)
	ctx := context.Background()

	// Ann's query (paper Example 1.1).
	rep, err := sess.ExplainCtx(ctx,
		"SELECT Country, avg(Deaths_per_100_cases) FROM Covid GROUP BY Country")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(rep.Summary())

	fmt.Println("interpretation:")
	fmt.Printf("  the observed correlation I(O;T) = %.2f bits is %.0f%% explained by:\n",
		rep.Explanation.BaseScore, 100*rep.ExplainedFraction())
	for _, a := range rep.Explanation.Attrs {
		src := "the input table"
		if a.Origin == "kg" {
			src = "the knowledge graph"
		}
		fmt.Printf("  - %s (from %s, responsibility %.0f%%)\n", a.Name, src, 100*a.Responsibility)
	}
	fmt.Println("\ncountries with similar values of these attributes have similar death")
	fmt.Println("rates — the Country→DeathRate correlation is confounded, not causal.")
}
