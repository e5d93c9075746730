// Flights at scale: explain flight delays over hundreds of thousands of
// rows (§5.3). Demonstrates entity-level extraction (attributes are
// extracted once per distinct city/airline and broadcast to rows), IPW on
// sparse weather attributes, and the grouped-exposure query of Flights Q4.
//
// Run with: go run ./examples/flights [-rows N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"nexus"
	"nexus/internal/kg"
	"nexus/internal/workload"
)

func main() {
	rows := flag.Int("rows", 300000, "number of flights to generate")
	flag.Parse()

	fmt.Printf("generating world + %d flights...\n", *rows)
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	flights := workload.Flights(world, workload.Config{Rows: *rows, Seed: 14})

	sess := nexus.NewSession(world.Graph, nil)
	sess.RegisterTable("Flights", flights.Table, flights.LinkColumns...)
	sess.ExcludeCandidates("Flights", flights.ExcludeCandidates...)
	ctx := context.Background()

	queries := []struct{ label, sql string }{
		{"Q1: average delay per origin city",
			"SELECT Origin_city, avg(Departure_delay) FROM Flights GROUP BY Origin_city"},
		{"Q5: average delay per airline",
			"SELECT Airline, avg(Departure_delay) FROM Flights GROUP BY Airline"},
		{"Q4: average delay per origin state and airline (grouped exposure)",
			"SELECT Origin_state, Airline, avg(Departure_delay) FROM Flights GROUP BY Origin_state, Airline"},
	}
	for _, q := range queries {
		fmt.Printf("\n=== %s ===\n", q.label)
		start := time.Now()
		rep, err := sess.ExplainCtx(ctx, q.sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep.Summary())
		fmt.Printf("(%d rows analyzed in %v)\n", rep.Analysis.View.NumRows(), time.Since(start).Round(time.Millisecond))
	}
}
