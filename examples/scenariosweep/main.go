// Scenario sweep: how does the choice of checkpointing protocol (the six
// resilience scenarios of Table III) change the optimal pattern on each
// of the four SCR platforms? A miniature, terminal-rendered Fig. 2.
//
//	go run ./examples/scenariosweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"amdahlyd/internal/experiments"
	"amdahlyd/internal/platform"
	"amdahlyd/internal/report"
)

func main() {
	cfg := experiments.Quick()
	cfg.Seed = 7

	res, err := experiments.Fig2(context.Background(), platform.All(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Chart the optimal processor counts per scenario for each platform.
	byPlatform := map[string]*report.Series{}
	var order []string
	for _, c := range res.Cells {
		s, ok := byPlatform[c.Platform]
		if !ok {
			s = &report.Series{Name: c.Platform}
			byPlatform[c.Platform] = s
			order = append(order, c.Platform)
		}
		if c.Optimal != nil {
			s.Add(float64(c.Scenario), c.Optimal.P)
		}
	}
	series := make([]report.Series, 0, len(order))
	for _, name := range order {
		series = append(series, *byPlatform[name])
	}
	chart := report.Chart{
		Title:  "Optimal processor count by scenario (numerical)",
		XLabel: "scenario",
		YLabel: "P*",
		LogY:   true,
	}
	if err := chart.Render(os.Stdout, series...); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading: scenarios whose checkpoint cost shrinks with P (5, 6)")
	fmt.Println("support far larger allocations than linear-cost scenarios (1, 2).")
}
