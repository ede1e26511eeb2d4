package stats_test

import (
	"fmt"

	"amdahlyd/internal/stats"
)

func ExampleQuantile() {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	med, _ := stats.Median(xs)
	q90, _ := stats.Quantile(xs, 0.9)
	fmt.Printf("median = %g, q90 = %g\n", med, q90)
	// Output:
	// median = 5, q90 = 8.2
}
