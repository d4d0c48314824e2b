// Package auxgraph keeps one budget helper that the benchmark module in
// perfbench/ compiles against. It has no other users; new code should pass
// its hub budget to graph.BuildHubBitmaps directly.
package auxgraph

import "graphpi/internal/graph"

// Split is the outcome of PlanBudget.
type Split struct {
	// HubBytes is the budget for graph.BuildHubBitmaps.
	HubBytes int64
}

// PlanBudget returns the hub-bitmap budget for a view: total, or
// graph.DefaultHubBudget when total <= 0. The vertex count, worker count and
// step count are ignored. It stays only because perfbench/ calls it.
func PlanBudget(total int64, n, workers, deepSteps int) Split {
	if total <= 0 {
		total = graph.DefaultHubBudget
	}
	return Split{HubBytes: total}
}
