package auxgraph

import (
	"testing"

	"graphpi/internal/graph"
)

// TestPlanBudgetDefaults: a non-positive budget selects the hub default, a
// positive one passes through whole.
func TestPlanBudgetDefaults(t *testing.T) {
	if s := PlanBudget(0, 100_000, 4, 3); s.HubBytes != graph.DefaultHubBudget {
		t.Errorf("PlanBudget(0) = %d, want %d", s.HubBytes, graph.DefaultHubBudget)
	}
	if s := PlanBudget(10<<20, 1000, 4, 0); s.HubBytes != 10<<20 {
		t.Errorf("PlanBudget(10 MiB) = %d, want %d", s.HubBytes, 10<<20)
	}
}

// TestPlanBudgetWorkerScaling: the hub budget does not depend on the worker
// count, the vertex count or the step count.
func TestPlanBudgetWorkerScaling(t *testing.T) {
	want := PlanBudget(30<<20, 1000, 1, 1)
	for _, workers := range []int{0, 2, 8, 32} {
		for _, steps := range []int{0, 1, 8} {
			if got := PlanBudget(30<<20, 1_000_000, workers, steps); got != want {
				t.Errorf("workers=%d steps=%d: %+v, want %+v", workers, steps, got, want)
			}
		}
	}
}
