package core

import (
	"fmt"

	"graphpi/internal/codegen"
	"graphpi/internal/graph"
	"graphpi/internal/restrict"
)

// Tier selects the execution tier for counting runs. The engine offers
// two (paper Figure 3 compiles every configuration; here only cliques get a
// dedicated kernel):
//
//	interpret — the loop-program interpreter (engine.go); always
//	            available, the only tier that can enumerate.
//	generated — the order-bounded clique counter (clique.go) for
//	            k3..k12, used when the planned configuration is a
//	            total-order-restricted clique. The name is historical:
//	            the tier once ran go:generate'd per-size kernels, and
//	            the CLI, the service and clients still use the label.
//
// Both tiers return bit-identical counts; they differ only in speed.
type Tier uint8

const (
	// TierAuto (the default) counts on the clique counter when the
	// configuration is a total-order-restricted clique, else on the
	// interpreter. Enumeration always interprets.
	TierAuto Tier = iota
	// TierInterpret forces the interpreter.
	TierInterpret
	// TierCompiled is retired: it named the runtime-compiled closure
	// tier, deleted because it did not pay for a second engine over the
	// interpreter (DESIGN.md §9). The value keeps its slot so the other
	// tiers keep theirs; ParseTier no longer accepts it, CompileTier
	// rejects it, and runs requesting it interpret.
	TierCompiled
	// TierGenerated forces the clique counter; runs it cannot serve fall
	// back to the interpreter (CompileTier reports the mismatch for
	// callers that must surface it).
	TierGenerated
)

func (t Tier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierInterpret:
		return "interpreted"
	case TierGenerated:
		return "generated"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// ParseTier parses a tier name as accepted by the CLI and the service
// ("auto", "interpret"/"interpreted", "generated").
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "auto":
		return TierAuto, nil
	case "interpret", "interpreted":
		return TierInterpret, nil
	case "generated":
		return TierGenerated, nil
	}
	return TierAuto, fmt.Errorf("core: unknown tier %q (want auto, interpret or generated)", s)
}

// CompileTier checks that a counting run with this request executes on a
// compiled tier and returns that tier. The clique counter is the only
// compiled tier, and it has nothing to build per configuration, so this is
// a check: TierAuto and TierGenerated succeed for total-order-restricted
// cliques, everything else errors (the run then interprets).
func (c *Config) CompileTier(g *graph.Graph, useIEP bool, tier Tier) (Tier, error) {
	if tier != TierAuto && tier != TierGenerated {
		return TierInterpret, fmt.Errorf("core: tier %s is not a compiled tier", tier)
	}
	if c.ResolveTier(g, tier, useIEP) != TierGenerated {
		return TierInterpret, fmt.Errorf("core: no generated kernel for %s (the generated tier covers total-order-restricted cliques k%d..k%d)",
			c.Pattern, MinClique, MaxClique)
	}
	return TierGenerated, nil
}

// SourceSpec is the Spec for the source backend (codegen.GenerateSource):
// the full enumeration nest of this configuration.
func (c *Config) SourceSpec() codegen.Spec {
	return codegen.Spec{
		N:            c.n,
		Plan:         c.plan,
		Lowers:       c.lowers,
		Uppers:       c.uppers,
		DupCheck:     c.dupCheck,
		Pattern:      c.Pattern.String(),
		Schedule:     c.Schedule.String(),
		Restrictions: c.Restrictions.String(),
	}
}

// ResolveTier reports the tier a counting run with the given request would
// execute on (the tier /count responses label results with): the clique
// counter when auto or generated is requested for a total-order-restricted
// clique, else the interpreter. Enumeration always interprets.
func (c *Config) ResolveTier(g *graph.Graph, tier Tier, useIEP bool) Tier {
	if c.cliqueQ > 0 && (tier == TierAuto || tier == TierGenerated) {
		return TierGenerated
	}
	return TierInterpret
}

// detectCliqueKernel decides at configuration-compile time whether the
// clique counter may substitute for this configuration: the relabeled
// pattern must be the complete graph K_q with MinClique ≤ q ≤ MaxClique,
// and the restriction windows' transitive closure must order every
// position pair exactly one way. Under a total order exactly one ordering
// of each clique passes the restrictions, so the counter's fixed
// descending order counts the same set — regardless of which total order
// the planner picked. (This also makes the substitution valid for k > maxIEPExactnessN,
// where the coset verification cannot run.)
func (c *Config) detectCliqueKernel(w restrict.Windows) {
	n := c.n
	if n < MinClique || n > MaxClique {
		return
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !c.relabeled.HasEdge(i, j) {
				return
			}
		}
	}
	if !w.TotalOrder() {
		return
	}
	c.cliqueQ = n
}
