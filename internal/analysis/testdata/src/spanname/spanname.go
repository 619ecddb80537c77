// Package spanname is a tqec-vet fixture: span names passed to
// obs.StartSpan and (*obs.Span).StartChild, and warning codes passed to
// obs.Warn, must be lowercase-hyphen
// literals from the DESIGN §9 taxonomy, taxonomy-prefixed dynamic names
// ("drc:" + x, Sprintf("seed-%d", …)), or parameters of a local wrapper
// whose call sites satisfy the same rule. Tracer roots (obs.NewTracer)
// are exempt.
package spanname

import (
	"context"
	"fmt"

	"tqec/internal/obs"
)

func Literals(ctx context.Context, root *obs.Span) {
	root.StartChild("dispatch")
	root.StartChild("primal-bridge")
	root.StartChild("route-round")
	root.StartChild("Dispatch")    // want "does not match the taxonomy"
	root.StartChild("route_round") // want "does not match the taxonomy"
	root.StartChild("-leading")    // want "does not match the taxonomy"
	obs.StartSpan(ctx, "anneal-epoch")
	obs.StartSpan(ctx, "annealEpoch") // want "does not match the taxonomy"
	obs.Warn(ctx, "route-overflow", "3 cells still shared")
	obs.Warn(ctx, "RouteOverflow", "3 cells still shared") // want "does not match the taxonomy"
}

func Dynamic(ctx context.Context, root *obs.Span, stage string, seed int) {
	root.StartChild("drc:" + stage)
	root.StartChild(stage + "-drc") // want "must start with a taxonomy string-literal prefix"
	root.StartChild("DRC:" + stage) // want "must be lowercase-hyphen ending"
	obs.StartSpan(ctx, fmt.Sprintf("seed-%d", seed))
	obs.StartSpan(ctx, fmt.Sprintf("Seed-%d", seed)) // want "must be lowercase-hyphen ending"
	obs.StartSpan(ctx, fmt.Sprintf("%d-seed", seed)) // want "must be lowercase-hyphen ending"
}

// begin mirrors the internal/compress stage-begin closure: the span name
// flows through a wrapper parameter, so the wrapper's call sites are
// what the analyzer judges.
func Wrapper(root *obs.Span) {
	begin := func(stage string) *obs.Span {
		return root.StartChild(stage)
	}
	begin("pdgraph")
	begin("dual-bridge")
	begin("BadStage") // want "does not match the taxonomy"
	s := "computed"
	begin(s) // want "span name must be a lowercase-hyphen string literal"
}

// beginDecl is a package-level wrapper: same rule, call sites judged.
func beginDecl(root *obs.Span, name string) *obs.Span {
	return root.StartChild(name)
}

func UsesDecl(root *obs.Span) {
	beginDecl(root, "geometry")
	beginDecl(root, "bad name") // want "does not match the taxonomy"
}

// Unresolvable passes a span-starting closure as a value, so its call
// sites cannot be enumerated; the flow itself is the finding.
func Unresolvable(root *obs.Span, run func(func(string))) {
	run(func(stage string) {
		root.StartChild(stage) // want "call sites cannot be resolved"
	})
}

// Roots are exempt: tracer roots carry job identity by design.
func Roots(id string) *obs.Tracer {
	return obs.NewTracer("job:" + id)
}
