package place_test

import (
	"context"
	"math/rand"
	"testing"

	"tqec/internal/bench"
	"tqec/internal/bridge"
	"tqec/internal/pdgraph"
	"tqec/internal/place"
	"tqec/internal/simplify"
)

// TestSAMoveAllocations guards the annealer's inner loop on 4gt10: once
// the layers' buffers have grown, one move (Perturb, Cost and the undo)
// allocates at most its undo closure. Intra-layer moves repack into the
// layer's own slices, and migrations set the layer aside in storage it
// owns.
func TestSAMoveAllocations(t *testing.T) {
	spec, ok := bench.ByName("4gt10-v1_81")
	if !ok {
		t.Fatal("no 4gt10-v1_81 spec")
	}
	rep, _, err := spec.GenerateICM(1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pdgraph.New(rep)
	if err != nil {
		t.Fatal(err)
	}
	s := simplify.Run(g, simplify.Options{})
	in, err := place.BuildItems(g, s, bridge.Primal(s, nil), bridge.DualContext(context.Background(), s))
	if err != nil {
		t.Fatal(err)
	}
	p := place.NewProblem(in)
	rng := rand.New(rand.NewSource(1))
	move := func() {
		for {
			if undo := p.Perturb(rng); undo != nil {
				p.Cost()
				undo()
				return
			}
		}
	}
	for i := 0; i < 5000; i++ {
		move()
	}
	if allocs := testing.AllocsPerRun(2000, move); allocs > 1 {
		t.Fatalf("one SA move made %.0f allocations, want at most its undo closure", allocs)
	}
}
