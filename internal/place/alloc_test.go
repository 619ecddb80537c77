package place_test

import (
	"math/rand"
	"testing"

	"tqec/internal/compress"
	"tqec/internal/place"
)

// TestSAMoveAllocations guards the annealer's inner loop on 4gt10: once
// the buffers have grown, a move allocates at most its undo closure,
// whether it is rejected, kept as the new best, or a migration. Intra-slab
// moves repack into the slab's own slices, migrations set the slab aside
// in storage it owns, the cost cache logs into reused slices, and
// SaveBest overwrites the one saved copy in place.
func TestSAMoveAllocations(t *testing.T) {
	p := place.NewProblem(pipelineInput(t, "4gt10-v1_81", compress.Full))
	rng := rand.New(rand.NewSource(1))
	p.Cost()
	p.SaveBest()
	perturb := func() func() {
		for {
			if undo := p.Perturb(rng); undo != nil {
				return undo
			}
		}
	}
	moves := []struct {
		name string
		move func()
	}{
		{"rejected move", func() {
			undo := perturb()
			p.Cost()
			undo()
		}},
		{"best-improving move", func() {
			perturb()
			p.Cost()
			p.SaveBest()
		}},
		{"rejected migration", func() {
			if undo := p.Migrate(rng); undo != nil {
				p.Cost()
				undo()
			}
		}},
	}
	for i := 0; i < 3000; i++ {
		for _, m := range moves {
			m.move()
		}
	}
	for _, m := range moves {
		if allocs := testing.AllocsPerRun(2000, m.move); allocs > 1 {
			t.Errorf("one %s made %.0f allocations, want at most its undo closure", m.name, allocs)
		}
	}
}

// BenchmarkSAMove measures one annealing move on rd84's 1378 items: a
// Perturb, the incremental Cost and, for two moves in three, the undo.
// ns/op is ns per move.
func BenchmarkSAMove(b *testing.B) {
	p := place.NewProblem(pipelineInput(b, "rd84_142", compress.Full))
	rng := rand.New(rand.NewSource(1))
	p.Cost()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		undo := p.Perturb(rng)
		for undo == nil {
			undo = p.Perturb(rng)
		}
		p.Cost()
		if i%3 != 0 {
			undo()
		}
	}
}
