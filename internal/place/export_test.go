package place

import (
	"fmt"
	"math/rand"
)

// Problem is the annealing state, exported to the external tests.
type Problem = problem

// NewProblem exposes the annealing state to the external tests.
func NewProblem(in *Input) *Problem { return newProblem(in) }

// Migrate applies the cross-slab move Perturb picks for 30% of its moves.
func (p *problem) Migrate(rng *rand.Rand) func() { return p.migrate(rng) }

// CheckCache is the incremental cost's oracle. It sums the cost from
// scratch into a position buffer of its own, so it neither reads nor
// repairs the cache, checks the cache against that sum (every position,
// slab offset, term value and sum) and returns the cost. The cache must
// be current: call it after Cost, an undo or RestoreBest, not between a
// Perturb and its Cost.
func (p *problem) CheckCache() (float64, error) {
	pos := p.newPositions()
	p.writePositions(pos)
	for i := range pos {
		if pos[i] != p.pos[i] {
			return 0, fmt.Errorf("item %d cached at %+v, from scratch %+v", i, p.pos[i], pos[i])
		}
	}
	z := 0
	for li, l := range p.layers {
		if len(l.items) == 0 {
			continue
		}
		if l.z != z {
			return 0, fmt.Errorf("slab %d cached at z %d, from scratch %d", li, l.z, z)
		}
		z += l.depth
	}
	var s sums
	for i := range p.terms {
		t := &p.terms[i]
		v := p.eval(pos, t)
		if v != t.val {
			return 0, fmt.Errorf("term %d (kind %d) cached %d, from scratch %d", i, t.kind, t.val, v)
		}
		s[t.kind] += v
	}
	if s != p.sum {
		return 0, fmt.Errorf("sums cached %v, from scratch %v", p.sum, s)
	}
	nx, ny, nz := p.dims()
	return cost(nx*ny*nz, &s), nil
}
