package anneal

import (
	"math"
	"math/rand"
	"testing"

	"tqec/internal/btree"
)

// quadratic is a toy problem: minimize Σ (x_i − target_i)².
type quadratic struct {
	x, target []float64
}

func (q *quadratic) Cost() float64 {
	c := 0.0
	for i := range q.x {
		d := q.x[i] - q.target[i]
		c += d * d
	}
	return c
}

func (q *quadratic) Perturb(rng *rand.Rand) func() {
	i := rng.Intn(len(q.x))
	old := q.x[i]
	q.x[i] += rng.NormFloat64()
	return func() { q.x[i] = old }
}

func (q *quadratic) Snapshot() any { return append([]float64(nil), q.x...) }

func (q *quadratic) Restore(s any) { copy(q.x, s.([]float64)) }

func TestAnnealImprovesQuadratic(t *testing.T) {
	q := &quadratic{x: []float64{10, -8, 5}, target: []float64{0, 0, 0}}
	initial := q.Cost()
	res := Run(q, Options{Seed: 1, MaxMoves: 20000})
	if res.InitialCost != initial {
		t.Fatalf("initial cost recorded as %f, want %f", res.InitialCost, initial)
	}
	if res.BestCost >= initial {
		t.Fatalf("no improvement: %f -> %f", initial, res.BestCost)
	}
	if res.BestCost > 1.0 {
		t.Fatalf("best cost %f too far from optimum", res.BestCost)
	}
	// Final state equals the best snapshot.
	if math.Abs(q.Cost()-res.BestCost) > 1e-9 {
		t.Fatalf("state cost %f != best %f", q.Cost(), res.BestCost)
	}
}

func TestBestNeverWorseThanInitial(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		q := &quadratic{x: []float64{1, 2}, target: []float64{1, 2}} // already optimal
		res := Run(q, Options{Seed: seed, MaxMoves: 500})
		if res.BestCost > res.InitialCost {
			t.Fatalf("seed %d: best %f worse than initial %f", seed, res.BestCost, res.InitialCost)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() Result {
		q := &quadratic{x: []float64{5, 5, 5, 5}, target: []float64{1, 2, 3, 4}}
		return Run(q, Options{Seed: 42, MaxMoves: 2000})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestMoveBudgetRespected(t *testing.T) {
	q := &quadratic{x: []float64{100}, target: []float64{0}}
	res := Run(q, Options{Seed: 3, MaxMoves: 17})
	if res.Moves > 17 {
		t.Fatalf("moves = %d, budget 17", res.Moves)
	}
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

// nilMover always declines to move; Run must terminate.
type nilMover struct{}

func (nilMover) Cost() float64             { return 1 }
func (nilMover) Perturb(*rand.Rand) func() { return nil }
func (nilMover) Snapshot() any             { return nil }
func (nilMover) Restore(any)               {}

func TestAllNoOpMovesTerminates(t *testing.T) {
	res := Run(nilMover{}, Options{Seed: 1, MaxMoves: 100})
	if res.Moves != 0 {
		t.Fatalf("no-op moves counted: %d", res.Moves)
	}
}

func TestAnnealBTreeArea(t *testing.T) {
	blocks := []btree.Block{
		{ID: 0, W: 4, H: 2, Rotatable: true},
		{ID: 1, W: 2, H: 4, Rotatable: true},
		{ID: 2, W: 3, H: 3, Rotatable: true},
		{ID: 3, W: 1, H: 6, Rotatable: true},
		{ID: 4, W: 2, H: 2, Rotatable: true},
	}
	tr := btree.New(blocks)
	p := &treeProblem{tree: tr}
	initial := p.Cost()
	res := Run(p, Options{Seed: 9, MaxMoves: 8000})
	if res.BestCost > initial {
		t.Fatalf("area regressed: %f -> %f", initial, res.BestCost)
	}
	pl, _, _ := tr.Pack(nil)
	if err := btree.CheckNoOverlap(pl); err != nil {
		t.Fatalf("final floorplan overlaps: %v", err)
	}
	// Area lower bound: sum of block areas = 8+8+9+6+4 = 35.
	if res.BestCost < 35 {
		t.Fatalf("impossible area %f", res.BestCost)
	}
}

// treeProblem anneals a real B*-tree on area: an integration check
// between the two packages.
type treeProblem struct{ tree *btree.Tree }

func (p *treeProblem) Cost() float64 {
	_, w, h := p.tree.Pack(nil)
	return float64(w * h)
}
func (p *treeProblem) Perturb(rng *rand.Rand) func() {
	if !p.tree.Perturb(rng) {
		return nil
	}
	return p.tree.Undo
}
func (p *treeProblem) Snapshot() any { return p.tree.Snapshot() }
func (p *treeProblem) Restore(s any) { p.tree.Restore(s.(btree.Snapshot)) }
