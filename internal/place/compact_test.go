package place

import (
	"math/rand"
	"testing"

	"tqec/internal/circuit"
	"tqec/internal/decompose"
)

func TestCompactNeverGrowsAndStaysLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 5; trial++ {
		c := circuit.Random(rng, 4, 15)
		res, err := decompose.ToCliffordT(c)
		if err != nil {
			t.Fatal(err)
		}
		in := buildInput(t, res.Circuit, trial%2 == 0)
		r, err := Run(in, Options{Seed: int64(trial), MaxMoves: 2500})
		if err != nil {
			t.Fatal(err)
		}
		before := r.Volume
		violBefore := orderViolations(in, r)
		Compact(r)
		if r.Volume > before {
			t.Fatalf("trial %d: compaction grew volume %d -> %d", trial, before, r.Volume)
		}
		if err := r.CheckLegal(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Compaction must not create NEW ordering violations (pre-existing
		// residual SA violations may persist — compaction only moves items
		// toward the origin).
		after := orderViolations(in, r)
		if after > violBefore {
			t.Fatalf("trial %d: compaction created violations: %d -> %d", trial, violBefore, after)
		}
	}
}

func orderViolations(in *Input, r *Result) int {
	n := 0
	for _, e := range in.OrderEdges {
		a, b := r.Placed[e.Before], r.Placed[e.After]
		if !e.Mutual && a.Item != nil && b.Item != nil && a.X > b.X {
			n++
		}
	}
	return n
}

func TestCompactPullsFloatingItem(t *testing.T) {
	// Hand-build a placement with an item floating above another.
	items := []Item{
		{ID: 0, Kind: KindChain, W: 3, H: 2, D: 2, Pad: 1, Chain: []int{0}},
		{ID: 1, Kind: KindChain, W: 3, H: 2, D: 2, Pad: 1, Chain: []int{1}},
	}
	r := &Result{
		Input: &Input{Items: items},
		Placed: []Placed{
			{Item: &items[0], X: 0, Y: 0, Z: 0, W: 3, H: 2, D: 2},
			{Item: &items[1], X: 10, Y: 7, Z: 5, W: 3, H: 2, D: 2},
		},
	}
	moved := Compact(r)
	if moved == 0 {
		t.Fatal("nothing moved")
	}
	p := r.Placed[1]
	// The floating item lands against the origin: x=0, y=0, stacked on
	// item 0 in z (z=2), since the z=0 slot is occupied.
	if p.X != 0 || p.Y != 0 || p.Z != 2 {
		t.Fatalf("item 1 at %d,%d,%d", p.X, p.Y, p.Z)
	}
	if err := r.CheckLegal(); err != nil {
		t.Fatal(err)
	}
	if r.Volume != r.NX*r.NY*r.NZ {
		t.Fatal("volume not recomputed")
	}
	// Idempotent.
	if Compact(r) != 0 {
		t.Fatal("second compaction moved items")
	}
}

func TestCompactRespectsTimeOrder(t *testing.T) {
	items := []Item{
		{ID: 0, Kind: KindBox, W: 4, H: 2, D: 2},
		{ID: 1, Kind: KindChain, W: 2, H: 2, D: 2, Pad: 1, Chain: []int{0}},
	}
	r := &Result{
		Input: &Input{Items: items, OrderEdges: []OrderEdge{{Before: 0, After: 1}}},
		Placed: []Placed{
			{Item: &items[0], X: 3, Y: 0, Z: 0, W: 4, H: 2, D: 2},
			{Item: &items[1], X: 9, Y: 5, Z: 0, W: 2, H: 2, D: 2},
		},
	}
	Compact(r)
	a, b := r.Placed[0], r.Placed[1]
	if b.X < a.X {
		t.Fatalf("consumer at x=%d slid left of its box at x=%d", b.X, a.X)
	}
}
