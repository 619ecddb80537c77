package place

import "testing"

// legalizeFixture builds a Result with the given item boxes at their
// positions and the given ordering edges {before, after}.
func legalizeFixture(boxes [][6]int, edges [][2]int) *Result {
	in := &Input{}
	for _, e := range edges {
		in.OrderEdges = append(in.OrderEdges, OrderEdge{Before: e[0], After: e[1]})
	}
	r := &Result{Input: in}
	for i, b := range boxes {
		in.Items = append(in.Items, Item{ID: i, W: b[3], H: b[4], D: b[5]})
	}
	for i, b := range boxes {
		r.Placed = append(r.Placed, Placed{
			Item: &in.Items[i],
			X:    b[0], Y: b[1], Z: b[2],
			W: b[3], H: b[4], D: b[5],
		})
	}
	r.NX, r.NY, r.NZ = bounds(r)
	r.Volume = r.NX * r.NY * r.NZ
	return r
}

// violations counts ordering edges the placement still violates
// (before measured strictly after after, on either edge of the box).
func violations(r *Result) int {
	n := 0
	for _, e := range r.Input.OrderEdges {
		b, a := &r.Placed[e.Before], &r.Placed[e.After]
		if b.X > a.X || b.X+b.W > a.X+a.W {
			n++
		}
	}
	return n
}

func TestLegalizeSingletonPushesRight(t *testing.T) {
	// Item 1 must follow item 0, but sits strictly earlier.
	r := legalizeFixture([][6]int{
		{4, 0, 0, 2, 2, 2},
		{0, 0, 0, 2, 2, 2},
	}, [][2]int{{0, 1}})
	if moved := LegalizeOrder(r); moved != 1 {
		t.Fatalf("moved = %d", moved)
	}
	if violations(r) != 0 {
		t.Fatalf("order still violated: %+v", r.Placed)
	}
	if err := r.CheckLegal(); err != nil {
		t.Fatal(err)
	}
}

func TestLegalizeSlidesPastBlockers(t *testing.T) {
	// The naive floor for item 1 lands inside item 2; the push must
	// keep going right instead of creating an overlap.
	r := legalizeFixture([][6]int{
		{4, 0, 0, 2, 2, 2},
		{0, 0, 0, 2, 2, 2},
		{6, 0, 0, 3, 2, 2},
	}, [][2]int{{0, 1}})
	LegalizeOrder(r)
	if violations(r) != 0 {
		t.Fatalf("order still violated: %+v", r.Placed)
	}
	if err := r.CheckLegal(); err != nil {
		t.Fatal(err)
	}
}

func TestLegalizeCycleAlignsToCommonX(t *testing.T) {
	// A contradictory 2-cycle (each must precede the other) is
	// satisfiable only with both items at the same x: the audit's
	// inequality is strict.
	r := legalizeFixture([][6]int{
		{0, 0, 0, 2, 2, 2},
		{5, 4, 0, 2, 2, 2},
	}, [][2]int{{0, 1}, {1, 0}})
	LegalizeOrder(r)
	if r.Placed[0].X != r.Placed[1].X {
		t.Fatalf("cycle not aligned: x = %d, %d", r.Placed[0].X, r.Placed[1].X)
	}
	if violations(r) != 0 || r.CheckLegal() != nil {
		t.Fatalf("bad final placement: %+v", r.Placed)
	}
}

func TestLegalizeCycleRepacksCollidingMembers(t *testing.T) {
	// Cycle members overlap in y/z, so no common x exists where they
	// stand; the legalizer must move one sideways.
	r := legalizeFixture([][6]int{
		{0, 0, 0, 2, 2, 2},
		{5, 0, 0, 2, 2, 2},
	}, [][2]int{{0, 1}, {1, 0}})
	LegalizeOrder(r)
	if r.Placed[0].X != r.Placed[1].X {
		t.Fatalf("cycle not aligned: %+v", r.Placed)
	}
	if violations(r) != 0 || r.CheckLegal() != nil {
		t.Fatalf("bad final placement: %+v", r.Placed)
	}
}

func TestLegalizeChainRespectsTransitiveFloors(t *testing.T) {
	// 0 -> 1 -> 2 with all three at x=0 stacked in y: both successors
	// must move, and 2 must clear 1's new position, not its old one.
	r := legalizeFixture([][6]int{
		{0, 0, 0, 3, 2, 2},
		{0, 2, 0, 2, 2, 2},
		{0, 4, 0, 2, 2, 2},
	}, [][2]int{{0, 1}, {1, 2}})
	LegalizeOrder(r)
	if violations(r) != 0 || r.CheckLegal() != nil {
		t.Fatalf("bad final placement: %+v", r.Placed)
	}
}

func TestLegalizeLegalInputUntouched(t *testing.T) {
	r := legalizeFixture([][6]int{
		{0, 0, 0, 2, 2, 2},
		{2, 0, 0, 2, 2, 2},
	}, [][2]int{{0, 1}})
	if moved := LegalizeOrder(r); moved != 0 {
		t.Fatalf("legal placement modified: moved = %d", moved)
	}
	if r.Placed[0].X != 0 || r.Placed[1].X != 2 {
		t.Fatalf("positions changed: %+v", r.Placed)
	}
}

func TestLegalizeNilAndEmpty(t *testing.T) {
	if LegalizeOrder(nil) != 0 {
		t.Fatal("nil result moved items")
	}
	r := legalizeFixture([][6]int{{0, 0, 0, 2, 2, 2}}, nil)
	if LegalizeOrder(r) != 0 {
		t.Fatal("edge-free result moved items")
	}
}
