package place

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tqec/internal/bridge"
	"tqec/internal/circuit"
	"tqec/internal/decompose"
	"tqec/internal/geom"
	"tqec/internal/icm"
	"tqec/internal/pdgraph"
	"tqec/internal/revlib"
	"tqec/internal/simplify"
)

func buildInput(t *testing.T, c *circuit.Circuit, dualOnly bool) *Input {
	t.Helper()
	rep, err := icm.FromCliffordT(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pdgraph.New(rep)
	if err != nil {
		t.Fatal(err)
	}
	s := simplify.Run(g, simplify.Options{Disabled: dualOnly})
	var p *bridge.PrimalResult
	if dualOnly {
		p = bridge.Singletons(s)
	} else {
		p = bridge.Primal(s, nil)
	}
	d := bridge.DualContext(context.Background(), s)
	in, err := BuildItems(g, s, p, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func threeCNOT(t *testing.T, dualOnly bool) *Input {
	t.Helper()
	c, err := revlib.ParseString(revlib.Samples["threecnot"])
	if err != nil {
		t.Fatal(err)
	}
	return buildInput(t, c, dualOnly)
}

func TestThreeCNOTSingleChainItem(t *testing.T) {
	in := threeCNOT(t, false)
	if len(in.Items) != 1 {
		t.Fatalf("items = %d, want 1 (all groups in one chain)", len(in.Items))
	}
	it := in.Items[0]
	if it.Kind != KindChain {
		t.Fatalf("kind = %v", it.Kind)
	}
	// Chain of 3 groups, widest group 2 modules, laid along y:
	// (2+m)×(3+m)×(1+m).
	if it.W != 2+Margin || it.H != 3+Margin || it.D != 1+Margin {
		t.Fatalf("dims = %d×%d×%d", it.W, it.H, it.D)
	}
	// 2 dual components with pins on the single item.
	if len(in.Nets) != 2 {
		t.Fatalf("nets = %d, want 2", len(in.Nets))
	}
}

func TestDualOnlyItemPerModuleGroup(t *testing.T) {
	in := threeCNOT(t, true)
	if len(in.Items) != 6 {
		t.Fatalf("items = %d, want 6 (one per module)", len(in.Items))
	}
	for _, it := range in.Items {
		if it.Kind != KindChain || len(it.Chain) != 1 {
			t.Fatalf("baseline item shape: %+v", it)
		}
	}
}

func TestFlipBitAlternates(t *testing.T) {
	// eq. (5): f0 = 0, f_current = 1 − f_source.
	want := []bool{false, true, false, true, false}
	for i, w := range want {
		if FlipBit(i) != w {
			t.Fatalf("FlipBit(%d) = %v, want %v", i, FlipBit(i), w)
		}
	}
}

func TestPinFlipPlanning(t *testing.T) {
	in := threeCNOT(t, false)
	// Pins on chain index 1 (middle group) must be flipped.
	seen := false
	for _, pins := range in.Nets {
		for _, p := range pins {
			if p.DY == 1 && !p.Flip {
				t.Fatalf("pin at chain index 1 not flipped: %+v", p)
			}
			if p.DY == 0 && p.Flip {
				t.Fatalf("pin at chain index 0 flipped: %+v", p)
			}
			seen = true
		}
	}
	if !seen {
		t.Fatal("no pins built")
	}
}

func TestBoxesBuiltWithOrdering(t *testing.T) {
	c := circuit.New("t", 1)
	c.AppendNew(circuit.T, 0)
	in := buildInput(t, c, false)
	boxes := 0
	var yDims, aDims bool
	for _, it := range in.Items {
		if it.Kind != KindBox {
			continue
		}
		boxes++
		if it.FeedsItem < 0 || in.Items[it.FeedsItem].Kind != KindChain {
			t.Fatalf("box %d feeds %d", it.ID, it.FeedsItem)
		}
		switch it.Box {
		case geom.BoxY:
			if it.W == 3 && it.H == 3 && it.D == 2 && it.Pad == 0 {
				yDims = true
			}
		case geom.BoxA:
			if it.W == 16 && it.H == 6 && it.D == 2 && it.Pad == 0 {
				aDims = true
			}
		}
	}
	if boxes != 3 { // 1 |A⟩ + 2 |Y⟩
		t.Fatalf("boxes = %d, want 3", boxes)
	}
	if !yDims || !aDims {
		t.Fatal("box dimensions wrong")
	}
}

func TestInterTOrderingBetweenItems(t *testing.T) {
	c := circuit.New("tt", 1)
	c.AppendNew(circuit.T, 0)
	c.AppendNew(circuit.T, 0)
	in := buildInput(t, c, true) // singletons force distinct anchor items
	found := false
	for _, e := range in.OrderEdges {
		if !e.Mutual && in.Items[e.Before].Kind == KindChain && in.Items[e.After].Kind == KindChain {
			found = true
		}
	}
	if !found {
		t.Fatal("no inter-T chain ordering recorded")
	}
}

func TestRunThreeCNOTFullVolume(t *testing.T) {
	in := threeCNOT(t, false)
	res, err := Run(in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckLegal(); err != nil {
		t.Fatal(err)
	}
	// A single chain item: volume = its own extent (2+1)×(1+1)×(3+1) = 24;
	// stripping the shared margin in compress reporting yields the paper's
	// 2×1×3. Here just check the placement is the item itself.
	if res.Volume != in.Items[0].W*in.Items[0].H*in.Items[0].D {
		t.Fatalf("volume = %d", res.Volume)
	}
	if res.Order != 0 {
		t.Fatalf("ordering penalty = %f", res.Order)
	}
}

func TestRunDualOnlyLargerThanFull(t *testing.T) {
	full := threeCNOT(t, false)
	base := threeCNOT(t, true)
	rf, err := Run(full, Options{Seed: 7, MaxMoves: 4000})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(base, Options{Seed: 7, MaxMoves: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Volume < rf.Volume {
		t.Fatalf("dual-only volume %d beat full pipeline %d", rb.Volume, rf.Volume)
	}
	if err := rb.CheckLegal(); err != nil {
		t.Fatal(err)
	}
}

func TestRunRandomCircuitsLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		c := circuit.Random(rng, 4, 12)
		res, err := decompose.ToCliffordT(c)
		if err != nil {
			t.Fatal(err)
		}
		in := buildInput(t, res.Circuit, trial%2 == 0)
		r, err := Run(in, Options{Seed: int64(trial), MaxMoves: 3000})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.CheckLegal(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r.Volume <= 0 {
			t.Fatalf("trial %d: volume %d", trial, r.Volume)
		}
		// Every pin must resolve to a position inside the overall box.
		for _, pins := range in.Nets {
			for _, p := range pins {
				x, y, z := r.PinPosition(p)
				if x < 0 || y < 0 || z < 0 || x > r.NX || y > r.NY || z > r.NZ {
					t.Fatalf("trial %d: pin out of box: %d,%d,%d", trial, x, y, z)
				}
			}
		}
	}
}

func TestPlacementDeterministic(t *testing.T) {
	in1 := threeCNOT(t, true)
	in2 := threeCNOT(t, true)
	r1, err := Run(in1, Options{Seed: 5, MaxMoves: 2000})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(in2, Options{Seed: 5, MaxMoves: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Volume != r2.Volume || r1.HPWL != r2.HPWL {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", r1.Volume, r1.HPWL, r2.Volume, r2.HPWL)
	}
}

func TestBuildItemsRejectsNil(t *testing.T) {
	if _, err := BuildItems(nil, nil, nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
}

func TestValidateCatchesBadItems(t *testing.T) {
	in := threeCNOT(t, false)
	in.Items[0].W = 0
	if err := in.Validate(); err == nil {
		t.Fatal("empty extent accepted")
	}
	in = threeCNOT(t, false)
	in.OrderEdges = append(in.OrderEdges, OrderEdge{Before: 99, After: 0})
	if err := in.Validate(); err == nil {
		t.Fatal("dangling order edge accepted")
	}
	in = threeCNOT(t, false)
	in.Nets[0] = append(in.Nets[0][:0:0], Pin{Item: 42})
	if err := in.Validate(); err == nil {
		t.Fatal("dangling pin accepted")
	}
}

func TestKindString(t *testing.T) {
	if KindChain.String() != "chain" || KindBox.String() != "box" {
		t.Fatal("kind names")
	}
}

func TestPinPosRotation(t *testing.T) {
	item := Item{ID: 0, Kind: KindChain, W: 4, H: 2, D: 2, Pad: 1, Chain: []int{0, 1, 2}}
	pos := []Placed{{Item: &item, X: 10, Y: 20, Z: 5, W: 4, H: 2, D: 2}}
	pin := Pin{Item: 0, DX: 2, DY: 1, Flip: false}

	x, y, z := pinPos(pos, &pin)
	if x != 12 || y != 21 || z != 5 {
		t.Fatalf("unrotated pin at %d,%d,%d", x, y, z)
	}
	// Flip exits on the far z side (D − Pad).
	pin.Flip = true
	if _, _, z = pinPos(pos, &pin); z != 5+2-1 {
		t.Fatalf("flipped z = %d", z)
	}
	// Rotation swaps the in-plane offsets.
	pos[0].Rotated = true
	pos[0].W, pos[0].H = 2, 4
	pin.Flip = false
	x, y, z = pinPos(pos, &pin)
	if x != 10+1 || y != 20+2 || z != 5 {
		t.Fatalf("rotated pin at %d,%d,%d", x, y, z)
	}
}

func TestOrderEdgesDerivedFromConstraints(t *testing.T) {
	// Two chained T gadgets: the intra- and inter-T rail constraints must
	// lift to at least one cross-item OrderEdge under singletons.
	c := circuit.New("edges", 1)
	c.AppendNew(circuit.T, 0)
	c.AppendNew(circuit.T, 0)
	in := buildInput(t, c, true)
	checkOrderEdges(t, in)
	if len(in.OrderEdges) == 0 {
		t.Fatal("no order edges derived")
	}
	// toffoli3's primal chains contract rails measured in both orders
	// into one item pair, so some of its edges are mutual.
	tof, err := revlib.ParseString(revlib.Samples["toffoli3"])
	if err != nil {
		t.Fatal(err)
	}
	low, err := decompose.ToCliffordT(tof)
	if err != nil {
		t.Fatal(err)
	}
	if checkOrderEdges(t, buildInput(t, low.Circuit, false)) == 0 {
		t.Fatal("toffoli3 lifted no mutual edge")
	}
}

// checkOrderEdges asserts that in.RailItem holds each rail's measurement
// group and in.OrderEdges is exactly the set of cross-item lifts of the
// ICM constraints, sorted by (Before, After) without duplicates, with
// Mutual set exactly when the reverse edge is lifted too. It returns the
// number of mutual edges.
func checkOrderEdges(t *testing.T, in *Input) (mutual int) {
	t.Helper()
	for rail, id := range in.RailItem {
		row := in.Graph.Rows[rail]
		if grp := in.Simpl.GroupOf(row[len(row)-1]); !slices.Contains(in.Items[id].Chain, grp) {
			t.Fatalf("rail %d lifted to item %d, which does not hold its measurement group %d", rail, id, grp)
		}
	}
	lifted := map[[2]int]bool{}
	for _, cst := range in.Graph.Source.Constraints {
		if a, b := in.RailItem[cst.Before], in.RailItem[cst.After]; a != b {
			lifted[[2]int{a, b}] = true
		}
	}
	if len(in.OrderEdges) != len(lifted) {
		t.Fatalf("%d edges for %d lifted pairs", len(in.OrderEdges), len(lifted))
	}
	for i, e := range in.OrderEdges {
		if !lifted[[2]int{e.Before, e.After}] {
			t.Fatalf("edge %+v lifts no constraint", e)
		}
		if rev := lifted[[2]int{e.After, e.Before}]; e.Mutual != rev {
			t.Fatalf("edge %+v: Mutual = %v, reverse lifted = %v", e, e.Mutual, rev)
		}
		if e.Mutual {
			mutual++
		}
		if i > 0 {
			p := in.OrderEdges[i-1]
			if p.Before > e.Before || (p.Before == e.Before && p.After >= e.After) {
				t.Fatalf("edges not sorted/unique at %d: %+v then %+v", i, p, e)
			}
		}
	}
	return mutual
}

func TestBuildItemsNamesUnliftableRail(t *testing.T) {
	// Drop the chain holding the last rail's measurement group: that
	// rail's measurement then lies on no item, and the lift must say so
	// instead of ordering it as item 0.
	c, err := revlib.ParseString(revlib.Samples["threecnot"])
	if err != nil {
		t.Fatal(err)
	}
	rep, err := icm.FromCliffordT(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pdgraph.New(rep)
	if err != nil {
		t.Fatal(err)
	}
	s := simplify.Run(g, simplify.Options{Disabled: true})
	p := bridge.Singletons(s)
	d := bridge.DualContext(context.Background(), s)

	measured := func(rail int) int {
		row := g.Rows[rail]
		return s.GroupOf(row[len(row)-1])
	}
	last := len(rep.Rails) - 1
	drop, _, ok := p.ChainOf(measured(last))
	if !ok {
		t.Fatalf("rail %d's measurement group is in no chain", last)
	}
	// The lift walks rails in ID order, so it stops at the first rail
	// measured in the dropped chain.
	want := last
	for rail := range rep.Rails {
		if ch, _, _ := p.ChainOf(measured(rail)); ch == drop {
			want = rail
			break
		}
	}
	cut := *p
	cut.Chains = append(append([]bridge.Chain(nil), p.Chains[:drop]...), p.Chains[drop+1:]...)
	_, err = BuildItems(g, s, &cut, d)
	if err == nil {
		t.Fatal("rail measured on no item was lifted")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("rail %d ", want)) {
		t.Fatalf("error %q does not name rail %d", err, want)
	}
}
