package btree

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func blocks(dims ...[2]int) []Block {
	out := make([]Block, len(dims))
	for i, d := range dims {
		out[i] = Block{ID: i, W: d[0], H: d[1], Rotatable: true}
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	pl, w, h := tr.Pack(nil)
	if len(pl) != 0 || w != 0 || h != 0 {
		t.Fatal("empty tree must pack to nothing")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Perturb(rand.New(rand.NewSource(1))) {
		t.Fatal("perturbing a tiny tree must be a no-op")
	}
}

func TestChainPacksToRow(t *testing.T) {
	tr := New(blocks([2]int{2, 3}, [2]int{4, 1}, [2]int{1, 5}))
	pl, w, h := tr.Pack(nil)
	if w != 7 || h != 5 {
		t.Fatalf("row dims = %d×%d, want 7×5", w, h)
	}
	if pl[0].X != 0 || pl[1].X != 2 || pl[2].X != 6 {
		t.Fatalf("row xs: %+v", pl)
	}
	for i, p := range pl {
		if p.Y != 0 {
			t.Fatalf("block %d not on the floor: %+v", i, p)
		}
	}
	if err := CheckNoOverlap(pl); err != nil {
		t.Fatal(err)
	}
}

func TestRightChildStacks(t *testing.T) {
	tr := New(blocks([2]int{4, 2}, [2]int{3, 3}))
	// Rewire: 1 as right child of 0 (above it).
	if !tr.Move(1, 0, 1) {
		t.Fatal("move failed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	pl, w, h := tr.Pack(nil)
	if pl[1].X != 0 || pl[1].Y != 2 {
		t.Fatalf("stacked block at %+v", pl[1])
	}
	if w != 4 || h != 5 {
		t.Fatalf("dims %d×%d, want 4×5", w, h)
	}
}

func TestContourRises(t *testing.T) {
	// A tall block followed by a wide one placed above two shorter ones.
	tr := New(blocks([2]int{2, 4}, [2]int{2, 1}, [2]int{4, 1}))
	// Shape: 0 -> left 1; 0 -> right 2. Node 2 spans x[0,4): above both.
	if !tr.Move(2, 0, 1) {
		t.Fatal("move failed")
	}
	pl, _, _ := tr.Pack(nil)
	// Block 2 at x=0 width 4 overlaps columns of block 0 (h=4) and block 1
	// (h=1): contour forces y=4.
	if pl[2].Y != 4 {
		t.Fatalf("block 2 y = %d, want 4 (%+v)", pl[2].Y, pl)
	}
	if err := CheckNoOverlap(pl); err != nil {
		t.Fatal(err)
	}
}

func TestRotate(t *testing.T) {
	tr := New(blocks([2]int{5, 1}))
	if !tr.Rotate(0) {
		t.Fatal("rotatable block refused")
	}
	pl, w, h := tr.Pack(nil)
	if w != 1 || h != 5 || !pl[0].Rotated {
		t.Fatalf("rotation not applied: %d×%d %+v", w, h, pl[0])
	}
	fixed := New([]Block{{ID: 0, W: 5, H: 1, Rotatable: false}})
	if fixed.Rotate(0) {
		t.Fatal("non-rotatable block rotated")
	}
}

func TestSwap(t *testing.T) {
	tr := New(blocks([2]int{2, 2}, [2]int{6, 1}))
	tr.Swap(0, 1)
	pl, _, _ := tr.Pack(nil)
	// Position 0 (tree slot) now holds block ID 1.
	if tr.Blocks[0].ID != 1 || pl[0].W != 6 {
		t.Fatalf("swap broken: %+v %+v", tr.Blocks, pl)
	}
	tr.Swap(1, 1) // no-op
	if tr.Blocks[1].ID != 0 {
		t.Fatal("self-swap changed state")
	}
}

func TestMoveRejectsCycles(t *testing.T) {
	tr := New(blocks([2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}))
	if tr.Move(0, 2, 0) {
		t.Fatal("moving an ancestor under its descendant must fail")
	}
	if tr.Move(1, 1, 0) {
		t.Fatal("self-move must fail")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	tr := New(blocks([2]int{2, 3}, [2]int{4, 1}, [2]int{1, 5}, [2]int{2, 2}))
	snap := tr.Snapshot()
	// Both packs share one buffer: the first is copied out, or the
	// comparison would read the second pack twice.
	buf, _, _ := tr.Pack(nil)
	before := slices.Clone(buf)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		tr.Perturb(rng)
	}
	tr.Restore(snap)
	after, _, _ := tr.Pack(buf)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("restore mismatch at %d: %+v vs %+v", i, before[i], after[i])
		}
	}
}

func TestPerturbUndo(t *testing.T) {
	tr := New(blocks([2]int{2, 3}, [2]int{4, 1}, [2]int{1, 5}, [2]int{2, 2}, [2]int{3, 3}))
	rng := rand.New(rand.NewSource(11))
	var buf, before []Placement
	for i := 0; i < 300; i++ {
		buf, _, _ = tr.Pack(buf)
		before = append(before[:0], buf...)
		if !tr.Perturb(rng) {
			continue
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("iter %d: invalid after perturb: %v", i, err)
		}
		tr.Undo()
		if err := tr.Validate(); err != nil {
			t.Fatalf("iter %d: invalid after undo: %v", i, err)
		}
		after, _, _ := tr.Pack(buf)
		for j := range before {
			if before[j] != after[j] {
				t.Fatalf("iter %d: undo did not restore packing", i)
			}
		}
	}
}

func TestQuickPackNeverOverlaps(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cnt := 2 + int(n%12)
		var bl []Block
		for i := 0; i < cnt; i++ {
			bl = append(bl, Block{ID: i, W: 1 + rng.Intn(6), H: 1 + rng.Intn(6), Rotatable: rng.Intn(2) == 0})
		}
		tr := New(bl)
		for i := 0; i < 60; i++ {
			tr.Perturb(rng)
		}
		if tr.Validate() != nil {
			return false
		}
		pl, w, h := tr.Pack(nil)
		if CheckNoOverlap(pl) != nil {
			return false
		}
		// Bounding box must contain every block and area must fit.
		area := 0
		for _, p := range pl {
			if p.X < 0 || p.Y < 0 || p.X+p.W > w || p.Y+p.H > h {
				return false
			}
			area += p.W * p.H
		}
		return area <= w*h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNoOverlapDetects(t *testing.T) {
	pl := []Placement{{X: 0, Y: 0, W: 3, H: 3}, {X: 2, Y: 2, W: 3, H: 3}}
	if err := CheckNoOverlap(pl); err == nil {
		t.Fatal("overlap not detected")
	}
	pl[1].X = 3
	if err := CheckNoOverlap(pl); err != nil {
		t.Fatalf("touching placements flagged: %v", err)
	}
}

func TestNewGridShapes(t *testing.T) {
	// Tiny inputs fall back to the chain.
	tr := NewGrid(blocks([2]int{2, 2}, [2]int{2, 2}))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// A grid over identical blocks packs near-square.
	var bl []Block
	for i := 0; i < 16; i++ {
		bl = append(bl, Block{ID: i, W: 2, H: 2})
	}
	tr = NewGrid(bl)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	pl, w, h := tr.Pack(nil)
	if err := CheckNoOverlap(pl); err != nil {
		t.Fatal(err)
	}
	// 16 blocks of 2×2 = 64 area; near-square means neither dimension
	// exceeds ~3× the other.
	if w > 3*h || h > 3*w {
		t.Fatalf("grid init badly proportioned: %d×%d", w, h)
	}
	// A block wider than the computed target still fits (target clamps).
	wide := append(bl, Block{ID: 16, W: 40, H: 1})
	tr = NewGrid(wide)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if NewGrid(nil).Len() != 0 {
		t.Fatal("empty grid tree")
	}
}

func TestFromSnapshot(t *testing.T) {
	tr := NewGrid(blocks([2]int{2, 3}, [2]int{4, 1}, [2]int{1, 5}))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		tr.Perturb(rng)
	}
	snap := tr.Snapshot()
	clone := FromSnapshot(snap)
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
	buf, w1, h1 := tr.Pack(nil)
	p1 := slices.Clone(buf)
	p2, w2, h2 := clone.Pack(buf)
	if w1 != w2 || h1 != h2 {
		t.Fatalf("clone dims differ: %dx%d vs %dx%d", w1, h1, w2, h2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("clone placement %d differs", i)
		}
	}
	// Clone is independent.
	clone.Swap(0, 1)
	p1b, _, _ := tr.Pack(nil)
	if p1b[0] != p1[0] {
		t.Fatal("clone aliases original")
	}
}

func TestMoveAllSidesAndDetachShapes(t *testing.T) {
	// Exercise detach with two children, right-only child, and leaf.
	tr := New(blocks([2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}))
	// Build: 0 left->1, 0 right->2, 1 left->3, 1 right->4 via moves.
	if !tr.Move(2, 0, 1) || !tr.Move(4, 1, 1) {
		t.Fatal("setup moves failed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Detach an inner node with both children (node 1).
	if !tr.Move(1, 2, 0) {
		t.Fatal("move of two-child node failed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Build a right-only-child node and detach it.
	tr2 := New(blocks([2]int{1, 1}, [2]int{1, 1}, [2]int{1, 1}))
	if !tr2.Move(1, 0, 1) || !tr2.Move(2, 1, 1) {
		t.Fatal("setup failed")
	}
	// Node 1 now has only a right child (2); moving it exercises the
	// right-only detach path (2 splices into the root's right slot).
	if !tr2.Move(1, 0, 0) {
		t.Fatal("right-only detach failed")
	}
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Moving the root under its own descendant must be rejected.
	if tr2.Move(tr2.root, 1, 0) {
		t.Fatal("root moved under descendant")
	}
	pl, _, _ := tr.Pack(nil)
	if err := CheckNoOverlap(pl); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGridTreesSurvivePerturbStorm(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cnt := 3 + int(n%20)
		var bl []Block
		for i := 0; i < cnt; i++ {
			bl = append(bl, Block{ID: i, W: 1 + rng.Intn(10), H: 1 + rng.Intn(10), Rotatable: rng.Intn(2) == 0})
		}
		tr := NewGrid(bl)
		for i := 0; i < 80; i++ {
			if tr.Perturb(rng) && rng.Intn(3) == 0 {
				tr.Undo()
			}
		}
		if tr.Validate() != nil {
			return false
		}
		pl, _, _ := tr.Pack(nil)
		return CheckNoOverlap(pl) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPackAllocations guards Pack's reused scratch: once the tree's
// contour and the caller's placement slice have grown, packing a
// perturbed tree allocates nothing, however many blocks there are.
func TestPackAllocations(t *testing.T) {
	for _, n := range []int{100, 1000} {
		tr := NewGrid(randomBlocks(n, 1))
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 4*n; i++ {
			tr.Perturb(rng)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		pl, _, _ := tr.Pack(nil)
		allocs := testing.AllocsPerRun(10, func() { pl, _, _ = tr.Pack(pl) })
		if allocs != 0 {
			t.Fatalf("%d blocks: Pack into a reused slice made %.0f allocations, want 0", n, allocs)
		}
	}
}
