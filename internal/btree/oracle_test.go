package btree

import (
	"math/rand"
	"testing"
)

// packScan is the all-steps contour Pack replaced, kept as its oracle:
// the contour is an unordered list of steps, every insert scans all of
// them for the block's y, then rebuilds the list with the block's span
// raised to its top.
func packScan(t *Tree) (pl []Placement, width, height int) {
	n := len(t.Blocks)
	pl = make([]Placement, n)
	if t.root < 0 || n == 0 {
		return pl, 0, 0
	}
	type step struct{ x0, x1, y int }
	var contour []step
	type frame struct{ idx, x int }
	stack := []frame{{t.root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w, h := t.dims(f.idx)
		x0, x1 := f.x, f.x+w
		y := 0
		for _, s := range contour {
			if s.x1 > x0 && s.x0 < x1 && s.y > y {
				y = s.y
			}
		}
		pl[f.idx] = Placement{X: x0, Y: y, W: w, H: h, Rotated: t.nodes[f.idx].rotated}
		var next []step
		for _, s := range contour {
			if s.x1 <= x0 || s.x0 >= x1 {
				next = append(next, s)
				continue
			}
			if s.x0 < x0 {
				next = append(next, step{s.x0, x0, s.y})
			}
			if s.x1 > x1 {
				next = append(next, step{x1, s.x1, s.y})
			}
		}
		contour = append(next, step{x0, x1, y + h})
		width = max(width, x1)
		height = max(height, y+h)
		if r := t.nodes[f.idx].right; r >= 0 {
			stack = append(stack, frame{r, x0})
		}
		if l := t.nodes[f.idx].left; l >= 0 {
			stack = append(stack, frame{l, x1})
		}
	}
	return pl, width, height
}

// checkPackMatchesScan packs t into the reused buffer and compares every
// placement and both bounds with the oracle's.
func checkPackMatchesScan(t *testing.T, tr *Tree, buf []Placement) []Placement {
	t.Helper()
	got, gw, gh := tr.Pack(buf)
	want, ww, wh := packScan(tr)
	if gw != ww || gh != wh {
		t.Fatalf("bounds %d×%d, oracle %d×%d", gw, gh, ww, wh)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block %d at %+v, oracle %+v", i, got[i], want[i])
		}
	}
	return got
}

// TestPackMatchesScan checks the linked contour against the all-steps
// scan on random block sets, rotatable and fixed, after every move of a
// perturb storm with random undos.
func TestPackMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(60)
		bl := make([]Block, n)
		for i := range bl {
			bl[i] = Block{ID: i, W: 1 + rng.Intn(12), H: 1 + rng.Intn(12), Rotatable: rng.Intn(2) == 0}
		}
		tr := New(bl)
		if trial%2 == 0 {
			tr = NewGrid(bl)
		}
		var buf []Placement
		buf = checkPackMatchesScan(t, tr, buf)
		for move := 0; move < 200; move++ {
			if tr.Perturb(rng) && rng.Intn(4) == 0 {
				tr.Undo()
			}
			buf = checkPackMatchesScan(t, tr, buf)
		}
	}
}

// FuzzPackMatchesScan derives a block set and a perturb seed from the
// input and checks every pack of the storm against the oracle.
func FuzzPackMatchesScan(f *testing.F) {
	f.Add([]byte{3, 1, 2, 2, 3, 5, 1, 4, 4}, int64(1))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, int64(7))
	f.Add([]byte{16, 2, 1, 9, 7, 3, 12, 1, 8, 2, 2, 15, 4, 5, 6}, int64(42))
	f.Fuzz(func(t *testing.T, dims []byte, seed int64) {
		// Three bytes per block: width, height, rotatable.
		var bl []Block
		for i := 0; i+2 < len(dims) && len(bl) < 200; i += 3 {
			bl = append(bl, Block{ID: len(bl), W: 1 + int(dims[i]%32), H: 1 + int(dims[i+1]%32), Rotatable: dims[i+2]&1 == 1})
		}
		tr := NewGrid(bl)
		rng := rand.New(rand.NewSource(seed))
		var buf []Placement
		buf = checkPackMatchesScan(t, tr, buf)
		for move := 0; move < 50; move++ {
			if tr.Perturb(rng) && rng.Intn(3) == 0 {
				tr.Undo()
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			buf = checkPackMatchesScan(t, tr, buf)
		}
	})
}
