// Package btree implements the B*-tree floorplan representation
// (Chang et al.; used here as in Falkenstern et al.'s 2.5-D extension,
// paper §3.5). A B*-tree encodes a compacted left-bottom-justified
// placement: a node's left child abuts its right edge, a node's right
// child sits directly above it at the same x, and y positions come from a
// horizontal contour.
package btree

import (
	"fmt"
	"math/rand"
)

// Block is one rectangle to place.
type Block struct {
	ID        int // caller's identifier, opaque to the tree
	W, H      int
	Rotatable bool
}

// Placement is the packed position of a block (lower-left corner), with
// the possibly rotated dimensions.
type Placement struct {
	X, Y, W, H int
	Rotated    bool
}

type node struct {
	parent, left, right int // indices, −1 when absent
	rotated             bool
}

// Tree is a B*-tree over a fixed block set.
type Tree struct {
	Blocks []Block
	nodes  []node
	root   int
}

// New builds an initial chain tree (every node the left child of its
// predecessor: a single row), a good starting floorplan for annealing.
func New(blocks []Block) *Tree {
	t := &Tree{Blocks: append([]Block(nil), blocks...)}
	t.nodes = make([]node, len(blocks))
	for i := range t.nodes {
		t.nodes[i] = node{parent: i - 1, left: -1, right: -1}
		if i > 0 {
			t.nodes[i-1].left = i
		}
	}
	if len(blocks) > 0 {
		t.root = 0
	} else {
		t.root = -1
	}
	return t
}

// NewGrid builds an initial tree arranged as rows of roughly equal total
// width (row starters hang as right children of the previous row starter,
// row members as left-child chains), which packs to a near-square
// floorplan — a far better annealing start than a single row.
func NewGrid(blocks []Block) *Tree {
	t := New(blocks)
	n := len(blocks)
	if n < 3 {
		return t
	}
	totalW, maxW := 0, 0
	for _, b := range blocks {
		totalW += b.W
		if b.W > maxW {
			maxW = b.W
		}
	}
	target := intSqrt(totalW * maxOf(1, avgH(blocks)))
	if target < maxW {
		target = maxW
	}
	for i := range t.nodes {
		t.nodes[i] = node{parent: -1, left: -1, right: -1}
	}
	t.root = 0
	rowStart := 0
	prev := 0
	width := blocks[0].W
	for i := 1; i < n; i++ {
		if width+blocks[i].W > target {
			// Start a new row above the previous row's starter.
			t.nodes[rowStart].right = i
			t.nodes[i].parent = rowStart
			rowStart = i
			prev = i
			width = blocks[i].W
			continue
		}
		t.nodes[prev].left = i
		t.nodes[i].parent = prev
		prev = i
		width += blocks[i].W
	}
	return t
}

func avgH(blocks []Block) int {
	if len(blocks) == 0 {
		return 1
	}
	s := 0
	for _, b := range blocks {
		s += b.H
	}
	return s / len(blocks)
}

func intSqrt(v int) int {
	if v <= 0 {
		return 1
	}
	r := 1
	for r*r < v {
		r++
	}
	return r
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Len returns the number of blocks.
func (t *Tree) Len() int { return len(t.Blocks) }

// dims returns the effective width/height of node i under its rotation.
func (t *Tree) dims(i int) (w, h int) {
	b := t.Blocks[i]
	if t.nodes[i].rotated {
		return b.H, b.W
	}
	return b.W, b.H
}

// Pack computes the placement of every block using the contour algorithm
// and returns the placements plus the bounding width and height.
func (t *Tree) Pack() (pl []Placement, width, height int) {
	n := len(t.Blocks)
	pl = make([]Placement, n)
	if t.root < 0 {
		return pl, 0, 0
	}
	// Contour: list of (xStart, xEnd, y) steps, disjoint in x but kept in
	// insertion order, not sorted: a new block's steps are appended and a
	// lookup scans them all. An insert cuts at most one step in two and
	// adds one, so the contour never holds more than 2n steps; two buffers
	// of capacity 2n+1, swapped on each insert, hold it without growing.
	type step struct{ x0, x1, y int }
	contour := make([]step, 0, 2*n+1)
	spare := make([]step, 0, 2*n+1)
	// DFS preorder placement; every node is pushed once.
	type frame struct{ idx, x int }
	stack := make([]frame, 1, n)
	stack[0] = frame{t.root, 0}
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
		// Raise the contour over [x0, x1) to the block's top.
		next := spare[:0]
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
		contour, spare = append(next, step{x0, x1, y + h}), contour
		if x1 > width {
			width = x1
		}
		if y+h > height {
			height = y + h
		}
		// Right child above (same x) is processed after the left chain;
		// push right first so left pops first (preorder: node, left, right).
		if r := t.nodes[f.idx].right; r >= 0 {
			stack = append(stack, frame{r, x0})
		}
		if l := t.nodes[f.idx].left; l >= 0 {
			stack = append(stack, frame{l, x1})
		}
	}
	return pl, width, height
}

// Rotate toggles the rotation of node i (no-op for non-rotatable blocks).
// It reports whether anything changed.
func (t *Tree) Rotate(i int) bool {
	if !t.Blocks[i].Rotatable {
		return false
	}
	t.nodes[i].rotated = !t.nodes[i].rotated
	return true
}

// Swap exchanges the blocks at tree positions i and j (keeping the tree
// shape). Rotation flags travel with the blocks.
func (t *Tree) Swap(i, j int) {
	if i == j {
		return
	}
	t.Blocks[i], t.Blocks[j] = t.Blocks[j], t.Blocks[i]
	t.nodes[i].rotated, t.nodes[j].rotated = t.nodes[j].rotated, t.nodes[i].rotated
}

// Move detaches node i and reattaches it as a child of node p on the given
// side (0 = left, 1 = right). Any existing child there is pushed down in
// i's place. Returns false (no change) when the move would detach the tree
// (i is an ancestor of p) or i == p.
func (t *Tree) Move(i, p, side int) bool {
	if i == p || t.root < 0 {
		return false
	}
	// Reject if p is in i's subtree.
	for a := p; a >= 0; a = t.nodes[a].parent {
		if a == i {
			return false
		}
	}
	t.detach(i)
	var childPtr *int
	if side == 0 {
		childPtr = &t.nodes[p].left
	} else {
		childPtr = &t.nodes[p].right
	}
	old := *childPtr
	*childPtr = i
	t.nodes[i].parent = p
	// Old child becomes i's child on the same side, preserving a tree.
	if side == 0 {
		t.pushChild(i, old, 0)
	} else {
		t.pushChild(i, old, 1)
	}
	return true
}

// pushChild hangs old under n on side, descending to the first free slot.
func (t *Tree) pushChild(n, old, side int) {
	if old < 0 {
		return
	}
	cur := n
	for {
		var ptr *int
		if side == 0 {
			ptr = &t.nodes[cur].left
		} else {
			ptr = &t.nodes[cur].right
		}
		if *ptr < 0 {
			*ptr = old
			t.nodes[old].parent = cur
			return
		}
		cur = *ptr
	}
}

// detach removes node i from the tree, splicing one of its children into
// its place (the other child is re-hung below the splice).
func (t *Tree) detach(i int) {
	n := &t.nodes[i]
	child := n.left
	other := n.right
	side := 0
	if child < 0 {
		child, other = n.right, -1
		side = 1
	}
	// Replace i by child in its parent.
	if n.parent >= 0 {
		p := &t.nodes[n.parent]
		if p.left == i {
			p.left = child
		} else {
			p.right = child
		}
	} else {
		t.root = child
	}
	if child >= 0 {
		t.nodes[child].parent = n.parent
		if other >= 0 {
			t.pushChild(child, other, 1-side)
		}
	} else if other >= 0 {
		// i was a leaf on both sides: nothing to re-hang.
		panic("btree: detach invariant")
	}
	n.parent, n.left, n.right = -1, -1, -1
	if t.root == i {
		t.root = child
	}
}

// Perturb applies one random structural move and returns an undo closure,
// implementing the classic B*-tree move set (rotate / swap / move).
func (t *Tree) Perturb(rng *rand.Rand) (undo func()) {
	if t.Len() < 2 {
		return nil
	}
	switch rng.Intn(3) {
	case 0: // rotate
		i := rng.Intn(t.Len())
		if !t.Rotate(i) {
			return nil
		}
		return func() { t.Rotate(i) }
	case 1: // swap
		i, j := rng.Intn(t.Len()), rng.Intn(t.Len())
		if i == j {
			return nil
		}
		t.Swap(i, j)
		return func() { t.Swap(i, j) }
	default: // move: structural, undone via snapshot
		snap := t.Snapshot()
		i, p := rng.Intn(t.Len()), rng.Intn(t.Len())
		if !t.Move(i, p, rng.Intn(2)) {
			return nil
		}
		return func() { t.Restore(snap) }
	}
}

// Snapshot captures the full tree structure.
func (t *Tree) Snapshot() Snapshot {
	return Snapshot{
		blocks: append([]Block(nil), t.Blocks...),
		nodes:  append([]node(nil), t.nodes...),
		root:   t.root,
	}
}

// Restore reinstates a snapshot.
func (t *Tree) Restore(s Snapshot) {
	t.Blocks = append(t.Blocks[:0:0], s.blocks...)
	t.nodes = append(t.nodes[:0:0], s.nodes...)
	t.root = s.root
}

// FromSnapshot builds a tree directly from a snapshot.
func FromSnapshot(s Snapshot) *Tree {
	t := &Tree{}
	t.Restore(s)
	return t
}

// Snapshot is an opaque copy of the tree structure for Snapshot/Restore.
type Snapshot struct {
	blocks []Block
	nodes  []node
	root   int
}

// Validate checks the tree structure: a single root, consistent parent
// pointers, and every node reachable exactly once.
func (t *Tree) Validate() error {
	if t.Len() == 0 {
		return nil
	}
	if t.root < 0 || t.root >= t.Len() {
		return fmt.Errorf("btree: bad root %d", t.root)
	}
	if t.nodes[t.root].parent != -1 {
		return fmt.Errorf("btree: root has parent")
	}
	seen := make([]bool, t.Len())
	stack := []int{t.root}
	count := 0
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[i] {
			return fmt.Errorf("btree: node %d visited twice", i)
		}
		seen[i] = true
		count++
		for _, c := range []int{t.nodes[i].left, t.nodes[i].right} {
			if c < 0 {
				continue
			}
			if c >= t.Len() {
				return fmt.Errorf("btree: child %d out of range", c)
			}
			if t.nodes[c].parent != i {
				return fmt.Errorf("btree: node %d parent pointer broken", c)
			}
			stack = append(stack, c)
		}
	}
	if count != t.Len() {
		return fmt.Errorf("btree: %d of %d nodes reachable", count, t.Len())
	}
	return nil
}

// CheckNoOverlap verifies a packing has no overlapping placements.
func CheckNoOverlap(pl []Placement) error {
	for i := 0; i < len(pl); i++ {
		for j := i + 1; j < len(pl); j++ {
			a, b := pl[i], pl[j]
			if a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H {
				return fmt.Errorf("btree: placements %d and %d overlap: %+v vs %+v", i, j, a, b)
			}
		}
	}
	return nil
}
