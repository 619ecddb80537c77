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

// Block is one rectangle to place. W and H are positive.
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

// Tree is a B*-tree over a fixed block set. The zero Tree is empty. Pack,
// Perturb and Undo reuse scratch the tree owns, so a tree must not be used
// from two goroutines at once.
type Tree struct {
	Blocks []Block
	nodes  []node
	root   int

	// steps and stack are Pack's contour and preorder scratch.
	steps []step
	stack []frame
	// last is the move Undo reverts. Before a structural move, undoNodes
	// and undoRoot keep the structure it changes.
	last      lastMove
	undoNodes []node
	undoRoot  int
}

// New builds an initial chain tree (every node the left child of its
// predecessor: a single row), a good starting floorplan for annealing.
func New(blocks []Block) *Tree {
	t := &Tree{}
	t.chain(blocks)
	return t
}

// chain rebuilds t in place as the chain New builds.
func (t *Tree) chain(blocks []Block) {
	t.Blocks = append(t.Blocks[:0], blocks...)
	t.nodes = t.nodes[:0]
	for i := range blocks {
		t.nodes = append(t.nodes, node{parent: i - 1, left: -1, right: -1})
		if i > 0 {
			t.nodes[i-1].left = i
		}
	}
	t.root = -1
	if len(blocks) > 0 {
		t.root = 0
	}
	t.last = lastMove{}
}

// NewGrid builds an initial tree arranged as rows of roughly equal total
// width (row starters hang as right children of the previous row starter,
// row members as left-child chains), which packs to a near-square
// floorplan — a far better annealing start than a single row.
func NewGrid(blocks []Block) *Tree {
	t := &Tree{}
	t.Reset(blocks)
	return t
}

// Reset rebuilds t in place over a new block set, arranged exactly as
// NewGrid arranges it, reusing t's storage.
func (t *Tree) Reset(blocks []Block) {
	t.chain(blocks)
	n := len(blocks)
	if n < 3 {
		return
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

// step is one segment of Pack's contour: the top y over [x0, x1), and
// the index of the next segment in x order (−1 at the end). Index 0 is
// the list head.
type step struct {
	x0, x1, y int
	next      int
}

// frame is one pending block of Pack's preorder walk: the node, its x,
// and the contour step its scan starts after.
type frame struct{ idx, x, prev int }

// Pack computes the placement of every block with Chang et al.'s contour
// and returns the placements plus the bounding width and height. The
// placements are written into dst when it has room for all of them, so a
// caller that packs repeatedly can reuse one slice; a nil dst gets a fresh
// one.
//
// The contour is a list of steps in x order covering [0, width). A block
// rests on the highest step it overlaps; its own step replaces the steps
// it covers entirely and trims the one it covers in part. In preorder a
// left child starts where its parent's step ends and a right child where
// that step starts, and nothing placed between a parent and either child
// covers the parent's step: the parent's left subtree lies to its right.
// So each scan starts at a known step, and every step it passes but the
// last is unlinked for good, which makes one pack amortised O(n).
func (t *Tree) Pack(dst []Placement) (pl []Placement, width, height int) {
	n := len(t.Blocks)
	pl = dst[:0]
	if cap(pl) < n {
		pl = make([]Placement, n)
	}
	pl = pl[:n]
	if n == 0 {
		return pl, 0, 0
	}
	steps := append(t.steps[:0], step{next: -1})
	stack := append(t.stack[:0], frame{t.root, 0, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w, h := t.dims(f.idx)
		x0, x1 := f.x, f.x+w
		y := 0
		next := steps[f.prev].next
		for next >= 0 && steps[next].x0 < x1 {
			s := &steps[next]
			y = max(y, s.y)
			if s.x1 > x1 {
				s.x0 = x1 // covered in part: keep the rest
				break
			}
			next = s.next // covered entirely: unlinked below
		}
		own := len(steps)
		steps = append(steps, step{x0, x1, y + h, next})
		steps[f.prev].next = own
		pl[f.idx] = Placement{X: x0, Y: y, W: w, H: h, Rotated: t.nodes[f.idx].rotated}
		width = max(width, x1)
		height = max(height, y+h)
		// Right child above (same x) is processed after the left chain;
		// push right first so left pops first (preorder: node, left, right).
		if r := t.nodes[f.idx].right; r >= 0 {
			stack = append(stack, frame{r, x0, f.prev})
		}
		if l := t.nodes[f.idx].left; l >= 0 {
			stack = append(stack, frame{l, x1, own})
		}
	}
	t.steps, t.stack = steps, stack
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

// lastMove records the move Perturb applied, for Undo.
type lastMove struct {
	kind moveKind
	i, j int
}

type moveKind int

const (
	moveNone moveKind = iota
	moveRotate
	moveSwap
	moveStructure
)

// Perturb applies one random move from the classic B*-tree move set
// (rotate / swap / move) and reports whether it changed the tree. The
// state Undo needs stays in the tree, so a move costs no allocation.
func (t *Tree) Perturb(rng *rand.Rand) bool {
	t.last = lastMove{}
	if t.Len() < 2 {
		return false
	}
	switch rng.Intn(3) {
	case 0: // rotate
		i := rng.Intn(t.Len())
		if !t.Rotate(i) {
			return false
		}
		t.last = lastMove{kind: moveRotate, i: i}
	case 1: // swap
		i, j := rng.Intn(t.Len()), rng.Intn(t.Len())
		if i == j {
			return false
		}
		t.Swap(i, j)
		t.last = lastMove{kind: moveSwap, i: i, j: j}
	default: // move: structural, undone from a copy of the nodes
		t.undoNodes = append(t.undoNodes[:0], t.nodes...)
		t.undoRoot = t.root
		i, p := rng.Intn(t.Len()), rng.Intn(t.Len())
		if !t.Move(i, p, rng.Intn(2)) {
			return false
		}
		t.last = lastMove{kind: moveStructure}
	}
	return true
}

// Undo reverts the move the last Perturb applied. It is valid only until
// the next Perturb, and reverts a move at most once.
func (t *Tree) Undo() {
	switch t.last.kind {
	case moveRotate:
		t.Rotate(t.last.i)
	case moveSwap:
		t.Swap(t.last.i, t.last.j)
	case moveStructure:
		copy(t.nodes, t.undoNodes)
		t.root = t.undoRoot
	}
	t.last = lastMove{}
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
	t.last = lastMove{}
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
