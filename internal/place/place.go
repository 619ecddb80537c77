package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"tqec/internal/anneal"
	"tqec/internal/btree"
)

// Options tunes the 2.5-D placement.
type Options struct {
	Seed     int64
	MaxMoves int // SA move budget; 0 selects a size-scaled default
}

// SA cost weights: volume + lambdaWire·HPWL + orderWeight·order +
// feedWeight·feed.
const (
	lambdaWire  = 0.05
	orderWeight = 100.0
	feedWeight  = 2
)

func (o Options) withDefaults(n int) Options {
	if o.MaxMoves <= 0 {
		o.MaxMoves = 2000 + 60*n
		if o.MaxMoves > 60000 {
			o.MaxMoves = 60000
		}
	}
	return o
}

// Placed is an item with its placement (min corner, paper units) and its
// effective extents (W/H swapped when the floorplanner rotated the item in
// the x–y plane).
type Placed struct {
	Item    *Item
	X, Y, Z int
	W, H, D int
	Rotated bool
	Layer   int
}

// Result is the placement outcome.
type Result struct {
	Input      *Input
	Placed     []Placed
	NX, NY, NZ int
	Volume     int
	HPWL       int
	Order      float64 // residual ordering penalty (0 = fully legal)
	SA         anneal.Result
}

// PinPosition returns the absolute position of a pin in paper units,
// accounting for item rotation (a rotated chain runs its module sequence
// along y instead of x).
func (r *Result) PinPosition(p Pin) (x, y, z int) {
	return pinPos(r.Placed, &p)
}

func pinPos(pos []Placed, p *Pin) (x, y, z int) {
	pl := &pos[p.Item]
	z = pl.Z + p.DZ
	if p.Flip {
		// The flipped dual segment leaves on the far z side (eq. 5).
		z = pl.Z + pl.D - pl.Item.Pad
	}
	if pl.Rotated {
		// The floorplanner turned the item 90° in the x–y plane.
		x = pl.X + p.DY
		y = pl.Y + p.DX
		return x, y, z
	}
	x = pl.X + p.DX
	y = pl.Y + p.DY
	return x, y, z
}

// layerState is one z-slab with its own B*-tree floorplan. The prev
// fields keep the slab as it was before the last move that touched it, in
// storage the slab owns, so undoing a move neither repacks nor allocates.
type layerState struct {
	items []int // item IDs resident in this slab
	tree  *btree.Tree
	w, h  int
	depth int
	pl    []btree.Placement

	prevItems               []int
	prevTree                *btree.Tree
	prevPl                  []btree.Placement
	prevW, prevH, prevDepth int
	blocks                  []btree.Block // rebuild's scratch
}

// rebuild lays the slab's items out afresh in a grid tree.
func (l *layerState) rebuild(items []Item) {
	l.blocks = l.blocks[:0]
	l.depth = 0
	for _, id := range l.items {
		it := &items[id]
		l.blocks = append(l.blocks, btree.Block{ID: id, W: it.W, H: it.H, Rotatable: it.Kind == KindChain})
		if it.D > l.depth {
			l.depth = it.D
		}
	}
	l.tree.Reset(l.blocks)
	l.pack()
}

func (l *layerState) pack() {
	l.pl, l.w, l.h = l.tree.Pack(l.pl)
}

// keepPacking sets the current packing aside for restorePacking; the
// next pack writes into the other buffer.
func (l *layerState) keepPacking() {
	l.pl, l.prevPl = l.prevPl, l.pl
	l.prevW, l.prevH = l.w, l.h
}

func (l *layerState) restorePacking() {
	l.pl, l.prevPl = l.prevPl, l.pl
	l.w, l.h = l.prevW, l.prevH
}

// capture sets the whole slab aside before a migration edits its items
// and rebuilds its tree; restore puts it back.
func (l *layerState) capture() {
	l.keepPacking()
	l.prevItems = append(l.prevItems[:0], l.items...)
	l.tree, l.prevTree = l.prevTree, l.tree
	l.prevDepth = l.depth
}

func (l *layerState) restore() {
	l.restorePacking()
	l.items = append(l.items[:0], l.prevItems...)
	l.tree, l.prevTree = l.prevTree, l.tree
	l.depth = l.prevDepth
}

// problem implements anneal.Problem over the 2.5-D state.
type problem struct {
	in     *Input
	layers []*layerState
	// netList is in.Nets flattened for allocation-free cost evaluation;
	// posBuf is the reusable position scratch buffer, its Item and D set
	// once.
	netList [][]Pin
	posBuf  []Placed
}

func newProblem(in *Input) *problem {
	p := &problem{in: in}
	n := len(in.Items)
	if n == 0 {
		return p
	}
	reps := make([]int, 0, len(in.Nets))
	for rep := range in.Nets {
		reps = append(reps, rep)
	}
	sort.Ints(reps)
	for _, rep := range reps {
		if pins := in.Nets[rep]; len(pins) >= 2 {
			p.netList = append(p.netList, pins)
		}
	}
	p.posBuf = make([]Placed, n)
	for i := range p.posBuf {
		p.posBuf[i].Item = &in.Items[i]
		p.posBuf[i].D = in.Items[i].D
	}
	// Initial assignment: chunk items by depth so each slab holds items
	// of similar z extent.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := in.Items[order[a]].D, in.Items[order[b]].D
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	// ~cbrt(n) slabs, at least two, at most one per item.
	nl := min(max(int(math.Cbrt(float64(n)))+1, 2), n)
	per := (n + nl - 1) / nl
	for start := 0; start < n; start += per {
		end := start + per
		if end > n {
			end = n
		}
		l := &layerState{items: append([]int(nil), order[start:end]...), tree: new(btree.Tree), prevTree: new(btree.Tree)}
		l.rebuild(in.Items)
		p.layers = append(p.layers, l)
	}
	return p
}

// itemPositions computes the absolute placement of every item into the
// shared scratch buffer (copy it before keeping a reference). Only the
// fields a move can change are written.
func (p *problem) itemPositions() []Placed {
	out := p.posBuf
	z := 0
	for li, l := range p.layers {
		if len(l.items) == 0 {
			continue
		}
		for slot := range l.pl {
			bpl := &l.pl[slot]
			q := &out[l.tree.Blocks[slot].ID]
			q.X, q.Y, q.Z = bpl.X, bpl.Y, z
			q.W, q.H = bpl.W, bpl.H
			q.Rotated, q.Layer = bpl.Rotated, li
		}
		z += l.depth
	}
	return out
}

func (p *problem) dims() (nx, ny, nz int) {
	for _, l := range p.layers {
		if len(l.items) == 0 {
			continue
		}
		if l.w > nx {
			nx = l.w
		}
		if l.h > ny {
			ny = l.h
		}
		nz += l.depth
	}
	return nx, ny, nz
}

func (p *problem) hpwl(pos []Placed) int {
	total := 0
	for _, pins := range p.netList {
		minX, minY, minZ := math.MaxInt32, math.MaxInt32, math.MaxInt32
		maxX, maxY, maxZ := math.MinInt32, math.MinInt32, math.MinInt32
		for i := range pins {
			x, y, z := pinPos(pos, &pins[i])
			minX, maxX = min(minX, x), max(maxX, x)
			minY, maxY = min(minY, y), max(maxY, y)
			minZ, maxZ = min(minZ, z), max(maxZ, z)
		}
		total += (maxX - minX) + (maxY - minY) + (maxZ - minZ)
	}
	// Injection connections: box attach to consumer chain.
	for i := range p.in.Items {
		it := &p.in.Items[i]
		if it.Kind != KindBox || it.FeedsItem < 0 {
			continue
		}
		a, b := &pos[it.ID], &pos[it.FeedsItem]
		total += abs(a.X+a.W-b.X) + abs(a.Y-b.Y) + abs(a.Z-b.Z)
	}
	return total
}

// orderPenalty sums how far each non-mutual order edge's After item
// starts and finishes before its Before item.
func (p *problem) orderPenalty(pos []Placed) float64 {
	v := 0.0
	for i := range p.in.OrderEdges {
		e := &p.in.OrderEdges[i]
		if e.Mutual {
			continue
		}
		a, b := &pos[e.Before], &pos[e.After]
		if d := (a.X) - (b.X); d > 0 {
			v += float64(d)
		}
		if d := (a.X + a.W) - (b.X + b.W); d > 0 {
			v += float64(d)
		}
	}
	return v
}

// feedPenalty is the soft preference that a consumer start no earlier than
// its distillation boxes.
func (p *problem) feedPenalty(pos []Placed) float64 {
	v := 0.0
	for i := range p.in.Items {
		it := &p.in.Items[i]
		if it.Kind != KindBox || it.FeedsItem < 0 {
			continue
		}
		if d := pos[it.ID].X - pos[it.FeedsItem].X; d > 0 {
			v += float64(d)
		}
	}
	return v
}

// Cost is volume + λ·HPWL + ω·order + soft feed preference.
func (p *problem) Cost() float64 {
	nx, ny, nz := p.dims()
	pos := p.itemPositions()
	return float64(nx*ny*nz) +
		lambdaWire*float64(p.hpwl(pos)) +
		orderWeight*p.orderPenalty(pos) +
		feedWeight*p.feedPenalty(pos)
}

// Perturb applies one move: intra-layer B*-tree perturbation, or an item
// migration between layers. The undo it returns reads state the layers
// keep for the last move, so it is valid only until the next Perturb.
func (p *problem) Perturb(rng *rand.Rand) func() {
	if len(p.layers) == 0 {
		return nil
	}
	if rng.Float64() < 0.7 {
		// Intra-layer structural move.
		l := p.layers[rng.Intn(len(p.layers))]
		if len(l.items) < 2 || !l.tree.Perturb(rng) {
			return nil
		}
		l.keepPacking()
		l.pack()
		return func() {
			l.tree.Undo()
			l.restorePacking()
		}
	}
	// Cross-layer migration.
	from := p.layers[rng.Intn(len(p.layers))]
	if len(from.items) == 0 {
		return nil
	}
	to := p.layers[rng.Intn(len(p.layers))]
	if to == from {
		return nil
	}
	idx := rng.Intn(len(from.items))
	id := from.items[idx]
	from.capture()
	to.capture()
	from.items = slices.Delete(from.items, idx, idx+1)
	to.items = append(to.items, id)
	from.rebuild(p.in.Items)
	to.rebuild(p.in.Items)
	return func() {
		from.restore()
		to.restore()
	}
}

type placeSnapshot struct {
	items  [][]int
	trees  []btree.Snapshot
	depths []int
}

// Snapshot captures the layer structure.
func (p *problem) Snapshot() any {
	s := placeSnapshot{}
	for _, l := range p.layers {
		s.items = append(s.items, append([]int(nil), l.items...))
		s.trees = append(s.trees, l.tree.Snapshot())
		s.depths = append(s.depths, l.depth)
	}
	return s
}

// Restore reinstates a snapshot.
func (p *problem) Restore(snap any) {
	s := snap.(placeSnapshot)
	for i, l := range p.layers {
		l.items = append(l.items[:0], s.items[i]...)
		l.tree.Restore(s.trees[i])
		l.depth = s.depths[i]
		l.pack()
	}
}

// RunContext executes the placement stage under a context: the annealer
// polls ctx at move-batch boundaries and the stage returns ctx's error
// (with no result) when it is cancelled or times out mid-anneal.
func RunContext(ctx context.Context, in *Input, opt Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(len(in.Items))
	p := newProblem(in)
	var sa anneal.Result
	if len(in.Items) > 1 {
		var err error
		sa, err = anneal.RunContext(ctx, p, anneal.Options{Seed: opt.Seed, MaxMoves: opt.MaxMoves})
		if err != nil {
			return nil, fmt.Errorf("place: %w", err)
		}
	}
	pos := append([]Placed(nil), p.itemPositions()...)
	nx, ny, nz := p.dims()
	res := &Result{
		Input:  in,
		Placed: pos,
		NX:     nx, NY: ny, NZ: nz,
		Volume: nx * ny * nz,
		HPWL:   p.hpwl(pos),
		Order:  p.orderPenalty(pos),
		SA:     sa,
	}
	return res, nil
}

// CheckLegal verifies that no two items overlap in 3-D.
func (r *Result) CheckLegal() error {
	if pairs := r.Overlaps(); len(pairs) > 0 {
		return fmt.Errorf("place: items %d and %d overlap", pairs[0][0], pairs[0][1])
	}
	return nil
}

// Overlaps lists every pair {i, j}, i < j, of placed items that intersect
// in 3-D.
func (r *Result) Overlaps() [][2]int {
	var pairs [][2]int
	for i := range r.Placed {
		for j := i + 1; j < len(r.Placed); j++ {
			a, b := &r.Placed[i], &r.Placed[j]
			if a.Item != nil && b.Item != nil && overlaps(a, b) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}

// overlaps reports whether two placed boxes intersect in 3-D.
func overlaps(a, b *Placed) bool {
	return a.X < b.X+b.W && b.X < a.X+a.W &&
		a.Y < b.Y+b.H && b.Y < a.Y+a.H &&
		a.Z < b.Z+b.D && b.Z < a.Z+a.D
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
