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
	// HPWL and Order are the annealed placement's wirelength and residual
	// ordering penalty, taken when the annealer returns: Compact and
	// LegalizeOrder move items afterwards and leave both as they were.
	// AuditSchedule reads the final schedule.
	HPWL  int
	Order float64
	SA    anneal.Result
}

// PinPosition returns the absolute position of a pin in paper units,
// accounting for item rotation (a rotated chain runs its module sequence
// along y instead of x).
func (r *Result) PinPosition(p Pin) (x, y, z int) {
	return pinPos(r.Placed, &p)
}

func pinPos(pos []Placed, p *Pin) (x, y, z int) {
	pl := &pos[p.Item]
	return pl.offset(p.DX, p.DY, pinDZ(pl.Item, p))
}

// pinDZ is a pin's z offset in its item: a flipped dual segment leaves
// on the far z side (eq. 5).
func pinDZ(it *Item, p *Pin) int {
	if p.Flip {
		return it.D - it.Pad
	}
	return p.DZ
}

// offset is the absolute position of an item-local offset. An item the
// floorplanner turned 90° in the x–y plane swaps the in-plane offsets.
func (pl *Placed) offset(dx, dy, dz int) (x, y, z int) {
	if pl.Rotated {
		return pl.X + dy, pl.Y + dx, pl.Z + dz
	}
	return pl.X + dx, pl.Y + dy, pl.Z + dz
}

// layerState is one z-slab with its own B*-tree floorplan. The prev
// fields keep the slab as it was before the last move that touched it, in
// storage the slab owns, so undoing a move neither repacks nor allocates.
// The best fields keep it as SaveBest last saw it, overwritten in place.
type layerState struct {
	items []int // item IDs resident in this slab
	tree  *btree.Tree
	w, h  int
	depth int
	pl    []btree.Placement
	// dirty marks a slab a move repacked since the last Cost, and z is
	// the offset the cached positions of its items were written at.
	// unsaved marks a slab a move touched since the last SaveBest.
	dirty, unsaved bool
	z              int

	prevItems               []int
	prevTree                *btree.Tree
	prevPl                  []btree.Placement
	prevW, prevH, prevDepth int
	blocks                  []btree.Block // rebuild's scratch

	bestItems []int
	bestTree  btree.Snapshot
	bestDepth int
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

// touch marks the slab changed by the move under way.
func (l *layerState) touch() {
	l.dirty, l.unsaved = true, true
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

// problem implements anneal.Problem over the 2.5-D state. Beside the
// slabs it keeps an incremental cost cache (see Cost): every item's
// position, every cost term's value and their sums, valid for the slabs
// as the last Cost saw them.
type problem struct {
	in     *Input
	layers []*layerState
	// nets is in.Nets by ascending representative, nets with fewer than
	// two pins dropped.
	nets [][]netPin

	// terms lists every cost term once; itemTerms lists, per item, the
	// terms that read its position.
	terms     []term
	itemTerms [][]int32
	// pos, the terms' values and sum are the cache. epoch stamps the
	// terms one Cost call evaluates, changed is its scratch and log what
	// it overwrote since the last move began.
	pos     []Placed
	sum     sums
	epoch   uint32
	changed []int
	log     moveLog
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
			net := make([]netPin, len(pins))
			for i := range pins {
				pin := &pins[i]
				net[i] = netPin{int32(pin.Item), int32(pin.DX), int32(pin.DY), int32(pinDZ(&in.Items[pin.Item], pin))}
			}
			p.nets = append(p.nets, net)
		}
	}
	p.buildTerms()
	p.pos = p.newPositions()
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
		l := &layerState{items: append([]int(nil), order[start:end]...), tree: new(btree.Tree), prevTree: new(btree.Tree), unsaved: true}
		l.rebuild(in.Items)
		p.layers = append(p.layers, l)
	}
	p.resum()
	return p
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

// Perturb applies one move: intra-layer B*-tree perturbation, or an item
// migration between layers. The undo it returns reads state the layers
// and the cost cache keep for the last move, so it is valid only until
// the next Perturb or RestoreBest.
func (p *problem) Perturb(rng *rand.Rand) func() {
	if len(p.layers) == 0 {
		return nil
	}
	p.log.reset(&p.sum)
	if rng.Float64() < 0.7 {
		return p.repack(rng)
	}
	return p.migrate(rng)
}

// repack perturbs one slab's B*-tree.
func (p *problem) repack(rng *rand.Rand) func() {
	l := p.layers[rng.Intn(len(p.layers))]
	if len(l.items) < 2 || !l.tree.Perturb(rng) {
		return nil
	}
	l.keepPacking()
	l.pack()
	l.touch()
	return func() {
		l.tree.Undo()
		l.restorePacking()
		p.undoCost()
	}
}

// migrate moves a random item to another slab and rebuilds both.
func (p *problem) migrate(rng *rand.Rand) func() {
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
	from.touch()
	to.touch()
	return func() {
		from.restore()
		to.restore()
		p.undoCost()
	}
}

// SaveBest copies every slab a move touched since the last save into the
// slab's own best storage; the other slabs already match theirs.
func (p *problem) SaveBest() {
	for _, l := range p.layers {
		if !l.unsaved {
			continue
		}
		l.bestItems = append(l.bestItems[:0], l.items...)
		l.tree.Snapshot(&l.bestTree)
		l.bestDepth = l.depth
		l.unsaved = false
	}
}

// RestoreBest reinstates the saved slabs, repacks them and rebuilds the
// cost cache from scratch.
func (p *problem) RestoreBest() {
	for _, l := range p.layers {
		l.items = append(l.items[:0], l.bestItems...)
		l.tree.Restore(&l.bestTree)
		l.depth = l.bestDepth
		l.pack()
		l.unsaved = false
	}
	p.resum()
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
	// RestoreBest (or newProblem, when nothing anneals) left the cache
	// summed from scratch.
	nx, ny, nz := p.dims()
	res := &Result{
		Input:  in,
		Placed: slices.Clone(p.pos),
		NX:     nx, NY: ny, NZ: nz,
		Volume: nx * ny * nz,
		HPWL:   p.sum.hpwl(),
		Order:  float64(p.sum[termOrder]),
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
