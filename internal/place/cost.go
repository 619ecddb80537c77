package place

import (
	"math"

	"tqec/internal/btree"
)

// SA cost weights: volume + lambdaWire·HPWL + orderWeight·order +
// feedWeight·feed.
const (
	lambdaWire  = 0.05
	orderWeight = 100.0
	feedWeight  = 2
)

// termKind names the cost sum a term adds to.
type termKind uint8

const (
	termNet   termKind = iota // a dual net's half-perimeter wirelength
	termWire                  // a box's injection wire to its consumer
	termOrder                 // a non-mutual order edge's lag
	termFeed                  // a box's start after its consumer's
	numTermKinds
)

// term is one integer summand of the cost. For a net term, a is the
// net's index in problem.nets; the other terms read the positions of
// items a and b: box and consumer for a feed, Before and After for an
// order edge. val is the term at the cached positions and stamp the Cost
// call that last evaluated it.
type term struct {
	kind  termKind
	a, b  int32
	stamp uint32
	val   int
}

// sums holds the cost's integer sums by term kind.
type sums [numTermKinds]int

// cost combines the volume and the term sums. Every sum is an integer far
// below 2^53, so float64 holds it exactly and a cached sum gives the same
// float64 as a sum taken from scratch.
func cost(volume int, s *sums) float64 {
	return float64(volume) +
		lambdaWire*float64(s.hpwl()) +
		orderWeight*float64(s[termOrder]) +
		feedWeight*float64(s[termFeed])
}

// hpwl is the wirelength part of the sums: net spans and box feeds.
func (s *sums) hpwl() int { return s[termNet] + s[termWire] }

// netPin is a Pin as a net span reads it, in 16 bytes instead of 48,
// its z offset resolved by pinDZ.
type netPin struct{ item, dx, dy, dz int32 }

// netSpan is a net's half-perimeter wirelength over its pins.
func netSpan(pos []Placed, pins []netPin) int {
	minX, minY, minZ := math.MaxInt32, math.MaxInt32, math.MaxInt32
	maxX, maxY, maxZ := math.MinInt32, math.MinInt32, math.MinInt32
	for _, pin := range pins {
		x, y, z := pos[pin.item].offset(int(pin.dx), int(pin.dy), int(pin.dz))
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
		minZ, maxZ = min(minZ, z), max(maxZ, z)
	}
	return (maxX - minX) + (maxY - minY) + (maxZ - minZ)
}

// feedWire is the injection connection from box a's far x side to its
// consumer b.
func feedWire(a, b *Placed) int {
	return abs(a.X+a.W-b.X) + abs(a.Y-b.Y) + abs(a.Z-b.Z)
}

// orderLag is how far an order edge's After item b starts and finishes
// before its Before item a.
func orderLag(a, b *Placed) int {
	return max(a.X-b.X, 0) + max((a.X+a.W)-(b.X+b.W), 0)
}

// feedLag is the soft preference that a consumer b start no earlier than
// its distillation box a: how far the box starts after it.
func feedLag(a, b *Placed) int {
	return max(a.X-b.X, 0)
}

// eval evaluates term t at pos.
func (p *problem) eval(pos []Placed, t *term) int {
	if t.kind == termNet {
		return netSpan(pos, p.nets[t.a])
	}
	a, b := &pos[t.a], &pos[t.b]
	switch t.kind {
	case termWire:
		return feedWire(a, b)
	case termOrder:
		return orderLag(a, b)
	default:
		return feedLag(a, b)
	}
}

// buildTerms lists every cost term once and, per item, the terms that
// read its position.
func (p *problem) buildTerms() {
	in := p.in
	p.itemTerms = make([][]int32, len(in.Items))
	// link ties the newest term to an item that reads it. All of a term's
	// links are made in a row, so comparing with the item's last term
	// lists a net with several pins on one item once.
	link := func(id int) {
		ti := int32(len(p.terms) - 1)
		if ts := p.itemTerms[id]; len(ts) == 0 || ts[len(ts)-1] != ti {
			p.itemTerms[id] = append(ts, ti)
		}
	}
	for k, pins := range p.nets {
		p.terms = append(p.terms, term{kind: termNet, a: int32(k)})
		for _, pin := range pins {
			link(int(pin.item))
		}
	}
	pair := func(kind termKind, a, b int) {
		p.terms = append(p.terms, term{kind: kind, a: int32(a), b: int32(b)})
		link(a)
		link(b)
	}
	for i := range in.Items {
		if it := &in.Items[i]; it.Kind == KindBox && it.FeedsItem >= 0 {
			pair(termWire, i, it.FeedsItem)
			pair(termFeed, i, it.FeedsItem)
		}
	}
	for _, e := range in.OrderEdges {
		if !e.Mutual {
			pair(termOrder, e.Before, e.After)
		}
	}
}

// at reports whether q sits at a slab slot's packing at depth offset z.
func (q *Placed) at(b *btree.Placement, z, layer int) bool {
	return q.X == b.X && q.Y == b.Y && q.Z == z && q.W == b.W && q.H == b.H && q.Rotated == b.Rotated && q.Layer == layer
}

// moveTo sets q to a slab slot's packing at depth offset z.
func (q *Placed) moveTo(b *btree.Placement, z, layer int) {
	q.X, q.Y, q.Z = b.X, b.Y, z
	q.W, q.H = b.W, b.H
	q.Rotated, q.Layer = b.Rotated, layer
}

// writePositions writes every item's absolute placement into out, whose
// Item and D fields newPositions set. It reads the slabs only.
func (p *problem) writePositions(out []Placed) {
	z := 0
	for li, l := range p.layers {
		if len(l.items) == 0 {
			continue
		}
		for slot := range l.pl {
			out[l.tree.Blocks[slot].ID].moveTo(&l.pl[slot], z, li)
		}
		z += l.depth
	}
}

// newPositions allocates a position buffer with each item's fixed fields
// set.
func (p *problem) newPositions() []Placed {
	pos := make([]Placed, len(p.in.Items))
	for i := range pos {
		pos[i].Item = &p.in.Items[i]
		pos[i].D = p.in.Items[i].D
	}
	return pos
}

// resum rebuilds the cost cache from the slabs alone: every position,
// each slab's offset, every term and the sums.
func (p *problem) resum() {
	p.writePositions(p.pos)
	z := 0
	for _, l := range p.layers {
		l.dirty, l.z = false, z
		if len(l.items) > 0 {
			z += l.depth
		}
	}
	p.sum = sums{}
	for i := range p.terms {
		t := &p.terms[i]
		t.val = p.eval(p.pos, t)
		p.sum[t.kind] += t.val
	}
	p.log.reset(&p.sum)
}

// Cost is volume + λ·HPWL + ω·order + soft feed preference.
//
// It updates the cache incrementally. Positions are rewritten only for
// slabs a move dirtied and for slabs whose z offset moved; the terms
// reading an item whose placement changed are evaluated again, each at
// most once per call, and the sums move by the difference. Whatever it
// overwrites goes to the move's log, which the move's undo replays.
func (p *problem) Cost() float64 {
	p.epoch++
	pos, log := p.pos, &p.log
	changed := p.changed[:0]
	z := 0
	for li, l := range p.layers {
		if len(l.items) == 0 {
			continue
		}
		if l.dirty || l.z != z {
			if l.z != z {
				log.zs = append(log.zs, valUndo{li, l.z})
				l.z = z
			}
			l.dirty = false
			blocks := l.tree.Blocks
			for slot := range l.pl {
				id := blocks[slot].ID
				q, b := &pos[id], &l.pl[slot]
				if !q.at(b, z, li) {
					log.pos = append(log.pos, posUndo{id, q.Z, q.Layer, btree.Placement{X: q.X, Y: q.Y, W: q.W, H: q.H, Rotated: q.Rotated}})
					q.moveTo(b, z, li)
					changed = append(changed, id)
				}
			}
		}
		z += l.depth
	}
	p.changed = changed
	terms, epoch := p.terms, p.epoch
	for _, id := range changed {
		for _, ti := range p.itemTerms[id] {
			t := &terms[ti]
			if t.stamp == epoch {
				continue
			}
			t.stamp = epoch
			if v := p.eval(pos, t); v != t.val {
				log.terms = append(log.terms, valUndo{int(ti), t.val})
				p.sum[t.kind] += v - t.val
				t.val = v
			}
		}
	}
	nx, ny, nz := p.dims()
	return cost(nx*ny*nz, &p.sum)
}

// moveLog is what Cost overwrote in the cache since the last move began,
// each entry logged before its first change, and the sums as the move
// found them. It holds no pointers, so logging is a plain copy.
type moveLog struct {
	pos   []posUndo
	terms []valUndo // term values by term index
	zs    []valUndo // slab offsets by layer index
	sum   sums
}

// posUndo is an item's position before a move, in moveTo's terms.
type posUndo struct {
	id, z, layer int
	at           btree.Placement
}

// valUndo is an integer's value before a move.
type valUndo struct{ i, old int }

// reset starts the log of a new move.
func (m *moveLog) reset(s *sums) {
	m.pos, m.terms, m.zs, m.sum = m.pos[:0], m.terms[:0], m.zs[:0], *s
}

// undoCost puts the cache back as the last move found it.
func (p *problem) undoCost() {
	m := &p.log
	for _, u := range m.pos {
		p.pos[u.id].moveTo(&u.at, u.z, u.layer)
	}
	for _, u := range m.terms {
		p.terms[u.i].val = u.old
	}
	for _, u := range m.zs {
		p.layers[u.i].z = u.old
	}
	p.sum = m.sum
	m.reset(&p.sum)
}
