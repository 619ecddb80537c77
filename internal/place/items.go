// Package place implements the module placement stage (paper §3.5): the
// bridging results become three kinds of super-modules — primal bridging
// chains, distillation-injection boxes, and time-dependent modules — which
// a seeded simulated-annealing engine places with a 2.5-D B*-tree
// representation (a stack of z-slabs, each floorplanned by its own
// B*-tree). Dual-segment directions are planned with the flip bit
// f_current = 1 − f_source (eq. 5) before placement.
package place

import (
	"fmt"
	"sort"

	"tqec/internal/bridge"
	"tqec/internal/geom"
	"tqec/internal/pdgraph"
	"tqec/internal/simplify"
)

// Kind classifies a placement item (the super-module types of §3.5).
type Kind int

// Super-module kinds.
const (
	// KindChain is a primal bridging super-module: a chain of module
	// groups stacked along z, I-shape merges extending along x.
	KindChain Kind = iota
	// KindBox is a distillation-injection super-module (|Y⟩ or |A⟩ box).
	KindBox
)

// String names the kind.
func (k Kind) String() string {
	if k == KindChain {
		return "chain"
	}
	return "box"
}

// Margin is the separation allowance, in paper units, added around every
// item so that disjoint same-type defect structures keep the paper's
// one-unit clearance after packing.
const Margin = 1

// Item is one placeable super-module. Dimensions are in paper units and
// *include* the separation margin.
type Item struct {
	ID   int
	Kind Kind
	// W, H, D are the x (time), y, and z extents.
	W, H, D int
	// Pad is the separation allowance included in W/H/D on the far sides:
	// Margin for primal chains (the one-unit defect clearance), zero for
	// distillation boxes, whose optimized volumes already bound them.
	Pad int
	// Chain payload (KindChain).
	Chain bridge.Chain
	// Box payload (KindBox).
	Box geom.BoxKind
	// FeedsItem is, for a box, the chain item its injection feeds
	// (−1 when unknown). The consumer prefers to start no earlier than
	// the box on the time axis.
	FeedsItem int
}

// OrderEdge is one item-level measurement-ordering edge: After's time
// extent must not precede Before's (time-dependent super-module
// behaviour, lifted from the ICM's intra-/inter-T constraints).
type OrderEdge struct {
	Before, After int
	// Mutual marks an edge whose reverse is also lifted: contraction put
	// each item's measurement before one of the other's. Only equal x
	// satisfies both, so the annealer's penalty, compaction and the
	// place-order rule skip mutual edges; LegalizeOrder reads them all.
	Mutual bool
}

// Pin is a dual-net attachment point on an item, in item-local paper
// units (DX along the group width, DY along the chain). Flip is the
// planned dual-segment direction from eq. (5): flipped segments leave on
// the far z side of the module.
type Pin struct {
	Item       int
	DX, DY, DZ int
	Flip       bool
	Module     int // PD-graph module the pin belongs to
}

// Input is the assembled placement problem.
type Input struct {
	Graph  *pdgraph.Graph
	Simpl  *simplify.Result
	Primal *bridge.PrimalResult
	Dual   *bridge.DualResult

	Items []Item
	// Nets lists, per dual component (by representative), its pins.
	Nets map[int][]Pin
	// RailItem maps each ICM rail to the item holding its measurement
	// module: the one rail→item lift the order edges and the schedule
	// audit read.
	RailItem []int
	// OrderEdges is the complete cross-item ordering relation lifted
	// from the rail-level measurement constraints, sorted by (Before,
	// After). LegalizeOrder's component walk visits edges in this order.
	OrderEdges []OrderEdge
}

// BuildItems converts the bridging results into placement items and pins.
func BuildItems(g *pdgraph.Graph, s *simplify.Result, p *bridge.PrimalResult, d *bridge.DualResult) (*Input, error) {
	if p == nil || d == nil || s == nil || g == nil {
		return nil, fmt.Errorf("place: nil stage input")
	}
	in := &Input{
		Graph:  g,
		Simpl:  s,
		Primal: p,
		Dual:   d,
		Nets:   map[int][]Pin{},
	}
	itemOfGroup := map[int]int{} // group representative -> item index

	// Group widths: number of modules merged along x by the I-shape.
	groupSize := map[int]int{}
	for m := range g.Modules {
		groupSize[s.GroupOf(m)]++
	}
	// Position of each module inside its group (x offset).
	offsetInGroup := map[int]int{}
	counter := map[int]int{}
	for m := range g.Modules {
		rep := s.GroupOf(m)
		offsetInGroup[m] = counter[rep]
		counter[rep]++
	}

	// One item per chain.
	for _, chain := range p.Chains {
		w := 0
		for _, rep := range chain {
			if groupSize[rep] > w {
				w = groupSize[rep]
			}
		}
		// The chain lies along the y axis (a rigid rotation of the
		// paper's z-laid super-module; the volume and braid relation are
		// invariant, and the uniform item depth packs far better in the
		// 2.5-D slab model): x = widest group, y = chain length, z = 1.
		item := Item{
			ID:        len(in.Items),
			Kind:      KindChain,
			W:         w + Margin,
			H:         len(chain) + Margin,
			D:         1 + Margin,
			Pad:       Margin,
			Chain:     chain,
			FeedsItem: -1,
		}
		for _, rep := range chain {
			itemOfGroup[rep] = item.ID
		}
		in.Items = append(in.Items, item)
	}

	// One box item per injection module, feeding the module's item.
	for _, m := range g.Modules {
		if m.InitCap != geom.CapInject {
			continue
		}
		nx, ny, nz := m.Inject.Dims()
		feeds := itemOfGroup[s.GroupOf(m.ID)]
		box := Item{
			ID:        len(in.Items),
			Kind:      KindBox,
			W:         nx,
			H:         ny,
			D:         nz,
			Box:       m.Inject,
			FeedsItem: feeds,
		}
		// The box's distilled state must exist before its consumer:
		// the consumer chain prefers to sit after the box on the time
		// axis (the paper fuses the pair into a distillation-injection
		// super-module; we keep them separate with a soft attraction).
		in.Items = append(in.Items, box)
	}

	// Time-dependent ordering between items, derived from the rail-level
	// intra-/inter-T measurement constraints: a rail's measurement lives
	// on its row's last module, so each ICM happens-before edge lifts to
	// an x-ordering between the items holding those modules. Pairs that
	// contract to the same item are ordered internally by the structure's
	// x offsets; pairs that lift to contradictory item edges (possible
	// under contraction) are kept and marked Mutual.
	in.RailItem = make([]int, len(g.Source.Rails))
	for _, rail := range g.Source.Rails {
		row := g.Rows[rail.ID]
		last := row[len(row)-1]
		id, ok := itemOfGroup[s.GroupOf(last)]
		if !ok {
			return nil, fmt.Errorf("place: rail %d measures in group %d, which no item holds", rail.ID, s.GroupOf(last))
		}
		in.RailItem[rail.ID] = id
	}
	type edge struct{ before, after int }
	edges := map[edge]bool{}
	for _, cst := range g.Source.Constraints {
		a, b := in.RailItem[cst.Before], in.RailItem[cst.After]
		if a == b {
			continue
		}
		edges[edge{a, b}] = true
	}
	for e := range edges {
		in.OrderEdges = append(in.OrderEdges, OrderEdge{Before: e.before, After: e.after, Mutual: edges[edge{e.after, e.before}]})
	}
	sort.Slice(in.OrderEdges, func(i, j int) bool {
		a, b := in.OrderEdges[i], in.OrderEdges[j]
		if a.Before != b.Before {
			return a.Before < b.Before
		}
		return a.After < b.After
	})

	// Pins with flip planning. For every dual component, each part the
	// component passes contributes one pin on the part's item; the pin's
	// y offset is the group's index in its chain, the x offset the
	// module's offset in its group, and the exit direction alternates
	// along the chain per eq. (5).
	for _, comp := range d.Components() {
		rep := d.Component(comp[0])
		seenItemPos := map[[4]int]bool{}
		for _, part := range d.ComponentParts(rep) {
			for _, m := range s.PartModules(part) {
				grp := s.GroupOf(m)
				itemID, ok := itemOfGroup[grp]
				if !ok {
					return nil, fmt.Errorf("place: group %d has no item", grp)
				}
				_, zIdx, ok := p.ChainOf(grp)
				if !ok {
					return nil, fmt.Errorf("place: group %d not in any chain", grp)
				}
				pin := Pin{
					Item:   itemID,
					DX:     offsetInGroup[m],
					DY:     zIdx,
					DZ:     0,
					Flip:   FlipBit(zIdx),
					Module: m,
				}
				key := [4]int{pin.Item, pin.DX, pin.DY, pin.DZ}
				if seenItemPos[key] {
					continue
				}
				seenItemPos[key] = true
				in.Nets[rep] = append(in.Nets[rep], pin)
			}
		}
	}
	return in, nil
}

// FlipBit evaluates eq. (5) along a chain: the first module's dual
// segment keeps its direction (f = 0) and each bridge flips the next,
// f_current = 1 − f_source.
func FlipBit(indexInChain int) bool { return indexInChain%2 == 1 }

// Validate checks the item construction invariants.
func (in *Input) Validate() error {
	for _, it := range in.Items {
		if it.W <= 0 || it.H <= 0 || it.D <= 0 {
			return fmt.Errorf("place: item %d has empty extent %dx%dx%d", it.ID, it.W, it.H, it.D)
		}
		if it.Kind == KindChain && len(it.Chain) == 0 {
			return fmt.Errorf("place: chain item %d has no groups", it.ID)
		}
		if it.Kind == KindBox && it.FeedsItem < 0 {
			return fmt.Errorf("place: box item %d feeds nothing", it.ID)
		}
	}
	for _, e := range in.OrderEdges {
		if e.Before < 0 || e.Before >= len(in.Items) || e.After < 0 || e.After >= len(in.Items) {
			return fmt.Errorf("place: order edge %d -> %d names an unknown item", e.Before, e.After)
		}
	}
	for rep, pins := range in.Nets {
		if len(pins) == 0 {
			return fmt.Errorf("place: net %d has no pins", rep)
		}
		for _, pin := range pins {
			if pin.Item < 0 || pin.Item >= len(in.Items) {
				return fmt.Errorf("place: net %d pin on unknown item %d", rep, pin.Item)
			}
		}
	}
	return nil
}
