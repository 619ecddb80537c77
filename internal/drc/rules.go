package drc

import (
	"strconv"
	"strings"

	"tqec/internal/geom"
	"tqec/internal/place"
	"tqec/internal/route"
)

// This file registers the builtin rule set. Rules fall in two families:
//
//   - stage rules wrap (and refine into located violations) the per-stage
//     validators that already existed scattered through the pipeline;
//   - cross-stage rules check invariants that relate two stages' artifacts
//     and that no single stage can verify on its own.

func init() {
	registerStageRules()
	registerPlaceRules()
	registerRouteRules()
	registerGeometryRules()
	registerCrossStageRules()
}

func registerStageRules() {
	Register(&Rule{
		Name:     "icm-structure",
		Stage:    StageICM,
		Severity: Error,
		Doc: "ICM representation is well formed: rails initialized and " +
			"measured once, CNOT endpoints valid, constraint/gadget " +
			"bookkeeping consistent.",
		Applies: func(a *Artifacts) bool { return a.ICM != nil },
		Check: func(a *Artifacts, r *Reporter) {
			if err := a.ICM.Validate(); err != nil {
				r.Violationf(NoLoc, "%v", err)
			}
		},
	})
	Register(&Rule{
		Name:     "pdgraph-structure",
		Stage:    StagePDGraph,
		Severity: Error,
		Doc: "PD graph obeys the construction rules: #modules = #rails + " +
			"#CNOTs, rows carry I/M caps at both ends, every net passes " +
			"two consecutive control modules and one off-row target, and " +
			"module pass lists match net records.",
		Applies: func(a *Artifacts) bool { return a.Graph != nil },
		Check: func(a *Artifacts, r *Reporter) {
			if err := a.Graph.Validate(); err != nil {
				r.Violationf(NoLoc, "%v", err)
			}
		},
	})
	Register(&Rule{
		Name:     "simplify-parts",
		Stage:    StageSimplify,
		Severity: Error,
		Doc: "I-shaped simplification keeps the part bookkeeping sound: " +
			"merged nets own exactly one bridge part and every net still " +
			"relates to the module groups it passed before simplification.",
		Applies: func(a *Artifacts) bool { return a.Simplified != nil },
		Check: func(a *Artifacts, r *Reporter) {
			if err := a.Simplified.Validate(); err != nil {
				r.Violationf(NoLoc, "%v", err)
			}
		},
	})
	Register(&Rule{
		Name:     "primal-chains",
		Stage:    StagePrimal,
		Severity: Error,
		Doc: "primal bridging chains partition the module groups and every " +
			"consecutive chain pair shares a dual net (the bridge witness).",
		Applies: func(a *Artifacts) bool { return a.Primal != nil },
		Check: func(a *Artifacts, r *Reporter) {
			if err := a.Primal.Validate(); err != nil {
				r.Violationf(NoLoc, "%v", err)
			}
		},
	})
	Register(&Rule{
		Name:     "dual-components",
		Stage:    StageDual,
		Severity: Error,
		Doc: "dual bridging components partition the nets, #components = " +
			"#nets − #bridges (no extra loops), bridges join nets inside a " +
			"common part, and no component holds inter-T-ordered gadgets.",
		Applies: func(a *Artifacts) bool { return a.Dual != nil },
		Check: func(a *Artifacts, r *Reporter) {
			if err := a.Dual.Validate(); err != nil {
				r.Violationf(NoLoc, "%v", err)
			}
		},
	})
}

func registerPlaceRules() {
	Register(&Rule{
		Name:     "place-items",
		Stage:    StagePlace,
		Severity: Error,
		Doc: "placement input items are well formed: positive extents, " +
			"chains non-empty, boxes feed a consumer, nets pin onto known " +
			"items.",
		Applies: func(a *Artifacts) bool { return a.Placement != nil && a.Placement.Input != nil },
		Check: func(a *Artifacts, r *Reporter) {
			if err := a.Placement.Input.Validate(); err != nil {
				r.Violationf(NoLoc, "%v", err)
			}
		},
	})
	Register(&Rule{
		Name:     "place-overlap",
		Stage:    StagePlace,
		Severity: Error,
		Doc: "no two placed super-modules overlap in 3-D (placement " +
			"legality after annealing and compaction).",
		Applies: func(a *Artifacts) bool { return a.Placement != nil },
		Check: func(a *Artifacts, r *Reporter) {
			pl := a.Placement.Placed
			for _, pair := range a.Placement.Overlaps() {
				i, j := pair[0], pair[1]
				x, y := pl[i], pl[j]
				r.Violationf(LocItem(i).At("unit", max(x.X, y.X), max(x.Y, y.Y), max(x.Z, y.Z)),
					"items %d and %d overlap: %d×%d×%d@(%d,%d,%d) vs %d×%d×%d@(%d,%d,%d)",
					i, j, x.W, x.H, x.D, x.X, x.Y, x.Z, y.W, y.H, y.D, y.X, y.Y, y.Z)
			}
		},
	})
	Register(&Rule{
		Name:     "place-order",
		Stage:    StagePlace,
		Severity: Warn,
		Doc: "time-dependent super-modules respect their hard ordering " +
			"edges on the time (x) axis; residual violations survive only " +
			"as a soft penalty the geometry must stretch to resolve.",
		Applies: func(a *Artifacts) bool { return a.Placement != nil && a.Placement.Input != nil },
		Check: func(a *Artifacts, r *Reporter) {
			pos := a.Placement.Placed
			for _, e := range a.Placement.OrderViolations() {
				b, cur := pos[e.Before], pos[e.After]
				r.Violationf(LocItem(e.After).At("unit", cur.X, cur.Y, cur.Z),
					"item %d must follow item %d on x but spans [%d,%d) vs [%d,%d)",
					e.After, e.Before, cur.X, cur.X+cur.W, b.X, b.X+b.W)
			}
		},
	})
	Register(&Rule{
		Name:     "schedule-order",
		Stage:    StagePlace,
		Severity: Error,
		Doc: "ICM measurement-ordering constraints (intra/inter-T) hold " +
			"when each rail's measurement time is read off the placement: " +
			"cross-item happens-before pairs must not be inverted on x.",
		Applies: func(a *Artifacts) bool { return a.Placement != nil && a.Placement.Input != nil },
		Check: func(a *Artifacts, r *Reporter) {
			for _, inv := range a.Placement.AuditSchedule().Inverted {
				r.Violationf(LocRail(inv.After).WithItem(inv.AfterItem),
					"%s constraint inverted: rail %d (item %d, x=%d) measures before rail %d (item %d, x=%d)",
					inv.Kind, inv.Before, inv.BeforeItem, inv.BeforeX, inv.After, inv.AfterItem, inv.AfterX)
			}
		},
	})
}

func registerRouteRules() {
	hasRouting := func(a *Artifacts) bool {
		return a.Routing != nil && a.RouteGrid != nil && a.RouteNets != nil
	}
	Register(&Rule{
		Name:     "route-connectivity",
		Stage:    StageRoute,
		Severity: Error,
		Doc: "every routed dual net covers all of its pins with one " +
			"6-connected tree of cells; failed nets are reported by ID.",
		Applies: hasRouting,
		Check: func(a *Artifacts, r *Reporter) {
			for _, n := range a.RouteNets {
				cells, ok := a.Routing.Routes[n.ID]
				if !ok {
					r.Violationf(LocNet(n.ID), "net %d failed to route", n.ID)
					continue
				}
				set := make(map[route.Cell]bool, len(cells))
				for _, c := range cells {
					set[c] = true
				}
				missing := false
				for _, p := range n.Pins {
					if !set[p] {
						r.Violationf(LocNet(n.ID).At("cell", p.X, p.Y, p.Z),
							"net %d route misses pin (%d,%d,%d)", n.ID, p.X, p.Y, p.Z)
						missing = true
					}
				}
				if !missing && !route.Connected(set, n.Pins) {
					r.Violationf(LocNet(n.ID), "net %d route tree is disconnected", n.ID)
				}
			}
		},
	})
	Register(&Rule{
		Name:     "route-capacity",
		Stage:    StageRoute,
		Severity: Error,
		Doc: "when the router reports zero overflow, no grid cell carries " +
			"more routed nets than its capacity (2 on the doubled lattice: " +
			"two dual strands at half-unit offsets keep one-unit " +
			"separation); reported overflow itself is a violation.",
		Applies: hasRouting,
		Check: func(a *Artifacts, r *Reporter) {
			if a.Routing.Overflow > 0 {
				r.Violationf(NoLoc, "router finished with %d overflowed cells after %d rounds",
					a.Routing.Overflow, a.Routing.Iters)
				return
			}
			capacity := a.RouteCapacity
			if capacity <= 0 {
				capacity = 1
			}
			users := map[route.Cell]int{}
			owner := map[route.Cell]int{}
			for _, id := range a.Routing.NetIDs() {
				for _, c := range a.Routing.Routes[id] {
					users[c]++
					if users[c] > capacity {
						r.Violationf(LocNet(id).At("cell", c.X, c.Y, c.Z),
							"cell (%d,%d,%d) carries %d nets (capacity %d), nets %d and %d among them",
							c.X, c.Y, c.Z, users[c], capacity, owner[c], id)
					}
					owner[c] = id
				}
			}
		},
	})
	Register(&Rule{
		Name:     "route-squeeze",
		Stage:    StageRoute,
		Severity: Warn,
		Doc: "routes crossing distillation-box walls (soft-obstacle " +
			"passes) are squeezes; healthy routings have none, and the " +
			"result's squeeze counter must match the recount.",
		Applies: hasRouting,
		Check: func(a *Artifacts, r *Reporter) {
			squeezed := 0
			for _, id := range a.Routing.NetIDs() {
				for _, c := range a.Routing.Routes[id] {
					if a.RouteGrid.Blocked(c) {
						squeezed++
						r.Violationf(LocNet(id).At("cell", c.X, c.Y, c.Z),
							"net %d squeezes through blocked cell (%d,%d,%d)", id, c.X, c.Y, c.Z)
					}
				}
			}
			if squeezed != a.Routing.Squeezed {
				r.Errorf(NoLoc, "squeeze recount %d does not match result counter %d",
					squeezed, a.Routing.Squeezed)
			}
		},
	})
}

func registerGeometryRules() {
	hasGeom := func(a *Artifacts) bool { return a.Geometry != nil }
	Register(&Rule{
		Name:     "geom-lattice",
		Stage:    StageGeometry,
		Severity: Error,
		Doc: "every defect segment is axis-aligned and lies on its kind's " +
			"sub-lattice (primal on even, dual on odd doubled coordinates).",
		Applies: hasGeom,
		Check: func(a *Artifacts, r *Reporter) {
			for i := range a.Geometry.Defects {
				d := &a.Geometry.Defects[i]
				for _, s := range d.Segs {
					if !s.Valid() {
						r.Violationf(LocDefect(i).At("doubled", s.A.X, s.A.Y, s.A.Z),
							"defect %q segment %v is not axis-aligned", d.Label, s)
						continue
					}
					if !s.A.OnLattice(d.Kind) || !s.B.OnLattice(d.Kind) {
						r.Violationf(LocDefect(i).At("doubled", s.A.X, s.A.Y, s.A.Z),
							"defect %q segment %v lies off the %s lattice", d.Label, s, d.Kind)
					}
				}
			}
		},
	})
	Register(&Rule{
		Name:     "geom-connected",
		Stage:    StageGeometry,
		Severity: Error,
		Doc: "each defect structure is one connected set of segments — a " +
			"dropped or displaced segment splits the strand and breaks the " +
			"encoded braiding.",
		Applies: hasGeom,
		Check: func(a *Artifacts, r *Reporter) {
			for i := range a.Geometry.Defects {
				d := &a.Geometry.Defects[i]
				if comps := segComponents(d.Segs); comps > 1 {
					r.Violationf(LocDefect(i), "defect %q splits into %d disconnected pieces",
						d.Label, comps)
				}
			}
		},
	})
	Register(&Rule{
		Name:     "geom-separation",
		Stage:    StageGeometry,
		Severity: Error,
		Doc: "disjoint same-kind defect structures keep at least one paper " +
			"unit of clearance (the error-rate constraint); when routing " +
			"context with cell capacity > 1 is present, dual–dual " +
			"clearance is delegated to route-capacity (the integer " +
			"skeleton cannot represent the half-unit strand interleave).",
		Applies: hasGeom,
		Check: func(a *Artifacts, r *Reporter) {
			g := a.Geometry
			// Pipeline-realized dual strands legally share unit cells at
			// half-unit offsets (capacity 2); the skeleton draws both at
			// the cell centre, so the dual–dual check would false-fire.
			skipDual := a.Routing != nil && a.RouteCapacity > 1
			for i := 0; i < len(g.Defects); i++ {
				for j := i + 1; j < len(g.Defects); j++ {
					a1, b1 := &g.Defects[i], &g.Defects[j]
					if a1.Kind != b1.Kind {
						continue
					}
					if skipDual && a1.Kind == geom.Dual {
						continue
					}
					if !a1.Bounds().Inflate(geom.Unit).Overlaps(b1.Bounds()) {
						continue
					}
					reported := false
					for _, sa := range a1.Segs {
						if reported {
							break
						}
						for _, sb := range b1.Segs {
							if dd := geom.Dist(sa, sb); dd < geom.Unit {
								r.Violationf(LocDefect(i).At("doubled", sa.A.X, sa.A.Y, sa.A.Z),
									"%s defects %d (%q) and %d (%q) at distance %d < %d: %v vs %v",
									a1.Kind, i, a1.Label, j, b1.Label, dd, geom.Unit, sa, sb)
								reported = true
								break
							}
						}
					}
				}
			}
		},
	})
}

// segComponents counts the connected components of a segment set, joining
// segments that touch (an endpoint of one lies on the other).
func segComponents(segs []geom.Seg) int {
	n := len(segs)
	if n == 0 {
		return 0
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	touches := func(s, t geom.Seg) bool {
		return s.Contains(t.A) || s.Contains(t.B) || t.Contains(s.A) || t.Contains(s.B)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if touches(segs[i], segs[j]) {
				union(i, j)
			}
		}
	}
	comps := 0
	for i := range parent {
		if find(i) == i {
			comps++
		}
	}
	return comps
}

func registerCrossStageRules() {
	Register(&Rule{
		Name:     "braiding-preserved",
		Stage:    StageDual,
		Severity: Error,
		Doc: "the PD graph's primal–dual incidence is isomorphic before and " +
			"after I-shaped simplification and dual bridging: every merged " +
			"component braids exactly the module groups its member nets " +
			"braided originally.",
		Applies: func(a *Artifacts) bool {
			return a.Graph != nil && a.Simplified != nil && a.Dual != nil
		},
		Check: func(a *Artifacts, r *Reporter) {
			s, g := a.Simplified, a.Graph
			for _, comp := range a.Dual.Components() {
				rep := a.Dual.Component(comp[0])
				// Incidence before: groups of the member nets' original
				// modules. Incidence after: groups reachable through the
				// component's surviving parts.
				want := map[int]bool{}
				for _, nid := range comp {
					for _, m := range g.Nets[nid].Modules() {
						want[s.GroupOf(m)] = true
					}
				}
				got := map[int]bool{}
				for _, part := range a.Dual.ComponentParts(rep) {
					for _, m := range s.PartModules(part) {
						got[s.GroupOf(m)] = true
					}
				}
				for grp := range want {
					if !got[grp] {
						r.Violationf(LocNet(rep).WithItem(-1),
							"component %d lost its braid with module group %d", rep, grp)
					}
				}
				for grp := range got {
					if !want[grp] {
						r.Violationf(LocNet(rep),
							"component %d gained a spurious braid with module group %d", rep, grp)
					}
				}
			}
		},
	})
	Register(&Rule{
		Name:     "pins-cover-braiding",
		Stage:    StagePlace,
		Severity: Error,
		Doc: "every dual component's placement pins land on exactly the " +
			"super-modules holding the groups it braids — the braiding " +
			"relation survives item construction and placement.",
		Applies: func(a *Artifacts) bool {
			return a.Graph != nil && a.Simplified != nil && a.Dual != nil &&
				a.Placement != nil && a.Placement.Input != nil
		},
		Check: func(a *Artifacts, r *Reporter) {
			s, g := a.Simplified, a.Graph
			// Item of each group, via the chain payloads.
			itemOfGroup := map[int]int{}
			for _, it := range a.Placement.Input.Items {
				for _, grp := range it.Chain {
					itemOfGroup[grp] = it.ID
				}
			}
			for _, comp := range a.Dual.Components() {
				rep := a.Dual.Component(comp[0])
				want := map[int]bool{}
				for _, nid := range comp {
					for _, m := range g.Nets[nid].Modules() {
						it, ok := itemOfGroup[s.GroupOf(m)]
						if !ok {
							r.Violationf(LocNet(rep).WithItem(-1),
								"component %d braids group %d which no item holds", rep, s.GroupOf(m))
							continue
						}
						want[it] = true
					}
				}
				got := map[int]bool{}
				for _, pin := range a.Placement.Input.Nets[rep] {
					got[pin.Item] = true
				}
				for it := range want {
					if !got[it] {
						r.Violationf(LocNet(rep).WithItem(it),
							"component %d has no pin on item %d despite braiding it", rep, it)
					}
				}
				for it := range got {
					if !want[it] {
						r.Violationf(LocNet(rep).WithItem(it),
							"component %d pins onto item %d it does not braid", rep, it)
					}
				}
			}
		},
	})
	Register(&Rule{
		Name:     "volume-consistency",
		Stage:    StageGeometry,
		Severity: Error,
		Doc: "the exported geometry matches the placement it was realized " +
			"from: every distillation box sits at its placed position, " +
			"every chain skeleton stays inside its super-module's box, and " +
			"routed dual strands stay inside their net's routed extent.",
		Applies: func(a *Artifacts) bool { return a.Geometry != nil && a.Placement != nil },
		Check: func(a *Artifacts, r *Reporter) {
			checkBoxesMatchPlacement(a, r)
			checkChainsInsideItems(a, r)
			checkDualsInsideRoutes(a, r)
		},
	})
}

// checkBoxesMatchPlacement verifies the distillation boxes of the geometry
// are exactly the placed box items, at their placed coordinates.
func checkBoxesMatchPlacement(a *Artifacts, r *Reporter) {
	type key struct {
		kind    geom.BoxKind
		x, y, z int
	}
	wanted := map[key]int{}
	nBoxes := 0
	for _, it := range a.Placement.Placed {
		if it.Item == nil || it.Item.Kind != place.KindBox {
			continue
		}
		nBoxes++
		wanted[key{it.Item.Box, it.X * geom.Unit, it.Y * geom.Unit, it.Z * geom.Unit}]++
	}
	if len(a.Geometry.Boxes) != nBoxes {
		r.Violationf(NoLoc, "geometry has %d distillation boxes, placement placed %d",
			len(a.Geometry.Boxes), nBoxes)
	}
	for _, b := range a.Geometry.Boxes {
		k := key{b.Kind, b.At.X, b.At.Y, b.At.Z}
		if wanted[k] == 0 {
			r.Violationf(NoLoc.At("doubled", b.At.X, b.At.Y, b.At.Z),
				"geometry box %s at (%d,%d,%d) matches no placed box item",
				b.Kind, b.At.X, b.At.Y, b.At.Z)
			continue
		}
		wanted[k]--
	}
}

// checkChainsInsideItems verifies each chain defect's skeleton lies within
// the content box of the placement item it was realized from (bounding-
// volume consistency between placement and export).
func checkChainsInsideItems(a *Artifacts, r *Reporter) {
	for i := range a.Geometry.Defects {
		d := &a.Geometry.Defects[i]
		if d.Kind != geom.Primal {
			continue
		}
		id, ok := labelID(d.Label, "chain")
		if !ok {
			continue
		}
		if id < 0 || id >= len(a.Placement.Placed) || a.Placement.Placed[id].Item == nil {
			r.Violationf(LocDefect(i).WithItem(id),
				"chain defect %q references unknown placement item %d", d.Label, id)
			continue
		}
		it := a.Placement.Placed[id]
		content := geom.Box{
			Min: geom.Pt(it.X*geom.Unit, it.Y*geom.Unit, it.Z*geom.Unit),
			Max: geom.Pt((it.X+it.W-it.Item.Pad)*geom.Unit,
				(it.Y+it.H-it.Item.Pad)*geom.Unit,
				(it.Z+it.D-it.Item.Pad)*geom.Unit),
		}
		b := d.Bounds()
		if b.Empty() {
			continue
		}
		if !content.ContainsPoint(b.Min) || !content.ContainsPoint(b.Max) {
			r.Violationf(LocDefect(i).WithItem(id).At("doubled", b.Min.X, b.Min.Y, b.Min.Z),
				"chain defect %q spans %v..%v outside its item's box %v..%v",
				d.Label, b.Min, b.Max, content.Min, content.Max)
		}
	}
}

// checkDualsInsideRoutes verifies each dual strand's skeleton lies within
// the bounding box of the route cells it was realized from.
func checkDualsInsideRoutes(a *Artifacts, r *Reporter) {
	if a.Routing == nil {
		return
	}
	off := a.RouteOffset
	for i := range a.Geometry.Defects {
		d := &a.Geometry.Defects[i]
		if d.Kind != geom.Dual {
			continue
		}
		id, ok := labelID(d.Label, "net")
		if !ok {
			continue
		}
		cells, ok := a.Routing.Routes[id]
		if !ok {
			r.Violationf(LocDefect(i).WithNet(id),
				"dual defect %q has no routed net %d behind it", d.Label, id)
			continue
		}
		allowed := geom.EmptyBox()
		for _, c := range cells {
			allowed = allowed.Expand(geom.Pt(
				(c.X-off.X)*geom.Unit+1, (c.Y-off.Y)*geom.Unit+1, (c.Z-off.Z)*geom.Unit+1))
		}
		b := d.Bounds()
		if b.Empty() {
			continue
		}
		if !allowed.ContainsPoint(b.Min) || !allowed.ContainsPoint(b.Max) {
			r.Violationf(LocDefect(i).WithNet(id).At("doubled", b.Min.X, b.Min.Y, b.Min.Z),
				"dual defect %q spans %v..%v outside its route's extent %v..%v",
				d.Label, b.Min, b.Max, allowed.Min, allowed.Max)
		}
	}
}

// labelID parses labels of the form "<prefix><id>" emitted by the
// geometry realization ("chain3", "net7").
func labelID(label, prefix string) (int, bool) {
	if !strings.HasPrefix(label, prefix) {
		return 0, false
	}
	id, err := strconv.Atoi(label[len(prefix):])
	if err != nil {
		return 0, false
	}
	return id, true
}
