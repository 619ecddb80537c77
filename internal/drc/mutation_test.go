package drc_test

// Seeded-mutation harness: every rule must catch the corruption it
// guards against. Each case compiles a known-good circuit through the
// full pipeline, corrupts one artifact in a targeted way, and asserts
// that exactly the intended rule fires — with the declared stage and a
// sensible location — so the checker itself is verified, not just the
// pipeline.

import (
	"context"
	"testing"

	"tqec/internal/bridge"
	"tqec/internal/compress"
	"tqec/internal/drc"
	"tqec/internal/geom"
	"tqec/internal/icm"
	"tqec/internal/place"
	"tqec/internal/revlib"
)

// goodArtifacts compiles an embedded sample and returns its artifact
// bundle, pristine. threecnot is the cheap default; cases that need
// several placement items use mixed4.
func goodArtifacts(t *testing.T, sample string) *drc.Artifacts {
	t.Helper()
	c, err := revlib.ParseString(revlib.Samples[sample])
	if err != nil {
		t.Fatal(err)
	}
	res, err := compress.CompileContext(context.Background(), c, compress.Options{Seed: 1, KeepGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.DRCArtifacts == nil {
		t.Fatal("compile kept no DRC artifacts")
	}
	return res.DRCArtifacts
}

func firstPrimalDefect(t *testing.T, a *drc.Artifacts) int {
	t.Helper()
	for i := range a.Geometry.Defects {
		if a.Geometry.Defects[i].Kind == geom.Primal {
			return i
		}
	}
	t.Fatal("no primal defect in geometry")
	return -1
}

func TestMutationsTripTheirRule(t *testing.T) {
	cases := []struct {
		rule   string
		stage  drc.Stage
		sample string // defaults to threecnot
		mutate func(t *testing.T, a *drc.Artifacts)
		loc    func(v drc.Violation) bool // optional check on one violation
	}{
		{
			rule:  "icm-structure",
			stage: drc.StageICM,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				if len(a.ICM.CNOTs) == 0 {
					t.Fatal("no CNOTs to corrupt")
				}
				a.ICM.CNOTs[0].Control = -1
			},
		},
		{
			rule:  "pdgraph-structure",
			stage: drc.StagePDGraph,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				n := a.Graph.Nets[0]
				n.ControlSecond = n.ControlFirst
			},
		},
		{
			rule:  "simplify-parts",
			stage: drc.StageSimplify,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				if len(a.Simplified.Merges) == 0 {
					t.Fatal("no I-shape merges to corrupt")
				}
				// Point the merge at a non-bridge part: the merged net now
				// owns zero bridge parts.
				a.Simplified.Merges[0].Part = 0
			},
		},
		{
			rule:  "primal-chains",
			stage: drc.StagePrimal,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// Duplicate a group inside its own chain: the chains no
				// longer partition the groups.
				c0 := a.Primal.Chains[0]
				a.Primal.Chains[0] = append(c0, c0[0])
			},
		},
		{
			rule:  "dual-components",
			stage: drc.StageDual,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// A phantom bridge breaks #components = #nets − #bridges.
				a.Dual.Bridges = append(a.Dual.Bridges, bridge.DualBridge{A: 0, B: 0, Part: 0})
			},
		},
		{
			rule:   "braiding-preserved",
			stage:  drc.StageDual,
			sample: "mixed4",
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// An I-merged net's surviving bridge part records the
				// original control modules, so rewriting the net's live
				// control fields desynchronizes the declared incidence from
				// the parts — the component still braids the old control
				// group. The rule diffs incidence per component, so the
				// mutation must remove the group from the component's whole
				// want-set: pick a merged net whose control group no other
				// member module shares.
				s := a.Simplified
				for _, comp := range a.Dual.Components() {
					for _, nid := range comp {
						parts := s.NetParts(nid)
						if len(parts) != 2 || !s.IsBridgePart(parts[0]) {
							continue // not I-merged: parts would follow the edit
						}
						n := a.Graph.Nets[nid]
						cg := s.GroupOf(n.ControlFirst)
						unique := true
						for _, other := range comp {
							for slot, m := range a.Graph.Nets[other].Modules() {
								if other == nid && slot != 2 {
									continue // the control slots being rewritten
								}
								if s.GroupOf(m) == cg {
									unique = false
								}
							}
						}
						if unique {
							n.ControlFirst, n.ControlSecond = n.Target, n.Target
							return
						}
					}
				}
				t.Fatal("no merged net with a component-unique control group")
			},
			loc: func(v drc.Violation) bool { return v.Loc.Net >= 0 },
		},
		{
			rule:  "place-items",
			stage: drc.StagePlace,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				a.Placement.Input.Items[0].W = 0
			},
		},
		{
			rule:   "place-overlap",
			stage:  drc.StagePlace,
			sample: "mixed4",
			mutate: func(t *testing.T, a *drc.Artifacts) {
				pl := a.Placement.Placed
				i, j := -1, -1
				for k := range pl {
					if pl[k].Item == nil {
						continue
					}
					if i < 0 {
						i = k
					} else {
						j = k
						break
					}
				}
				if j < 0 {
					t.Fatal("need two placed items")
				}
				pl[j].X, pl[j].Y, pl[j].Z = pl[i].X, pl[i].Y, pl[i].Z
			},
			loc: func(v drc.Violation) bool { return v.Loc.Item >= 0 && v.Loc.HasPoint },
		},
		{
			rule:   "place-order",
			stage:  drc.StagePlace,
			sample: "mixed4",
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// Inject an ordering edge the placement inverts.
				pl := a.Placement.Placed
				in := a.Placement.Input
				for i := range in.Items {
					for j := range in.Items {
						if pl[i].X < pl[j].X {
							in.OrderEdges = append(in.OrderEdges, place.OrderEdge{Before: j, After: i})
							return
						}
					}
				}
				t.Fatal("no two items with distinct x")
			},
			loc: func(v drc.Violation) bool { return v.Loc.Item >= 0 },
		},
		{
			rule:   "schedule-order",
			stage:  drc.StagePlace,
			sample: "mixed4",
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// Add a happens-before constraint the placement inverts:
				// before-rail measured strictly right of after-rail.
				railItem := a.Placement.Input.RailItem
				for rb := range railItem {
					for ra := range railItem {
						ib, ia := railItem[rb], railItem[ra]
						if ib == ia {
							continue
						}
						if a.Placement.Placed[ib].X > a.Placement.Placed[ia].X {
							a.ICM.Constraints = append(a.ICM.Constraints,
								icm.Constraint{Before: rb, After: ra, Kind: "intra"})
							return
						}
					}
				}
				t.Fatal("no invertible rail pair")
			},
			loc: func(v drc.Violation) bool { return v.Loc.Rail >= 0 && v.Loc.Item >= 0 },
		},
		{
			rule:   "pins-cover-braiding",
			stage:  drc.StagePlace,
			sample: "mixed4",
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// Pin a component onto an item it does not braid.
				nets := a.Placement.Input.Nets
				for rep, pins := range nets {
					braided := map[int]bool{}
					for _, p := range pins {
						braided[p.Item] = true
					}
					for id := range a.Placement.Input.Items {
						if !braided[id] {
							nets[rep] = append(pins, place.Pin{Item: id})
							return
						}
					}
				}
				t.Fatal("every item braided by every net")
			},
			loc: func(v drc.Violation) bool { return v.Loc.Net >= 0 && v.Loc.Item >= 0 },
		},
		{
			rule:  "route-connectivity",
			stage: drc.StageRoute,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// Drop a pin's cell from its net's route.
				for _, n := range a.RouteNets {
					cells, ok := a.Routing.Routes[n.ID]
					if !ok || len(n.Pins) == 0 {
						continue
					}
					out := cells[:0:0]
					for _, c := range cells {
						if c != n.Pins[0] {
							out = append(out, c)
						}
					}
					a.Routing.Routes[n.ID] = out
					return
				}
				t.Fatal("no routed net with pins")
			},
			loc: func(v drc.Violation) bool { return v.Loc.Net >= 0 },
		},
		{
			rule:  "route-capacity",
			stage: drc.StageRoute,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				a.Routing.Overflow = 2
			},
		},
		{
			rule:  "route-squeeze",
			stage: drc.StageRoute,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// Desynchronize the squeeze counter from the recount.
				a.Routing.Squeezed += 5
			},
		},
		{
			rule:  "geom-lattice",
			stage: drc.StageGeometry,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// A primal segment on odd (dual) coordinates is off-lattice.
				i := firstPrimalDefect(t, a)
				d := &a.Geometry.Defects[i]
				d.Segs = append(d.Segs, geom.SegOf(geom.Pt(1, 1, 1), geom.Pt(1, 1, 3)))
			},
			loc: func(v drc.Violation) bool { return v.Loc.Defect >= 0 && v.Loc.HasPoint },
		},
		{
			rule:  "geom-connected",
			stage: drc.StageGeometry,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// A far-away stray segment splits the defect structure.
				d := &a.Geometry.Defects[0]
				d.Segs = append(d.Segs, geom.SegOf(geom.Pt(-100, -100, -100), geom.Pt(-98, -100, -100)))
			},
			loc: func(v drc.Violation) bool { return v.Loc.Defect >= 0 },
		},
		{
			rule:  "geom-separation",
			stage: drc.StageGeometry,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				// A duplicated primal structure sits at distance zero from
				// its original.
				i := firstPrimalDefect(t, a)
				a.Geometry.Defects = append(a.Geometry.Defects, a.Geometry.Defects[i])
			},
			loc: func(v drc.Violation) bool { return v.Loc.Defect >= 0 },
		},
		{
			rule:  "volume-consistency",
			stage: drc.StageGeometry,
			mutate: func(t *testing.T, a *drc.Artifacts) {
				for i := range a.Geometry.Defects {
					d := &a.Geometry.Defects[i]
					if d.Kind == geom.Primal && len(d.Label) > 5 && d.Label[:5] == "chain" {
						d.Label = "chain9999"
						return
					}
				}
				t.Fatal("no chain defect to corrupt")
			},
			loc: func(v drc.Violation) bool { return v.Loc.Defect >= 0 },
		},
	}

	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			sample := tc.sample
			if sample == "" {
				sample = "threecnot"
			}
			a := goodArtifacts(t, sample)
			opt := drc.Options{Rules: []string{tc.rule}}

			before := drc.Run(a, opt)
			if len(before.Ran) != 1 {
				t.Fatalf("rule %s did not run on pristine artifacts (skipped: %v)", tc.rule, before.Skipped)
			}
			if n := len(before.Violations); n != 0 {
				t.Fatalf("rule %s fires %d times on pristine artifacts: %v", tc.rule, n, before.Violations)
			}

			tc.mutate(t, a)
			after := drc.Run(a, opt)
			if len(after.Violations) == 0 {
				t.Fatalf("rule %s missed its corruption", tc.rule)
			}
			for _, v := range after.Violations {
				if v.Rule != tc.rule {
					t.Errorf("violation attributed to rule %s, want %s", v.Rule, tc.rule)
				}
				if v.PipelineStage() != tc.stage {
					t.Errorf("violation attributed to stage %s, want %s", v.PipelineStage(), tc.stage)
				}
			}
			if tc.loc != nil {
				ok := false
				for _, v := range after.Violations {
					if tc.loc(v) {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("no violation carries the expected location: %v", after.Violations)
				}
			}
		})
	}
}

// TestMutationIsolation re-checks that a corruption in one stage does not
// silently leak into unrelated rules' clean verdicts: the full pristine
// run is clean across every rule.
func TestPristineFullRunClean(t *testing.T) {
	a := goodArtifacts(t, "threecnot")
	rep := drc.Run(a, drc.Options{})
	if !rep.Clean() || rep.Warnings() != 0 {
		t.Fatalf("pristine pipeline not clean:\n%s", rep.String())
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("rules unexpectedly skipped: %v", rep.Skipped)
	}
	if len(rep.Ran) != len(drc.Rules()) {
		t.Fatalf("ran %d of %d rules", len(rep.Ran), len(drc.Rules()))
	}
}
