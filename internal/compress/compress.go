// Package compress orchestrates the seven-stage TQEC circuit compression
// pipeline of the paper (Fig. 5): preprocess/gate decomposition, PD-graph
// generation, I-shaped simplification, flipping-operation primal bridging,
// iterative dual bridging, 2.5-D module placement, and dual-defect net
// routing.
//
// Two modes are provided:
//
//	Full     — the paper's algorithm (simultaneous primal+dual bridging).
//	DualOnly — the Hsu et al. DAC'21 baseline [10]: no I-shaped
//	           simplification and no primal bridging; every module is its
//	           own B*-tree node and only dual bridging runs.
package compress

import (
	"context"
	"fmt"
	"slices"
	"time"

	"tqec/internal/bridge"
	"tqec/internal/canonical"
	"tqec/internal/circuit"
	"tqec/internal/decompose"
	"tqec/internal/drc"
	"tqec/internal/geom"
	"tqec/internal/icm"
	"tqec/internal/journal"
	"tqec/internal/obs"
	"tqec/internal/pdgraph"
	"tqec/internal/place"
	"tqec/internal/route"
	"tqec/internal/simplify"
)

// Mode selects the compression algorithm.
type Mode int

// Pipeline modes.
const (
	// Full runs the paper's simultaneous primal and dual bridging.
	Full Mode = iota
	// DualOnly reproduces the dual-bridging-only baseline of [10].
	DualOnly
	// DeformOnly performs topological deformation without any bridging
	// (the paper's Fig. 1(c) rung): modules are placed as-is and every
	// dual net routes separately.
	DeformOnly
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case DualOnly:
		return "dual-only"
	case DeformOnly:
		return "deform-only"
	default:
		return "full"
	}
}

// Effort scales the optimization budget without changing any algorithmic
// decision.
type Effort int

// Effort levels.
const (
	EffortFast Effort = iota
	EffortNormal
	EffortHigh
)

// placeMoves is the SA move budget. It is (nearly) a fixed compute budget
// per effort level, NOT scaled with problem size: the paper's analysis of
// [10] hinges on exactly this — under a bounded optimization budget, a
// 2.5-D B*-tree with many more nodes anneals to a worse floorplan, which
// is how primal bridging's node reduction turns into volume.
func (e Effort) placeMoves(items int) int {
	base := 6000 + 4*items
	switch e {
	case EffortFast:
		// keep base
	case EffortNormal:
		base *= 4
	case EffortHigh:
		base *= 12
	}
	if base > 120000 {
		base = 120000
	}
	return base
}

func (e Effort) routeIters() int {
	switch e {
	case EffortFast:
		return 4
	case EffortHigh:
		return 16
	default:
		return 8
	}
}

// Options configures a compilation.
type Options struct {
	Mode   Mode
	Seed   int64
	Effort Effort
	// MeasurementSideIShape also merges measurement-side control pairs in
	// the I-shaped simplification (an extension of the paper's
	// initialization-side rule).
	MeasurementSideIShape bool
	// KeepGeometry materializes the final 3-D geometric description (for
	// visualization; costs memory on large circuits).
	KeepGeometry bool
	// SkipRouting reports placement-level results only (used by very
	// large benchmark sweeps where routing dominates runtime).
	SkipRouting bool
	// NoCompaction disables the post-annealing force-directed axis
	// compaction (Paetznick–Fowler-style pulling); used by ablations.
	NoCompaction bool
	// PrimalRestarts is the number of greedy primal-bridging runs to try
	// (deterministic first, then seeded random starts), keeping the one
	// with the fewest chains. 0 or 1 = single deterministic run.
	PrimalRestarts int
	// DRC runs the design-rule checker after every stage transition and
	// attaches the merged report to Result.DRC. Violations do not abort
	// the pipeline; callers decide how strictly to treat the report.
	DRC bool
}

// Result carries the outcome of every pipeline stage.
type Result struct {
	Name string
	Mode Mode

	// Stage artifacts.
	CliffordT  *circuit.Circuit
	ICM        *icm.Rep
	Graph      *pdgraph.Graph
	Simplified *simplify.Result
	Primal     *bridge.PrimalResult
	Dual       *bridge.DualResult
	Placement  *place.Result
	Routing    *route.Result
	Geometry   *geom.Description

	// Headline numbers.
	CanonicalVolume int // closed form 6qg + boxes (paper Table 2)
	NumModules      int // PD-graph modules (Table 1 "#Modules")
	NumNodes        int // B*-tree nodes after primal bridging ("#Nodes")
	IShapeMerges    int
	DualComponents  int // nets remaining after dual bridging
	PlacedVolume    int // content bounding box of placed super-modules
	Volume          int // final volume including routed dual defects
	Wirelength      int
	RouteOverflow   int
	RouteFailed     int
	RouteSqueezed   int // route cells crossing box walls (should be ~0)
	Runtime         time.Duration

	// DRC is the staged design-rule-check report (Options.DRC).
	DRC *drc.Report
	// DRCArtifacts is the artifact bundle the checker ran over (always
	// populated); tools and tests can re-run individual rules against it.
	DRCArtifacts *drc.Artifacts

	// StageTimes records per-stage wall-clock in pipeline order (skipped
	// stages are absent). The compile service feeds these into its
	// per-stage latency histograms.
	StageTimes []StageTime

	// Journal is the compression flight-recorder document: the per-stage
	// volume waterfall, hot-loop trajectories, and warnings. Populated
	// only when a journal.Recorder was installed in the compile's context
	// (tqecc -explain, tqecd jobs); nil otherwise, and an unjournaled run
	// is bit-identical to a journaled one.
	Journal *journal.Journal

	// Seed-restart accounting, populated by CompileBest: how many seeds
	// ran and, when some (but not all) failed, which ones and why.
	SeedsTried int
	SeedErrors []SeedError
}

// StageTime is one pipeline stage's wall-clock.
type StageTime struct {
	Stage    string
	Duration time.Duration
}

// CompileContext runs the pipeline under a context. Cancellation and
// deadline expiry are observed at stage transitions and inside the two
// iterative hot loops (placement annealing and routing negotiation), so
// a runaway compile stops within one iteration boundary of ctx firing
// and returns ctx's error.
func CompileContext(ctx context.Context, c *circuit.Circuit, opt Options) (*Result, error) {
	start := time.Now()
	lowered, err := decompose.ToCliffordT(c)
	if err != nil {
		return nil, fmt.Errorf("compress: decompose: %w", err)
	}
	rep, err := icm.FromCliffordT(lowered.Circuit)
	if err != nil {
		return nil, fmt.Errorf("compress: icm: %w", err)
	}
	return CompileICMContext(ctx, rep, c.Name, opt, start, lowered.Circuit)
}

// CompileICMContext runs the pipeline from an already-built ICM
// representation, with cancellation support (see CompileContext).
func CompileICMContext(ctx context.Context, rep *icm.Rep, name string, opt Options, start time.Time, lowered *circuit.Circuit) (*Result, error) {
	if start.IsZero() {
		start = time.Now()
	}
	// Journaling: when the context carries a flight recorder, every stage
	// emits started/done events (the latter with its volume-waterfall
	// entry) and the hot loops add progress heartbeats. The recorder view
	// is stamped with this compile's seed so the parallel restarts of a
	// multi-seed sweep stay attributable on the shared live feed. With no
	// recorder, jr is nil and every call is a nil no-op.
	jr := journal.FromContext(ctx)
	if jr != nil {
		jr = jr.WithSeed(opt.Seed)
		ctx = journal.WithRecorder(ctx, jr)
	}
	// canonical.Volume is the pure closed form the waterfall starts from.
	canonVol := canonical.Volume(rep)
	curVol := canonVol
	var waterfall []journal.StageEntry
	stageStart := time.Now()
	var stages []StageTime
	// Tracing: every executed stage becomes a span under the context's
	// current span; begin() hands the stage's inner loops a context
	// carrying that span so they can attach their own sub-spans
	// (anneal epochs, route rounds, dual passes). With no tracer in ctx,
	// begin() returns ctx itself and every span call is a nil no-op, so
	// the untraced pipeline runs the exact same instruction stream apart
	// from a handful of nil checks per stage.
	root := obs.FromContext(ctx)
	var stageSpan *obs.Span
	begin := func(stage string) context.Context {
		jr.StageStarted(stage)
		stageStart = time.Now()
		if root == nil {
			return ctx
		}
		stageSpan = root.StartChild(stage)
		return obs.ContextWithSpan(ctx, stageSpan)
	}
	mark := func(stage string) {
		stages = append(stages, StageTime{Stage: stage, Duration: time.Since(stageStart)})
		stageSpan.End()
		stageSpan = nil
	}
	// jrecord appends the just-marked stage's waterfall entry: volume
	// telescopes from the canonical closed form through the placed and
	// routed volumes (stages whose effect is realized later carry a zero
	// delta plus the mechanism counts that earn it), so the deltas sum
	// exactly from CanonicalVolume to the final Volume.
	jrecord := func(stage string, after int, mech map[string]int) {
		if jr == nil {
			return
		}
		e := journal.StageEntry{
			Stage:        stage,
			VolumeBefore: curVol,
			VolumeAfter:  after,
			Delta:        after - curVol,
			Mechanisms:   mech,
			DurationMS:   float64(stages[len(stages)-1].Duration) / float64(time.Millisecond),
		}
		waterfall = append(waterfall, e)
		jr.StageDone(e)
		curVol = after
	}
	// In -drc mode the artifact set grows as stages complete and the
	// checker runs at every stage transition (stage rules see exactly the
	// artifacts that exist so far; cross-stage rules fire at the
	// transition where their last input appears).
	art := &drc.Artifacts{Name: name, ICM: rep, RouteCapacity: routeCellCapacity}
	var drcRep *drc.Report
	check := func(st drc.Stage) {
		if !opt.DRC {
			return
		}
		if drcRep == nil {
			drcRep = &drc.Report{Name: name}
		}
		sp := root.StartChild("drc:" + st.String())
		batch := drc.RunStage(art, st)
		sp.SetAttr("rules_ran", len(batch.Ran))
		sp.SetAttr("violations", len(batch.Violations))
		sp.End()
		drcRep.Merge(batch)
	}
	check(drc.StageICM)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}

	begin("pdgraph")
	g, err := pdgraph.New(rep)
	if err != nil {
		stageSpan.End()
		return nil, fmt.Errorf("compress: pdgraph: %w", err)
	}
	art.Graph = g
	stageSpan.SetAttr("modules", g.NumModules())
	stageSpan.SetAttr("nets", len(g.Nets))
	mark("pdgraph")
	jrecord("pdgraph", curVol, map[string]int{"modules": g.NumModules(), "nets": len(g.Nets)})
	check(drc.StagePDGraph)

	var s *simplify.Result
	if opt.Mode == Full {
		begin("simplify")
		s = simplify.Run(g, simplify.Options{MeasurementSide: opt.MeasurementSideIShape})
		stageSpan.SetAttr("merges", s.NumMerges())
		mark("simplify")
		jrecord("simplify", curVol, map[string]int{"ishape_merges": s.NumMerges()})
	} else {
		// I-shaped simplification is off outside Full mode; the stage is
		// skipped entirely and therefore absent from StageTimes.
		s = simplify.Run(g, simplify.Options{Disabled: true})
	}
	art.Simplified = s
	check(drc.StageSimplify)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}

	begin("primal-bridge")
	var p *bridge.PrimalResult
	if opt.Mode == Full {
		restarts := opt.PrimalRestarts
		if restarts < 1 {
			restarts = 1
		}
		p = bridge.PrimalBest(s, opt.Seed, restarts, chainCap(g.NumModules()))
	} else {
		p = bridge.Singletons(s)
	}
	art.Primal = p
	stageSpan.SetAttr("nodes", p.NumNodes())
	mark("primal-bridge")
	if jr != nil {
		flipped := 0
		for _, ch := range p.Chains {
			if len(ch) > 1 {
				flipped++
			}
		}
		jrecord("primal-bridge", curVol, map[string]int{
			"chains":         p.NumNodes(),
			"flipped_chains": flipped,
			"flip_merges":    g.NumModules() - p.NumNodes(),
		})
	}
	check(drc.StagePrimal)

	dualCtx := begin("dual-bridge")
	var d *bridge.DualResult
	if opt.Mode == DeformOnly {
		d = bridge.DualNone(s)
	} else {
		d = bridge.DualContext(dualCtx, s)
	}
	art.Dual = d
	stageSpan.SetAttr("components", d.NumComponents())
	stageSpan.SetAttr("bridges", d.NumBridges())
	mark("dual-bridge")
	jrecord("dual-bridge", curVol, map[string]int{
		"bridges":    d.NumBridges(),
		"components": d.NumComponents(),
	})
	check(drc.StageDual)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}

	in, err := place.BuildItems(g, s, p, d)
	if err != nil {
		return nil, fmt.Errorf("compress: items: %w", err)
	}
	placeCtx := begin("place")
	pl, err := place.RunContext(placeCtx, in, place.Options{
		Seed:     opt.Seed,
		MaxMoves: opt.Effort.placeMoves(len(in.Items)),
	})
	if err != nil {
		stageSpan.End()
		return nil, fmt.Errorf("compress: place: %w", err)
	}
	if !opt.NoCompaction {
		place.Compact(pl)
	}
	// Repair any residual measurement-ordering violations the annealer's
	// soft penalty left behind; compaction alone never moves items right.
	place.LegalizeOrder(pl)
	if err := pl.CheckLegal(); err != nil {
		stageSpan.End()
		return nil, fmt.Errorf("compress: placement legality: %w", err)
	}
	art.Placement = pl
	stageSpan.SetAttr("moves", pl.SA.Moves)
	stageSpan.SetAttr("accepted", pl.SA.Accepted)
	stageSpan.SetAttr("volume", pl.Volume)
	mark("place")
	check(drc.StagePlace)

	res := &Result{
		Name:            name,
		Mode:            opt.Mode,
		CliffordT:       lowered,
		ICM:             rep,
		Graph:           g,
		Simplified:      s,
		Primal:          p,
		Dual:            d,
		Placement:       pl,
		CanonicalVolume: canonVol,
		NumModules:      g.NumModules(),
		NumNodes:        p.NumNodes(),
		IShapeMerges:    s.NumMerges(),
		DualComponents:  d.NumComponents(),
	}
	res.PlacedVolume = contentVolume(pl)
	res.Volume = res.PlacedVolume
	jrecord("place", res.PlacedVolume, map[string]int{
		"moves":    pl.SA.Moves,
		"accepted": pl.SA.Accepted,
	})

	if !opt.SkipRouting {
		routeCtx := begin("route")
		rr, grid, nets, off, err := routeNets(routeCtx, pl, opt)
		if err != nil {
			stageSpan.End()
			return nil, fmt.Errorf("compress: route: %w", err)
		}
		res.Routing = rr
		res.Wirelength = rr.Wirelength
		res.RouteOverflow = rr.Overflow
		res.RouteFailed = len(rr.Failed)
		res.RouteSqueezed = rr.Squeezed
		res.Volume = finalVolume(pl, rr, off)
		art.Routing = rr
		art.RouteGrid = grid
		art.RouteNets = nets
		art.RouteOffset = off
		stageSpan.SetAttr("rounds", rr.Iters)
		stageSpan.SetAttr("wirelength", rr.Wirelength)
		stageSpan.SetAttr("overflow", rr.Overflow)
		mark("route")
		jrecord("route", res.Volume, map[string]int{
			"rounds":     rr.Iters,
			"wirelength": rr.Wirelength,
			"overflow":   rr.Overflow,
			"failed":     len(rr.Failed),
			"squeezed":   rr.Squeezed,
		})
		if jr != nil {
			if rr.Overflow > 0 {
				jr.Warn("route-overflow", fmt.Sprintf("%d cells still shared after negotiation", rr.Overflow))
			}
			if len(rr.Failed) > 0 {
				jr.Warn("route-failed", fmt.Sprintf("%d nets failed to route", len(rr.Failed)))
			}
			if rr.Squeezed > 0 {
				jr.Warn("route-squeezed", fmt.Sprintf("%d route cells cross distillation-box walls", rr.Squeezed))
			}
		}
	}
	// The last two transitions also run when their stage was skipped, so
	// the report records the route/geometry rules as not checked.
	check(drc.StageRoute)
	if opt.KeepGeometry {
		begin("geometry")
		res.Geometry = realize(res)
		art.Geometry = res.Geometry
		mark("geometry")
		jrecord("geometry", curVol, nil)
	}
	check(drc.StageGeometry)
	res.DRC = drcRep
	res.DRCArtifacts = art
	res.StageTimes = stages
	res.Runtime = time.Since(start)
	if jr != nil {
		// The audit is a pure read over the finished result; it runs here
		// only to surface its anomalies as journal warnings.
		audit := res.AuditSchedule()
		if audit.Unresolved > 0 {
			jr.Warn("audit-unresolved", fmt.Sprintf("%d rails unresolved; schedule audit coverage incomplete", audit.Unresolved))
		}
		if !audit.Satisfied() {
			jr.Warn("audit-violated", fmt.Sprintf("%d measurement-ordering constraints violated", audit.Violations))
		}
		doc := jr.BuildDoc(name)
		doc.CanonicalVolume = canonVol
		doc.FinalVolume = res.Volume
		doc.Stages = waterfall
		res.Journal = doc
	}
	return res, nil
}

// chainCap bounds primal-bridging chain length near the cube root of the
// module count so super-modules stay well proportioned for placement.
func chainCap(modules int) int {
	c := 1
	for c*c*c < modules {
		c++
	}
	if c < 3 {
		c = 3
	}
	return c
}

// contentVolume computes the bounding volume of the placed super-modules
// with the packing margin stripped from the far sides (the margin exists
// only to guarantee inter-structure separation; the outermost structures
// have no neighbour beyond them).
func contentVolume(pl *place.Result) int {
	if len(pl.Placed) == 0 {
		return 0
	}
	minX, minY, minZ := 1<<30, 1<<30, 1<<30
	maxX, maxY, maxZ := -(1 << 30), -(1 << 30), -(1 << 30)
	for _, it := range pl.Placed {
		if it.Item == nil {
			continue
		}
		minX, maxX = min(minX, it.X), max(maxX, it.X+it.W-it.Item.Pad)
		minY, maxY = min(minY, it.Y), max(maxY, it.Y+it.H-it.Item.Pad)
		minZ, maxZ = min(minZ, it.Z), max(maxZ, it.Z+it.D-it.Item.Pad)
	}
	return dim(maxX-minX) * dim(maxY-minY) * dim(maxZ-minZ)
}

func dim(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// halo is the free routing band around the placement, in cells.
const halo = 2

// routeCellCapacity is the per-cell dual-strand capacity: the doubled
// lattice admits two dual strands per unit cell at half-unit offsets while
// keeping one-unit dual–dual separation (DESIGN.md §5b).
const routeCellCapacity = 2

// RoutePlacement routes the dual components of a finished placement and
// returns the routing result (exposed for ablation studies and tools; the
// pipeline calls it internally). Cancellation follows RouteContext: the
// router stops at the next net boundary when ctx fires.
func RoutePlacement(ctx context.Context, pl *place.Result, opt Options) (*route.Result, error) {
	rr, _, _, _, err := routeNets(ctx, pl, opt)
	return rr, err
}

// routeNets routes the dual components on a unit grid around the
// placement. Distillation boxes are hard obstacles; primal chain interiors
// are transparent to dual strands (the sub-lattices interleave), matching
// the paper's model where dual segments thread the primal rings.
func routeNets(ctx context.Context, pl *place.Result, opt Options) (*route.Result, *route.Grid, []route.Net, route.Cell, error) {
	grid, err := route.NewGrid(pl.NX+2*halo+1, pl.NY+2*halo+1, pl.NZ+2*halo+1)
	if err != nil {
		return nil, nil, nil, route.Cell{}, err
	}
	off := route.Cell{X: halo, Y: halo, Z: halo}
	for _, it := range pl.Placed {
		if it.Item == nil || it.Item.Kind != place.KindBox {
			continue
		}
		grid.BlockBox(
			route.Cell{X: it.X + off.X, Y: it.Y + off.Y, Z: it.Z + off.Z},
			route.Cell{
				X: it.X + it.W - it.Item.Pad - 1 + off.X,
				Y: it.Y + it.H - it.Item.Pad - 1 + off.Y,
				Z: it.Z + it.D - it.Item.Pad - 1 + off.Z,
			})
	}
	var nets []route.Net
	taken := map[route.Cell]int{}
	// Visit the nets in rep order, not map order: the order fixes which
	// net's pin is nudged off a shared cell, and the router breaks pin-span
	// ties by input order, so map order would change the routed volume from
	// run to run.
	reps := make([]int, 0, len(pl.Input.Nets))
	for rep := range pl.Input.Nets {
		reps = append(reps, rep)
	}
	slices.Sort(reps)
	for _, rep := range reps {
		pins := pl.Input.Nets[rep]
		if len(pins) < 2 {
			continue
		}
		n := route.Net{ID: rep}
		for _, pin := range pins {
			x, y, z := pl.PinPosition(pin)
			c := route.Cell{X: x + off.X, Y: y + off.Y, Z: z + off.Z}
			// Distinct nets must not share a pin cell, and a pin must not
			// land inside a distillation box; nudge along x (wrapping to
			// the next row) until both hold.
			for {
				ownerID, used := taken[c]
				if (!used || ownerID == rep) && !grid.Blocked(c) {
					break
				}
				c.X++
				if c.X >= grid.NX {
					c.X = off.X
					c.Y++
					if c.Y >= grid.NY {
						c.Y = off.Y
						c.Z++
						if c.Z >= grid.NZ {
							c.Z = off.Z
						}
					}
				}
			}
			taken[c] = rep
			n.Pins = append(n.Pins, c)
		}
		nets = append(nets, n)
	}
	rr, err := route.RouteContext(ctx, grid, nets, route.Options{
		MaxIters:     opt.Effort.routeIters(),
		CellCapacity: routeCellCapacity,
	})
	if err != nil {
		return nil, nil, nil, route.Cell{}, err
	}
	return rr, grid, nets, off, nil
}

// finalVolume unions the placed content box with the routed dual extents.
func finalVolume(pl *place.Result, rr *route.Result, off route.Cell) int {
	minX, minY, minZ := 1<<30, 1<<30, 1<<30
	maxX, maxY, maxZ := -(1 << 30), -(1 << 30), -(1 << 30)
	any := false
	for _, it := range pl.Placed {
		if it.Item == nil {
			continue
		}
		any = true
		minX, maxX = min(minX, it.X), max(maxX, it.X+it.W-it.Item.Pad)
		minY, maxY = min(minY, it.Y), max(maxY, it.Y+it.H-it.Item.Pad)
		minZ, maxZ = min(minZ, it.Z), max(maxZ, it.Z+it.D-it.Item.Pad)
	}
	if lo, hi, ok := rr.Bounds(); ok {
		any = true
		minX, maxX = min(minX, lo.X-off.X), max(maxX, hi.X-off.X+1)
		minY, maxY = min(minY, lo.Y-off.Y), max(maxY, hi.Y-off.Y+1)
		minZ, maxZ = min(minZ, lo.Z-off.Z), max(maxZ, hi.Z-off.Z+1)
	}
	if !any {
		return 0
	}
	return dim(maxX-minX) * dim(maxY-minY) * dim(maxZ-minZ)
}

// realize builds a 3-D geometric description of the compressed result:
// every chain group becomes a primal ring at its placed position with
// bridge studs between consecutive groups, boxes stay boxes, and routed
// dual cells become dual strands on the interleaved sub-lattice.
//
// The description is a *skeleton* for visualization and export: its
// bounding-box Volume() measures the strand skeleton and therefore
// undercounts the cell-based pipeline volume by the outer half-cells
// (defect strands sit on cell boundaries). The authoritative number is
// Result.Volume.
func realize(res *Result) *geom.Description {
	desc := &geom.Description{}
	pl := res.Placement
	for _, it := range pl.Placed {
		if it.Item == nil {
			continue
		}
		switch it.Item.Kind {
		case place.KindBox:
			desc.AddBox(geom.DistillBox{
				Kind: it.Item.Box,
				At:   geom.Pt(it.X*geom.Unit, it.Y*geom.Unit, it.Z*geom.Unit),
			})
		case place.KindChain:
			// The chain lies along y (or along x when the floorplanner
			// rotated the item): one primal ring per group normal to the
			// chain axis, bridge studs realized as chain-axis connectors
			// between consecutive rings (the flipping operation's
			// bridges). Placed.W/H are the effective (already swapped)
			// extents, so the group width is H for rotated items.
			d := geom.Defect{Kind: geom.Primal, Label: fmt.Sprintf("chain%d", it.Item.ID)}
			z0 := it.Z * geom.Unit
			if it.Rotated {
				w := (it.H - it.Item.Pad) * geom.Unit
				y0 := it.Y * geom.Unit
				for k := range it.Item.Chain {
					x := (it.X + k) * geom.Unit
					ring := geom.RingAround(geom.Primal, geom.X, x, y0, y0+w, z0, z0+geom.Unit)
					d.AddPath(ring.Path())
					if k > 0 {
						// Bridge stud to the previous ring.
						d.AddSeg(geom.SegOf(geom.Pt(x-geom.Unit, y0, z0), geom.Pt(x, y0, z0)))
					}
				}
			} else {
				w := (it.W - it.Item.Pad) * geom.Unit
				x0 := it.X * geom.Unit
				for k := range it.Item.Chain {
					y := (it.Y + k) * geom.Unit
					ring := geom.RingAround(geom.Primal, geom.Y, y, x0, x0+w, z0, z0+geom.Unit)
					d.AddPath(ring.Path())
					if k > 0 {
						// Bridge stud to the previous ring.
						d.AddSeg(geom.SegOf(geom.Pt(x0, y-geom.Unit, z0), geom.Pt(x0, y, z0)))
					}
				}
			}
			desc.Add(d)
		}
	}
	if res.Routing != nil {
		for id, cells := range res.Routing.Routes {
			d := geom.Defect{Kind: geom.Dual, Label: fmt.Sprintf("net%d", id)}
			set := make(map[route.Cell]bool, len(cells))
			for _, c := range cells {
				set[c] = true
			}
			at := func(c route.Cell) geom.Point {
				// Dual strands sit at cell centres on the odd sub-lattice.
				return geom.Pt((c.X-halo)*geom.Unit+1, (c.Y-halo)*geom.Unit+1, (c.Z-halo)*geom.Unit+1)
			}
			for _, c := range cells {
				next := []route.Cell{
					{X: c.X + 1, Y: c.Y, Z: c.Z},
					{X: c.X, Y: c.Y + 1, Z: c.Z},
					{X: c.X, Y: c.Y, Z: c.Z + 1},
				}
				for _, n := range next {
					if set[n] {
						d.AddSeg(geom.SegOf(at(c), at(n)))
					}
				}
			}
			desc.Add(d)
		}
	}
	return desc
}

// Summary renders a short report.
func (r *Result) Summary() string {
	return fmt.Sprintf(
		"%s [%s]: canonical=%d modules=%d nodes=%d merges=%d duals=%d placed=%d final=%d wl=%d overflow=%d failed=%d squeezed=%d (%.2fs)",
		r.Name, r.Mode, r.CanonicalVolume, r.NumModules, r.NumNodes, r.IShapeMerges,
		r.DualComponents, r.PlacedVolume, r.Volume, r.Wirelength,
		r.RouteOverflow, r.RouteFailed, r.RouteSqueezed, r.Runtime.Seconds())
}
