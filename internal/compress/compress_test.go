package compress

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tqec/internal/circuit"
	"tqec/internal/revlib"
)

func threeCNOT(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := revlib.ParseString(revlib.Samples["threecnot"])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFig1Progression reproduces the paper's Fig. 1 volume ladder on the
// 3-CNOT example: canonical 54, dual-only bridging 18, primal+dual 6.
func TestFig1Progression(t *testing.T) {
	c := threeCNOT(t)
	full, err := Compile(c, Options{Mode: Full, Seed: 1, Effort: EffortNormal})
	if err != nil {
		t.Fatal(err)
	}
	if full.CanonicalVolume != 54 {
		t.Fatalf("canonical = %d, want 54 (Fig 1(b))", full.CanonicalVolume)
	}
	if full.PlacedVolume != 6 {
		t.Fatalf("full placed volume = %d, want 6 (Fig 1(e): 2×1×3)", full.PlacedVolume)
	}
	dual, err := Compile(c, Options{Mode: DualOnly, Seed: 1, Effort: EffortNormal})
	if err != nil {
		t.Fatal(err)
	}
	if dual.PlacedVolume <= full.PlacedVolume {
		t.Fatalf("dual-only (%d) must exceed full (%d)", dual.PlacedVolume, full.PlacedVolume)
	}
	if dual.PlacedVolume >= full.CanonicalVolume {
		t.Fatalf("dual-only (%d) must beat canonical (%d)", dual.PlacedVolume, full.CanonicalVolume)
	}
	// Routed volumes include the conservative one-strand-per-cell routing
	// halo, which is noisy at toy scale; the full pipeline must still stay
	// well below canonical and within 2× of the dual-only result.
	if full.Volume >= full.CanonicalVolume {
		t.Fatalf("routed full %d not below canonical %d", full.Volume, full.CanonicalVolume)
	}
	if full.Volume > 2*dual.Volume {
		t.Fatalf("routed: full %d far above dual-only %d", full.Volume, dual.Volume)
	}
}

func TestThreeCNOTStageNumbers(t *testing.T) {
	c := threeCNOT(t)
	res, err := Compile(c, Options{Mode: Full, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumModules != 6 {
		t.Fatalf("modules = %d, want 6", res.NumModules)
	}
	if res.NumNodes != 1 {
		t.Fatalf("nodes = %d, want 1 (single chain)", res.NumNodes)
	}
	if res.IShapeMerges != 3 {
		t.Fatalf("merges = %d, want 3", res.IShapeMerges)
	}
	if res.DualComponents != 2 {
		t.Fatalf("dual components = %d, want 2 (Fig 14)", res.DualComponents)
	}
	if res.Summary() == "" || !strings.Contains(res.Summary(), "full") {
		t.Fatalf("summary: %q", res.Summary())
	}
}

func TestDualOnlyKeepsModulesAsNodes(t *testing.T) {
	c := threeCNOT(t)
	res, err := Compile(c, Options{Mode: DualOnly, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumNodes != res.NumModules {
		t.Fatalf("dual-only nodes = %d, want %d (no primal bridging)", res.NumNodes, res.NumModules)
	}
	if res.IShapeMerges != 0 {
		t.Fatalf("dual-only performed %d I-shape merges", res.IShapeMerges)
	}
	if res.Mode.String() != "dual-only" {
		t.Fatal("mode name")
	}
}

func TestRoutingProducesConnectedNets(t *testing.T) {
	c := threeCNOT(t)
	res, err := Compile(c, Options{Mode: Full, Seed: 3, Effort: EffortNormal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routing == nil {
		t.Fatal("routing skipped")
	}
	if res.RouteFailed != 0 {
		t.Fatalf("failed nets: %d", res.RouteFailed)
	}
	if res.RouteOverflow != 0 {
		t.Fatalf("residual overflow: %d", res.RouteOverflow)
	}
}

func TestSkipRouting(t *testing.T) {
	c := threeCNOT(t)
	res, err := Compile(c, Options{Mode: Full, Seed: 1, SkipRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routing != nil {
		t.Fatal("routing ran despite SkipRouting")
	}
	if res.Volume != res.PlacedVolume {
		t.Fatal("volume must equal placed volume without routing")
	}
}

func TestKeepGeometry(t *testing.T) {
	c := threeCNOT(t)
	res, err := Compile(c, Options{Mode: Full, Seed: 1, KeepGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Geometry == nil {
		t.Fatal("geometry not materialized")
	}
	st := res.Geometry.Summary()
	if st.NumPrimal == 0 || st.NumDual == 0 {
		t.Fatalf("geometry empty: %+v", st)
	}
	if res.Geometry.DumpLayers() == "" {
		t.Fatal("dump empty")
	}
}

func TestGeometryDefectOrderDeterministic(t *testing.T) {
	// Routed dual strands are realized in net-ID order, so the geometry
	// (and its JSON export) is byte-stable for a fixed seed.
	c, err := revlib.ParseString(revlib.Samples["toffoli3"])
	if err != nil {
		t.Fatal(err)
	}
	var first []string
	for run := 0; run < 2; run++ {
		res, err := Compile(c, Options{Mode: Full, Seed: 1, KeepGeometry: true})
		if err != nil {
			t.Fatal(err)
		}
		var labels []string
		for _, d := range res.Geometry.Defects {
			labels = append(labels, d.Label)
		}
		if run == 0 {
			first = labels
		} else if !slices.Equal(labels, first) {
			t.Fatalf("defect order differs between compiles:\n%v\n%v", first, labels)
		}
	}
}

func TestNodesReductionOnLargerCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := circuit.Random(rng, 5, 25)
	full, err := Compile(c, Options{Mode: Full, Seed: 1, SkipRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.NumNodes >= full.NumModules {
		t.Fatalf("no node reduction: %d nodes / %d modules", full.NumNodes, full.NumModules)
	}
	base, err := Compile(c, Options{Mode: DualOnly, Seed: 1, SkipRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.NumNodes >= base.NumNodes {
		t.Fatalf("full (%d nodes) must have fewer nodes than dual-only (%d)", full.NumNodes, base.NumNodes)
	}
}

func TestFullBeatsDualOnlyOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	wins, total := 0, 0
	for trial := 0; trial < 5; trial++ {
		// Benchmark-shaped workload: CNOT-dominant with a sprinkle of T,
		// like the RevLib circuits after decomposition (the paper's box
		// volume is only ~4% of canonical; pure-random T-dense circuits
		// would be dominated by irreducible distillation volume).
		c := circuit.New("bench-shaped", 8)
		for i := 0; i < 40; i++ {
			tq := rng.Intn(8)
			cq := (tq + 1 + rng.Intn(7)) % 8
			c.AppendNew(circuit.CNOT, tq, cq)
			if i%10 == 0 {
				c.AppendNew(circuit.T, tq)
			}
		}
		full, err := Compile(c, Options{Mode: Full, Seed: int64(trial), SkipRouting: true, Effort: EffortNormal})
		if err != nil {
			t.Fatal(err)
		}
		base, err := Compile(c, Options{Mode: DualOnly, Seed: int64(trial), SkipRouting: true, Effort: EffortNormal})
		if err != nil {
			t.Fatal(err)
		}
		total++
		if full.PlacedVolume <= base.PlacedVolume {
			wins++
		}
		// Compression must at least beat the canonical form even on tiny
		// box-heavy random circuits (wider margins need more SA effort
		// than a unit test budget allows).
		if full.PlacedVolume >= full.CanonicalVolume {
			t.Fatalf("trial %d: full %d vs canonical %d — too weak", trial, full.PlacedVolume, full.CanonicalVolume)
		}
	}
	if wins < total-1 {
		t.Fatalf("full won only %d/%d trials against dual-only", wins, total)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	c := threeCNOT(t)
	a, err := Compile(c, Options{Mode: DualOnly, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(c, Options{Mode: DualOnly, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Volume != b.Volume || a.Wirelength != b.Wirelength || a.PlacedVolume != b.PlacedVolume {
		t.Fatalf("non-deterministic: %s vs %s", a.Summary(), b.Summary())
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	bad := circuit.New("bad", 0)
	if _, err := Compile(bad, Options{}); err == nil {
		t.Fatal("invalid circuit accepted")
	}
}

func TestEffortKnobs(t *testing.T) {
	if EffortFast.placeMoves(100) >= EffortNormal.placeMoves(100) {
		t.Fatal("effort ordering broken")
	}
	if EffortNormal.placeMoves(100) >= EffortHigh.placeMoves(100) {
		t.Fatal("effort ordering broken")
	}
	if EffortHigh.placeMoves(1<<20) != 120000 {
		t.Fatal("move cap broken")
	}
	if EffortFast.routeIters() >= EffortHigh.routeIters() {
		t.Fatal("route iter ordering broken")
	}
}

func TestTGateCircuitEndToEnd(t *testing.T) {
	c := circuit.New("tgate", 2)
	c.AppendNew(circuit.T, 0)
	c.AppendNew(circuit.CNOT, 1, 0)
	c.AppendNew(circuit.T, 1)
	res, err := Compile(c, Options{Mode: Full, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 2 T gates: canonical must include 2×192 + 4×18 of box volume.
	if res.CanonicalVolume <= 2*192+4*18 {
		t.Fatalf("canonical = %d too small", res.CanonicalVolume)
	}
	if res.Placement.Order != 0 {
		t.Fatalf("residual ordering penalty %f", res.Placement.Order)
	}
	// The annealer's penalty is taken before compaction and legalization
	// move items; the audit reads the final schedule.
	if audit := res.Placement.AuditSchedule(); !audit.Satisfied() {
		t.Fatalf("final schedule: %v", audit)
	}
}

func TestDeformOnlyMode(t *testing.T) {
	c := threeCNOT(t)
	deform, err := Compile(c, Options{Mode: DeformOnly, Seed: 1, Effort: EffortNormal})
	if err != nil {
		t.Fatal(err)
	}
	if deform.Mode.String() != "deform-only" {
		t.Fatalf("mode name: %s", deform.Mode)
	}
	if deform.IShapeMerges != 0 || deform.NumNodes != deform.NumModules {
		t.Fatal("deform-only must not bridge primal structures")
	}
	if deform.DualComponents != len(deform.Graph.Nets) {
		t.Fatal("deform-only must not bridge dual nets")
	}
	dual, err := Compile(c, Options{Mode: DualOnly, Seed: 1, Effort: EffortNormal})
	if err != nil {
		t.Fatal(err)
	}
	// The Fig 1 ladder: deformation-only is the weakest compression.
	if deform.Volume < dual.Volume {
		t.Fatalf("ladder inverted: deform %d < dual-only %d", deform.Volume, dual.Volume)
	}
	if deform.Volume >= deform.CanonicalVolume {
		t.Fatalf("deform-only %d did not beat canonical %d", deform.Volume, deform.CanonicalVolume)
	}
}

func TestResultReportJSON(t *testing.T) {
	c := threeCNOT(t)
	res, err := Compile(c, Options{Mode: Full, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Mode != "full" || rep.CanonicalVolume != 54 || rep.DualNets != 3 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.ReductionVsCanonical <= 1 {
		t.Fatalf("reduction = %f", rep.ReductionVsCanonical)
	}
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\"canonical_volume\": 54") {
		t.Fatalf("json: %s", sb.String())
	}
}

func TestAuditSchedule(t *testing.T) {
	c := circuit.New("audit", 2)
	c.AppendNew(circuit.T, 0)
	c.AppendNew(circuit.CNOT, 1, 0)
	c.AppendNew(circuit.T, 0)
	res, err := Compile(c, Options{Mode: Full, Seed: 1, Effort: EffortNormal, SkipRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	audit := res.AuditSchedule()
	if audit.Constraints != len(res.ICM.Constraints) {
		t.Fatalf("audited %d of %d constraints", audit.Constraints, len(res.ICM.Constraints))
	}
	if !audit.Satisfied() {
		t.Fatalf("schedule violations: %s", audit)
	}
	if audit.String() == "" {
		t.Fatal("empty audit line")
	}
	// Empty result audits to zero.
	var empty Result
	if a := empty.AuditSchedule(); a.Constraints != 0 {
		t.Fatalf("empty audit: %+v", a)
	}
}
