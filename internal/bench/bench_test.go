package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"tqec/internal/compress"
)

func TestSpecsValidate(t *testing.T) {
	for _, s := range Table1 {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("rd84_142")
	if !ok || s.Qubits != 897 {
		t.Fatalf("lookup failed: %+v %v", s, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("phantom benchmark found")
	}
}

func TestSmall(t *testing.T) {
	if len(Small(3)) != 3 || len(Small(99)) != len(Table1) {
		t.Fatal("Small slicing broken")
	}
}

func TestModulesIdentity(t *testing.T) {
	// The generator-facing identity; the paper's own add16/cycle17 rows
	// are known to be internally inconsistent by 1 and 13 (see the
	// canonical package tests), so compare against the identity, not the
	// published #Modules.
	for _, s := range Table1 {
		if s.Modules() != s.Qubits+s.CNOTs+s.Y+s.A {
			t.Errorf("%s identity broken", s.Name)
		}
	}
}

func TestGenerateMatchesStatsExactly(t *testing.T) {
	for _, s := range Small(4) {
		rep, c, err := s.GenerateICM(1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: circuit invalid: %v", s.Name, err)
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("%s: ICM invalid: %v", s.Name, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := Table1[0]
	a, err := s.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("non-deterministic length")
	}
	for i := range a.Gates {
		if a.Gates[i].String() != b.Gates[i].String() {
			t.Fatalf("gate %d differs", i)
		}
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	bad := Spec{Name: "bad", Qubits: 10, CNOTs: 4, Y: 4, A: 2} // CNOTs < 4A
	if _, err := bad.Generate(1); err == nil {
		t.Fatal("infeasible spec accepted")
	}
	bad2 := Spec{Name: "bad2", Qubits: 10, CNOTs: 100, Y: 3, A: 2} // Y != 2A
	if _, err := bad2.Generate(1); err == nil {
		t.Fatal("Y!=2A accepted")
	}
	bad3 := Spec{Name: "bad3", Qubits: 2, CNOTs: 100, Y: 4, A: 2} // Qubits <= A
	if _, err := bad3.Generate(1); err == nil {
		t.Fatal("too-few-qubits accepted")
	}
}

func TestRunTable1SmallestRow(t *testing.T) {
	rows, err := RunTable1(Small(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Modules != r.Spec.Modules() {
		t.Fatalf("modules = %d, want %d", r.Modules, r.Spec.Modules())
	}
	if r.Nodes >= r.Modules {
		t.Fatalf("no node reduction: %d/%d", r.Nodes, r.Modules)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "4gt10-v1_81") {
		t.Fatalf("format: %s", out)
	}
}

func TestRunTable2SmallestRow(t *testing.T) {
	rows, err := RunTable2(Small(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Canonical closed form matches the paper exactly for this row.
	if r.Canonical != r.PaperCanonical {
		t.Fatalf("canonical = %d, want %d", r.Canonical, r.PaperCanonical)
	}
	// Ordering: canonical > 1D >= 2D.
	if !(r.Canonical > r.Lin1D && r.Lin1D >= r.Lin2D) {
		t.Fatalf("ordering broken: %d / %d / %d", r.Canonical, r.Lin1D, r.Lin2D)
	}
	out := FormatTable2(rows, map[string]int{r.Name: r.Lin2D / 2})
	if !strings.Contains(out, "Avg. Ratio") {
		t.Fatalf("format: %s", out)
	}
	if FormatTable2(rows, nil) == "" {
		t.Fatal("format without ratios empty")
	}
}

func TestRunTable3SmallestRow(t *testing.T) {
	rows, err := RunTable3(context.Background(), Small(1), Table3Options{Seed: 1, Effort: compress.EffortFast, SkipRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Ours <= 0 || r.Hsu <= 0 {
		t.Fatalf("volumes: %+v", r)
	}
	if r.Ratio < 1.0 {
		t.Fatalf("full pipeline lost to dual-only: ratio %.3f", r.Ratio)
	}
	if r.OurNodes >= r.HsuNodes {
		t.Fatalf("node reduction missing: %d vs %d", r.OurNodes, r.HsuNodes)
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "Avg. Ratio") {
		t.Fatalf("format: %s", out)
	}

	// Routed golden pass over rows 1-3: the paper's headline record. The
	// constants change only together with a pipelineVersion bump
	// (internal/service/cache.go), and CHANGES.md records each old -> new
	// value. Ratios at these values are 0.995, 1.056 and 1.023: 4gt10
	// loses to dual-only, so no ratio floor is asserted here.
	if testing.Short() {
		t.Skip("routed Table-3 rows take ~2.5 s on a 2-vCPU machine")
	}
	routed, err := RunTable3(context.Background(), Small(3), Table3Options{Seed: 1, Effort: compress.EffortFast})
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		name                          string
		hsu, ours, hsuNodes, ourNodes int
	}{
		{"4gt10-v1_81", 20196, 20300, 362, 136},
		{"4gt4-v0_73", 43848, 41514, 724, 264},
		{"rd84_142", 184800, 180711, 2500, 937},
	}
	for i, g := range golden {
		r := routed[i]
		if r.Name != g.name || r.Hsu != g.hsu || r.Ours != g.ours || r.HsuNodes != g.hsuNodes || r.OurNodes != g.ourNodes {
			t.Errorf("routed %s: [10] %d vol %d nodes, ours %d vol %d nodes (ratio %.3f); want %s: %d vol %d nodes, %d vol %d nodes",
				r.Name, r.Hsu, r.HsuNodes, r.Ours, r.OurNodes, r.Ratio, g.name, g.hsu, g.hsuNodes, g.ours, g.ourNodes)
		}
	}
}

func TestRunFig1(t *testing.T) {
	r, err := RunFig1(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Canonical != 54 {
		t.Fatalf("canonical = %d, want 54", r.Canonical)
	}
	if r.Full != 6 {
		t.Fatalf("full = %d, want 6", r.Full)
	}
	if !(r.Canonical > r.DualOnly && r.DualOnly > r.Full) {
		t.Fatalf("ladder broken: %+v", r)
	}
	if !strings.Contains(FormatFig1(r), "paper 54") {
		t.Fatal("format")
	}
}

func TestReportRoundTrip(t *testing.T) {
	t1, err := RunTable1(Small(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RunTable2(Small(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	fig := Fig1Result{Canonical: 54, DualOnly: 18, Full: 6, FullRouted: 18}
	rep := BuildReport(1, &fig, t1, t2, nil)
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 || back.Fig1 == nil || back.Fig1.Full != 6 {
		t.Fatalf("report: %+v", back)
	}
	if len(back.Table1) != 1 || back.Table1[0].Modules != t1[0].Modules {
		t.Fatalf("table1: %+v", back.Table1)
	}
	if len(back.Table2) != 1 || back.Table2[0].Canonical != t2[0].Canonical {
		t.Fatalf("table2: %+v", back.Table2)
	}
}

func TestRunEffortCurve(t *testing.T) {
	pts, err := RunEffortCurve(context.Background(), Small(1)[0], 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// The curve trades volume against ordering legality: higher budgets
	// must never be worse on BOTH axes simultaneously.
	for i := 1; i < 3; i++ {
		if pts[i].Placed > pts[0].Placed && pts[i].Order > pts[0].Order {
			t.Fatalf("effort %d dominated by fast: vol %d>%d order %f>%f",
				i, pts[i].Placed, pts[0].Placed, pts[i].Order, pts[0].Order)
		}
	}
	out := FormatEffortCurve("x", pts)
	if !strings.Contains(out, "normal") {
		t.Fatalf("format: %s", out)
	}
}

// TestBenchmarkScaleInvariants runs the full invariant ladder on a real
// Table-1 workload (4gt4: 724 modules) rather than toy circuits.
func TestBenchmarkScaleInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	spec := Table1[1]
	rep, _, err := spec.GenerateICM(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compress.CompileICMContext(context.Background(), rep, spec.Name, compress.Options{
		Mode: compress.Full, Seed: 1, SkipRouting: true,
	}, time.Time{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, check := range map[string]func() error{
		"pdgraph":   res.Graph.Validate,
		"simplify":  res.Simplified.Validate,
		"primal":    res.Primal.Validate,
		"dual":      res.Dual.Validate,
		"placement": res.Placement.CheckLegal,
	} {
		if err := check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if res.NumModules != spec.Modules() {
		t.Fatalf("modules %d != identity %d", res.NumModules, spec.Modules())
	}
	if res.NumNodes >= res.NumModules/2 {
		t.Fatalf("weak node reduction at scale: %d of %d", res.NumNodes, res.NumModules)
	}
	if res.PlacedVolume >= res.CanonicalVolume/4 {
		t.Fatalf("weak compression at scale: %d vs canonical %d", res.PlacedVolume, res.CanonicalVolume)
	}
	audit := res.AuditSchedule()
	if audit.Constraints == 0 {
		t.Fatal("no ordering constraints audited at scale")
	}
}
