package drc

// Engine mechanics: registry invariants, rule selection, report
// accounting, and the string renderings tools grep for.

import (
	"reflect"
	"strings"
	"testing"

	"tqec/internal/route"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	// "icm-structure" is a builtin; re-registering must panic before the
	// registry is touched, so the global state survives the test.
	mustPanic(t, "duplicate name", func() {
		Register(&Rule{Name: "icm-structure", Check: func(*Artifacts, *Reporter) {}})
	})
	mustPanic(t, "empty name", func() {
		Register(&Rule{Check: func(*Artifacts, *Reporter) {}})
	})
	mustPanic(t, "nil check", func() {
		Register(&Rule{Name: "no-check"})
	})
}

func TestRegistryStageOrdered(t *testing.T) {
	rules := Rules()
	if len(rules) == 0 {
		t.Fatal("no builtin rules registered")
	}
	for i := 1; i < len(rules); i++ {
		a, b := rules[i-1], rules[i]
		if a.Stage > b.Stage || (a.Stage == b.Stage && a.Name >= b.Name) {
			t.Fatalf("registry out of order at %d: %s/%s before %s/%s",
				i, a.Stage, a.Name, b.Stage, b.Name)
		}
	}
	for _, r := range rules {
		if r.Doc == "" {
			t.Errorf("rule %s has no doc", r.Name)
		}
		if r.Applies == nil {
			t.Errorf("rule %s declares no artifact needs", r.Name)
		}
	}
}

func TestRuleByName(t *testing.T) {
	if r, ok := RuleByName("schedule-order"); !ok || r.Stage != StagePlace {
		t.Fatalf("schedule-order lookup: %v, %v", r, ok)
	}
	if _, ok := RuleByName("no-such-rule"); ok {
		t.Fatal("phantom rule found")
	}
}

func TestOptionsFiltering(t *testing.T) {
	a := &Artifacts{} // nothing present: every selected rule is skipped
	rep := Run(a, Options{Rules: []string{"route-capacity"}})
	if len(rep.Ran)+len(rep.Skipped) != 1 || rep.Skipped[0] != "route-capacity" {
		t.Fatalf("name filter: ran=%v skipped=%v", rep.Ran, rep.Skipped)
	}
}

func TestRouteRulesReportInNetOrder(t *testing.T) {
	// Twelve nets, each squeezing through a blocked cell, and pairs of
	// nets sharing a column beyond capacity 1: both rules report many
	// violations, and the report must not depend on Routes' map order.
	g, err := route.NewGrid(6, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := &Artifacts{RouteGrid: g, RouteCapacity: 1, Routing: &route.Result{Routes: map[int][]route.Cell{}}}
	for id := 0; id < 12; id++ {
		x := id % 6
		g.Block(route.Cell{X: x, Y: 1, Z: 1})
		cells := []route.Cell{{X: x, Y: 0, Z: 1}, {X: x, Y: 1, Z: 1}, {X: x, Y: 2, Z: 1}}
		a.Routing.Routes[id] = cells
		a.Routing.Squeezed++
		a.RouteNets = append(a.RouteNets, route.Net{ID: id, Pins: []route.Cell{cells[0], cells[2]}})
	}
	opt := Options{Rules: []string{"route-capacity", "route-squeeze"}}
	first := Run(a, opt)
	if len(first.ByRule("route-squeeze")) != 12 || len(first.ByRule("route-capacity")) == 0 {
		t.Fatalf("fixture does not trip both rules:\n%s", first)
	}
	for run := 0; run < 20; run++ {
		if again := Run(a, opt); !reflect.DeepEqual(again.Violations, first.Violations) {
			t.Fatalf("run %d reordered the violations:\n%s\nvs\n%s", run, first, again)
		}
	}
}

func TestReportCounts(t *testing.T) {
	r := &Reporter{rule: &Rule{Name: "x", Stage: StageRoute, Severity: Warn}}
	r.Violationf(NoLoc, "default severity")
	r.Errorf(LocItem(3), "hard failure")
	r.Infof(LocNet(1), "fyi")
	rep := &Report{Violations: r.violations}
	if rep.Errors() != 1 || rep.Warnings() != 1 || rep.Count(Info) != 1 {
		t.Fatalf("counts: %d errors, %d warnings, %d infos",
			rep.Errors(), rep.Warnings(), rep.Count(Info))
	}
	if rep.Clean() {
		t.Fatal("report with an error is not clean")
	}
	if vs := rep.ByRule("x"); len(vs) != 3 {
		t.Fatalf("ByRule = %d violations", len(vs))
	}
	if rules := rep.Rules(); len(rules) != 1 || rules[0] != "x" {
		t.Fatalf("Rules = %v", rules)
	}
}

func TestStringRenderings(t *testing.T) {
	loc := LocRail(2).WithItem(5).At("cell", 1, 2, 3)
	if got := loc.String(); got != "rail 2 item 5 (1,2,3) cell" {
		t.Fatalf("location = %q", got)
	}
	if got := NoLoc.String(); got != "" {
		t.Fatalf("NoLoc = %q", got)
	}
	v := Violation{Rule: "r", Stage: "route", Severity: "error", Message: "m", Loc: LocNet(7)}
	if got := v.String(); got != "error route/r: m [net 7]" {
		t.Fatalf("violation = %q", got)
	}
	for _, s := range Stages() {
		if strings.HasPrefix(s.String(), "stage(") {
			t.Errorf("stage %d unnamed", int(s))
		}
	}
	for _, sev := range []Severity{Info, Warn, Error} {
		if strings.HasPrefix(sev.String(), "severity(") {
			t.Errorf("severity %d unnamed", int(sev))
		}
	}
}
