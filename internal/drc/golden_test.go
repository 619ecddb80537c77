package drc_test

// Golden-report tests: every embedded sample circuit must compile clean
// through the full pipeline with the checker on, the truncated
// pipeline must record exactly the unreachable rules as skipped, and the
// JSON serialization must round-trip the structured report.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"tqec/internal/compress"
	"tqec/internal/drc"
	"tqec/internal/revlib"
)

func TestSamplesCompileClean(t *testing.T) {
	for name := range revlib.Samples {
		t.Run(name, func(t *testing.T) {
			c, err := revlib.ParseString(revlib.Samples[name])
			if err != nil {
				t.Fatal(err)
			}
			res, err := compress.CompileContext(context.Background(), c, compress.Options{Seed: 1, DRC: true, KeepGeometry: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.DRC == nil {
				t.Fatal("DRC report missing")
			}
			if !res.DRC.Clean() {
				t.Fatalf("sample %s not clean:\n%s", name, res.DRC)
			}
			if len(res.DRC.Skipped) != 0 {
				t.Fatalf("full pipeline skipped rules: %v", res.DRC.Skipped)
			}
			if got, want := len(res.DRC.Ran), len(drc.Rules()); got != want {
				t.Fatalf("ran %d of %d rules", got, want)
			}
		})
	}
}

func TestSkipRoutingSkipsDownstreamRules(t *testing.T) {
	c, err := revlib.ParseString(revlib.Samples["threecnot"])
	if err != nil {
		t.Fatal(err)
	}
	res, err := compress.CompileContext(context.Background(), c, compress.Options{Seed: 1, DRC: true, SkipRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DRC.Clean() {
		t.Fatalf("not clean:\n%s", res.DRC)
	}
	skipped := map[string]bool{}
	for _, name := range res.DRC.Skipped {
		skipped[name] = true
	}
	for _, r := range drc.Rules() {
		downstream := r.Stage == drc.StageRoute || r.Stage == drc.StageGeometry
		if downstream != skipped[r.Name] {
			t.Errorf("rule %s (stage %s): skipped=%v, want %v",
				r.Name, r.Stage, skipped[r.Name], downstream)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	a := goodArtifacts(t, "threecnot")
	a.ICM.CNOTs[0].Control = -1 // guarantee at least one violation
	rep := drc.Run(a, drc.Options{})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back drc.Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Violations) != len(rep.Violations) || len(back.Ran) != len(rep.Ran) {
		t.Fatalf("round trip lost data: %d/%d violations, %d/%d ran",
			len(back.Violations), len(rep.Violations), len(back.Ran), len(rep.Ran))
	}
	if back.Violations[0].Rule != rep.Violations[0].Rule ||
		back.Violations[0].Message != rep.Violations[0].Message {
		t.Fatalf("round trip changed violation: %+v != %+v", back.Violations[0], rep.Violations[0])
	}
}
