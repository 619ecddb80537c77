package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tqec/internal/circuit"
	"tqec/internal/drc"
	"tqec/internal/revlib"
	"tqec/internal/service"
)

// runCaptured calls run with args, returning its exit status and what it
// wrote to standard output and standard error.
func runCaptured(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	saved := [2]*os.File{os.Stdout, os.Stderr}
	defer func() { os.Stdout, os.Stderr = saved[0], saved[1] }()
	dir := t.TempDir()
	var files [2]*os.File
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	os.Stdout, os.Stderr = files[0], files[1]
	code = run(args)
	var text [2]string
	for i, f := range files {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		text[i] = string(b)
	}
	return code, text[0], text[1]
}

// exportThreeCNOT compiles threecnot with -export and returns the path of
// its geometry dump.
func exportThreeCNOT(t *testing.T) string {
	t.Helper()
	dump := filepath.Join(t.TempDir(), "geo.json")
	if code, _, stderr := runCaptured(t, "-sample", "threecnot", "-export", dump); code != 0 {
		t.Fatalf("-export: exit %d (%s)", code, stderr)
	}
	return dump
}

// TestGeomTakesNoSource: -geom checks a saved dump, so a circuit source
// flag beside it is a usage error instead of being silently ignored.
func TestGeomTakesNoSource(t *testing.T) {
	dir := t.TempDir()
	dump := exportThreeCNOT(t)
	c, err := revlib.ParseString(revlib.Samples["threecnot"])
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := circuit.WriteText(&text, c); err != nil {
		t.Fatal(err)
	}
	real, txt := filepath.Join(dir, "c.real"), filepath.Join(dir, "c.txt")
	for path, body := range map[string]string{real: revlib.Samples["threecnot"], txt: text.String()} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if code, _, stderr := runCaptured(t, "-geom", dump); code != 0 {
		t.Fatalf("-geom alone: exit %d (%s), want 0", code, stderr)
	}
	for _, source := range [][]string{
		{"-in", real},
		{"-text", txt},
		{"-sample", "threecnot"},
		{"-bench", "4gt10-v1_81"},
	} {
		code, _, stderr := runCaptured(t, append([]string{"-geom", dump}, source...)...)
		if code != 2 || !strings.HasPrefix(stderr, "tqecc: source:") {
			t.Errorf("-geom with %s: exit %d, stderr %q; want 2 and a source: error", source[0], code, stderr)
		}
	}
}

// TestGeomOffLatticeFails: a dump whose primal segment sits on an odd
// coordinate fails geom-lattice and exits 1; the clean dump exits 0.
func TestGeomOffLatticeFails(t *testing.T) {
	dump := exportThreeCNOT(t)
	if code, stdout, _ := runCaptured(t, "-geom", dump); code != 0 {
		t.Fatalf("clean dump: exit %d\n%s", code, stdout)
	}
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int              `json:"version"`
		Defects []map[string]any `json:"defects"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	// Move the first primal segment one unit along y, off the even
	// sub-lattice primal defects live on: [ax,ay,az,bx,by,bz].
	moved := false
	for _, d := range doc.Defects {
		if d["kind"] != "primal" {
			continue
		}
		seg := d["segs"].([]any)[0].([]any)
		seg[1], seg[4] = seg[1].(float64)+1, seg[4].(float64)+1
		moved = true
		break
	}
	if !moved {
		t.Fatal("dump has no primal defect")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, out, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runCaptured(t, "-geom", bad)
	if code != 1 || !strings.Contains(stdout, "geom-lattice") {
		t.Fatalf("off-lattice dump: exit %d, want 1 with a geom-lattice error\n%s", code, stdout)
	}
}

// TestJSONSameLocalAndRemote: one request gives one result document,
// whether it compiles in process or on a daemon. Only the compile's
// wall-clock may differ.
func TestJSONSameLocalAndRemote(t *testing.T) {
	svc := service.New(context.Background(), service.Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()

	dir := t.TempDir()
	docs := map[string]map[string]any{}
	for name, args := range map[string][]string{
		"local":  {"-sample", "toffoli3"},
		"remote": {"-sample", "toffoli3", "-server", ts.URL},
	} {
		path := filepath.Join(dir, name+".json")
		if code, _, stderr := runCaptured(t, append(args, "-json", path)...); code != 0 {
			t.Fatalf("%s: exit %d (%s)", name, code, stderr)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		rep, ok := doc["report"].(map[string]any)
		if !ok {
			t.Fatalf("%s: no report object in %s", name, raw)
		}
		delete(rep, "seconds")
		docs[name] = doc
	}
	if !reflect.DeepEqual(docs["local"], docs["remote"]) {
		t.Fatalf("local and remote documents differ:\nlocal:  %v\nremote: %v", docs["local"], docs["remote"])
	}
	if key, _ := docs["local"]["cache_key"].(string); len(key) != 64 {
		t.Fatalf("cache_key %q, want a SHA-256", key)
	}
}

// TestCanonicalVolume: -canonical shows Fig. 1(b), the three-CNOT
// circuit's uncompiled form of volume 54.
func TestCanonicalVolume(t *testing.T) {
	code, stdout, stderr := runCaptured(t, "-sample", "threecnot", "-canonical")
	if code != 0 || !strings.Contains(stdout, "volume 54\n") {
		t.Fatalf("exit %d, stdout %q (%s); want volume 54", code, stdout, stderr)
	}
}

// TestRulesList: -rules list prints one line per registered rule.
func TestRulesList(t *testing.T) {
	code, stdout, _ := runCaptured(t, "-rules", "list")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if code != 0 || len(lines) != 18 || len(drc.Rules()) != 18 {
		t.Fatalf("exit %d, %d lines for %d rules; want 18", code, len(lines), len(drc.Rules()))
	}
	for i, r := range drc.Rules() {
		if !strings.HasPrefix(lines[i], r.Name+" ") {
			t.Errorf("line %d = %q, want rule %s", i, lines[i], r.Name)
		}
	}
}
