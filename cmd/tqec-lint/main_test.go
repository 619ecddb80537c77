package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/revlib"
)

// runCaptured calls run with args, returning its exit status and what it
// wrote to standard error.
func runCaptured(t *testing.T, args ...string) (int, string) {
	t.Helper()
	stdout, stderr := os.Stdout, os.Stderr
	defer func() { os.Stdout, os.Stderr = stdout, stderr }()
	dir := t.TempDir()
	var err error
	if os.Stdout, err = os.Create(filepath.Join(dir, "stdout")); err != nil {
		t.Fatal(err)
	}
	defer os.Stdout.Close()
	if os.Stderr, err = os.Create(filepath.Join(dir, "stderr")); err != nil {
		t.Fatal(err)
	}
	defer os.Stderr.Close()
	code := run(args)
	errText, err := os.ReadFile(os.Stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(errText)
}

// TestGeomTakesNoSource: -geom lints a saved dump, so a circuit source
// flag beside it is a usage error instead of being silently ignored.
func TestGeomTakesNoSource(t *testing.T) {
	dir := t.TempDir()
	c, err := revlib.ParseString(revlib.Samples["threecnot"])
	if err != nil {
		t.Fatal(err)
	}
	res, err := compress.CompileContext(context.Background(), c, compress.Options{
		Mode: compress.Full, Effort: compress.EffortFast, Seed: 1, KeepGeometry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dump := filepath.Join(dir, "geo.json")
	var geo, text strings.Builder
	if err := res.Geometry.WriteJSON(&geo); err != nil {
		t.Fatal(err)
	}
	if err := circuit.WriteText(&text, c); err != nil {
		t.Fatal(err)
	}
	real, txt := filepath.Join(dir, "c.real"), filepath.Join(dir, "c.txt")
	for path, body := range map[string]string{dump: geo.String(), real: revlib.Samples["threecnot"], txt: text.String()} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if code, stderr := runCaptured(t, "-geom", dump, "-quiet"); code != 0 {
		t.Fatalf("-geom alone: exit %d (%s), want 0", code, stderr)
	}
	for _, source := range [][]string{
		{"-in", real},
		{"-text", txt},
		{"-sample", "threecnot"},
		{"-bench", "4gt10-v1_81"},
	} {
		code, stderr := runCaptured(t, append([]string{"-geom", dump, "-quiet"}, source...)...)
		if code != 2 || !strings.HasPrefix(stderr, "tqec-lint: source:") {
			t.Errorf("-geom with %s: exit %d, stderr %q; want 2 and a source: error", source[0], code, stderr)
		}
	}
}
