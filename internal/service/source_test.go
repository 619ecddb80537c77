package service

import (
	"os"
	"path/filepath"
	"testing"
)

// loadLocal is what the CLIs do with their source flags: build the
// source, then load it under the daemon's one-source rule.
func loadLocal(t *testing.T, in, text, sample, bench string) error {
	t.Helper()
	src, err := LocalSource(in, text, sample, bench, 1)
	if err != nil {
		return err
	}
	_, err = src.Load()
	return err
}

func TestLocalSourceSample(t *testing.T) {
	src, err := LocalSource("", "", "threecnot", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	if c.Width != 3 || len(c.Gates) != 3 {
		t.Fatalf("shape: %v", c)
	}
	if loadLocal(t, "", "", "nope", "") == nil {
		t.Fatal("unknown sample accepted")
	}
}

func TestLocalSourceBench(t *testing.T) {
	src, err := LocalSource("", "", "", "4gt10-v1_81", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if loadLocal(t, "", "", "", "nope") == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestLocalSourceFiles(t *testing.T) {
	dir := t.TempDir()
	real := filepath.Join(dir, "c.real")
	if err := os.WriteFile(real, []byte(".numvars 2\n.variables a b\n.begin\nt2 a b\n.end\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := LocalSource(real, "", "", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := src.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 {
		t.Fatalf("gates: %v", c.Gates)
	}
	text := filepath.Join(dir, "c.tqc")
	if err := os.WriteFile(text, []byte("qubits 2\ncnot 0 1\nt 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if src, err = LocalSource("", text, "", "", 1); err != nil {
		t.Fatal(err)
	}
	if c, err = src.Load(); err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 2 {
		t.Fatalf("gates: %v", c.Gates)
	}
	if loadLocal(t, filepath.Join(dir, "missing.real"), "", "", "") == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(dir, "empty.tqc")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LocalSource("", empty, "", "", 1); err == nil {
		t.Fatal("empty file accepted")
	}
	if loadLocal(t, "", "", "", "") == nil {
		t.Fatal("no input accepted")
	}
}

// TestLocalSourceRejectsTwoSources: the CLIs follow the daemon's rule,
// so naming two sources is an error, not a silent pick of the first.
func TestLocalSourceRejectsTwoSources(t *testing.T) {
	if loadLocal(t, "", "", "threecnot", "4gt10-v1_81") == nil {
		t.Fatal("-sample and -bench together accepted")
	}
}
