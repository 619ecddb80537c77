package place_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tqec/internal/bench"
	"tqec/internal/compress"
	"tqec/internal/decompose"
	"tqec/internal/icm"
	"tqec/internal/place"
	"tqec/internal/revlib"
)

var inputs sync.Map // "name/mode" -> *place.Input

// pipelineInput is the placement input the pipeline builds for an
// embedded sample or a Table-1 row (generator seed 1), memoized: inputs
// are read-only.
func pipelineInput(tb testing.TB, name string, mode compress.Mode) *place.Input {
	tb.Helper()
	key := fmt.Sprintf("%s/%v", name, mode)
	if in, ok := inputs.Load(key); ok {
		return in.(*place.Input)
	}
	var rep *icm.Rep
	if src, ok := revlib.Samples[name]; ok {
		c, err := revlib.ParseString(src)
		if err != nil {
			tb.Fatal(err)
		}
		lowered, err := decompose.ToCliffordT(c)
		if err != nil {
			tb.Fatal(err)
		}
		if rep, err = icm.FromCliffordT(lowered.Circuit); err != nil {
			tb.Fatal(err)
		}
	} else {
		spec, ok := bench.ByName(name)
		if !ok {
			tb.Fatalf("no circuit %q", name)
		}
		var err error
		if rep, _, err = spec.GenerateICM(1); err != nil {
			tb.Fatal(err)
		}
	}
	res, err := compress.CompileICMContext(context.Background(), rep, name,
		compress.Options{Mode: mode, Seed: 1, SkipRouting: true}, time.Time{}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	inputs.Store(key, res.Placement.Input)
	return res.Placement.Input
}
