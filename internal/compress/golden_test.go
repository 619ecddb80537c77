package compress_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"tqec/internal/bench"
	"tqec/internal/compress"
	"tqec/internal/revlib"
	"tqec/internal/route"
)

// golden is one routed compile's outcome, down to the routed cells.
type golden struct {
	placed, volume, wirelength int
	overflow, squeezed, iters  int
	routes                     string // routesDigest of Routing.Routes
}

// TestRoutedCompileGolden pins routed compiles of the benchmark circuits
// to recorded outcomes: a compilation is bit-for-bit reproducible for a
// fixed (circuit, options, seed), and a speed-up of the placer or the
// router must leave every number and every routed cell where it was.
// 4gt10 seed 1 ends with overflow and a squeeze, so rip-up, history and
// present cost all shape its routes.
func TestRoutedCompileGolden(t *testing.T) {
	opt := compress.Options{Mode: compress.Full, Effort: compress.EffortFast}
	toffoli3 := map[int64]golden{
		1: {3192, 3480, 256, 0, 0, 2, "d1baeb6489d585e9dd35736dcc3e4caad1f2f4b650ec6a7e165abb2df906bb85"},
		2: {2496, 4104, 290, 0, 0, 2, "b35cb3413db9c77fd50778accf0944e6038c42075dd0fb722cc922ffd48545c0"},
		3: {2622, 3220, 188, 0, 0, 2, "28bdfccf94d75e48ba26f3a6b67aac32253dd15834f4c54c9adeed4ac0b02a4f"},
		4: {2622, 3360, 245, 0, 0, 2, "dfa574fdb4e288e5783ca800c4829f81807f52099e6b9268aa8c2e66a7451f86"},
	}
	c, err := revlib.ParseString(revlib.Samples["toffoli3"])
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		opt.Seed = seed
		res, err := compress.Compile(c, opt)
		if err != nil {
			t.Fatalf("toffoli3 seed %d: %v", seed, err)
		}
		checkGolden(t, "toffoli3", seed, res, toffoli3[seed])
	}

	if testing.Short() {
		t.Skip("4gt10-v1_81 runs only without -short")
	}
	gt10 := map[int64]golden{
		1: {16464, 21000, 2086, 1, 1, 5, "4987d857e233435f46eae36e8cc15c06fed3d2e85da3eecd6d03adf316a29a01"},
		2: {14700, 18900, 1842, 0, 1, 2, "a5a3bf14e7f5df38fae2e0661e58b1e602545d295c6399d72dedffb8e56d80e3"},
	}
	spec, ok := bench.ByName("4gt10-v1_81")
	if !ok {
		t.Fatal("no 4gt10-v1_81 spec")
	}
	rep, _, err := spec.GenerateICM(1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		opt.Seed = seed
		res, err := compress.CompileICM(rep, spec.Name, opt, time.Time{}, nil)
		if err != nil {
			t.Fatalf("4gt10 seed %d: %v", seed, err)
		}
		checkGolden(t, "4gt10-v1_81", seed, res, gt10[seed])
	}
}

func checkGolden(t *testing.T, name string, seed int64, res *compress.Result, want golden) {
	t.Helper()
	got := golden{
		res.PlacedVolume, res.Volume, res.Wirelength,
		res.RouteOverflow, res.RouteSqueezed, res.Routing.Iters,
		routesDigest(res.Routing.Routes),
	}
	if got != want {
		t.Errorf("%s seed %d:\n got %+v\nwant %+v", name, seed, got, want)
	}
}

// routesDigest hashes every routed cell, nets by ascending ID, each net's
// cells in the order the router returned them.
func routesDigest(routes map[int][]route.Cell) string {
	ids := make([]int, 0, len(routes))
	for id := range routes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	h := sha256.New()
	var buf []byte
	for _, id := range ids {
		cells := routes[id]
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(id))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(cells)))
		for _, c := range cells {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.X))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Y))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Z))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
