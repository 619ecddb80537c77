package compress_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"tqec/internal/bench"
	"tqec/internal/compress"
	"tqec/internal/journal"
	"tqec/internal/obs"
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
		1: {3192, 3360, 260, 0, 0, 2, "a3c990ddeedb7b7d22a4065fe16836ec80e9a970e2807b1593c903b86d369a9f"},
		2: {2496, 3458, 272, 0, 0, 2, "bd58065c1db246b949fb3025a360914b16a6cab27d41efbbdf30f1720c3da1b7"},
		3: {2622, 3220, 183, 0, 0, 1, "e0e3fb3f3584b12cc02259fb53527b49769e2fbb07d28cb009279fa214ffcf7f"},
		4: {2622, 3840, 234, 0, 0, 2, "3a48baab9f7c643db7afa1b5005d965facaa2b22b0b75de9acc0c8050d792f34"},
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
		1: {16464, 20300, 2044, 1, 1, 5, "66665ca80734ae3dca3b3e4aa0b25eca6fc36bd7d9fd390c86c9fbfc19822c3d"},
		2: {14700, 18900, 1830, 0, 1, 2, "c8eadbc00bac5aacc9de7553b076adb35496645c711ea55face1a1c930675bd0"},
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

	// Where the router works hardest: rd84 seed 3 negotiates ten rounds
	// and ends with overflow 1, so it pins the soft round budget and the
	// stall exit; 4gt4 seed 1 squeezes through nine box walls.
	for _, row := range []struct {
		name string
		seed int64
		want golden
	}{
		{"rd84_142", 3, golden{143640, 171720, 24039, 1, 21, 10, "8f6fbb00f7456ca6e6a92283182e3d68adc90049ac8f0b641c687855e5aab60d"}},
		{"4gt4-v0_73", 1, golden{37440, 41514, 4320, 0, 9, 3, "09ba2bab94cea83929487b8b85d2ef7088b65371847491e400edf049e52eacfc"}},
	} {
		spec, ok := bench.ByName(row.name)
		if !ok {
			t.Fatalf("no %s spec", row.name)
		}
		rep, _, err := spec.GenerateICM(1)
		if err != nil {
			t.Fatal(err)
		}
		opt.Seed = row.seed
		res, err := compress.CompileICM(rep, spec.Name, opt, time.Time{}, nil)
		if err != nil {
			t.Fatalf("%s seed %d: %v", row.name, row.seed, err)
		}
		checkGolden(t, row.name, row.seed, res, row.want)
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

// TestPlaceVolumeSteps pins where 4gt10's placed volume comes from: the
// place span carries the annealed volume, the volume after compaction
// and how many items order legalization moved, and the stage's row ends
// at the placed volume.
func TestPlaceVolumeSteps(t *testing.T) {
	spec, ok := bench.ByName("4gt10-v1_81")
	if !ok {
		t.Fatal("no 4gt10-v1_81 spec")
	}
	rep, _, err := spec.GenerateICM(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("compile")
	opt := compress.Options{Mode: compress.Full, Effort: compress.EffortFast, Seed: 1, SkipRouting: true}
	res, err := compress.CompileICMContext(obs.WithTracer(context.Background(), tr), rep, spec.Name, opt, time.Time{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	spans := tr.Root().Find("place")
	if len(spans) != 1 {
		t.Fatalf("%d place spans", len(spans))
	}
	want := map[string]int{
		"annealed_volume":       13800,
		"compacted_volume":      13524,
		"legalize_moved":        19,
		journal.AttrVolumeAfter: 16464,
	}
	for k, w := range want {
		if v, _ := spans[0].Lookup(k); v != w {
			t.Errorf("place span %s = %v, want %d", k, v, w)
		}
	}
	if res.PlacedVolume != want[journal.AttrVolumeAfter] {
		t.Errorf("placed volume %d, place row ends at %d", res.PlacedVolume, want[journal.AttrVolumeAfter])
	}
}
