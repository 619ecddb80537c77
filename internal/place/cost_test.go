package place_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tqec/internal/compress"
	"tqec/internal/place"
)

// replay runs random moves on p and checks the incremental cost against
// its from-scratch oracle after every Perturb, every undo and every
// RestoreBest. A move is kept when its bit of accept (mod 64) is set and
// undone otherwise, sometimes before Cost has seen it. After an undo the
// cache is checked without calling Cost, as the annealer goes straight to
// the next move, and every fifth undo is followed by a Cost as well. A
// kept move that improves on the best cost is saved as the annealer saves
// it, and every 1000th move restores the best state.
func replay(t *testing.T, p *place.Problem, rng *rand.Rand, moves int, accept uint64) {
	t.Helper()
	scratch := func(what string, move int) float64 {
		t.Helper()
		want, err := p.CheckCache()
		if err != nil {
			t.Fatalf("after %s %d: %v", what, move, err)
		}
		return want
	}
	cost := func(what string, move int) float64 {
		t.Helper()
		got := p.Cost()
		if want := scratch(what, move); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after %s %d: Cost() = %v, from scratch %v", what, move, got, want)
		}
		return got
	}
	best := cost("start", 0)
	p.SaveBest()
	for i := 1; i <= moves; i++ {
		undo := p.Perturb(rng)
		if undo == nil {
			continue
		}
		switch {
		case accept>>(i%64)&1 == 1:
			if c := cost("perturb", i); c < best {
				best = c
				p.SaveBest()
			}
		case i%7 == 0:
			undo()
			scratch("undo without Cost", i)
		default:
			cost("perturb", i)
			undo()
			scratch("undo", i)
			if i%5 == 0 {
				cost("undo", i)
			}
		}
		if i%1000 == 0 {
			p.RestoreBest()
			if c := cost("RestoreBest", i); c != best {
				t.Fatalf("RestoreBest at move %d: cost %v, best %v", i, c, best)
			}
		}
	}
}

// randomInput is a small placement input with mixed item depths, so that
// migrations empty and refill slabs and move the slabs above them, which
// the pipeline's uniformly deep items rarely do.
func randomInput(rng *rand.Rand) *place.Input {
	n := 2 + rng.Intn(11)
	in := &place.Input{Nets: map[int][]place.Pin{}}
	for i := 0; i < n; i++ {
		it := place.Item{ID: i, Kind: place.KindChain, W: 1 + rng.Intn(5), H: 1 + rng.Intn(5), D: 1 + rng.Intn(4), Pad: rng.Intn(2), FeedsItem: -1}
		if i > 0 && rng.Intn(4) == 0 {
			it.Kind, it.Pad, it.FeedsItem = place.KindBox, 0, rng.Intn(i)
		} else {
			it.Chain = []int{i}
		}
		in.Items = append(in.Items, it)
	}
	for net := 0; net < 1+rng.Intn(n); net++ {
		for k := 0; k < 2+rng.Intn(3); k++ {
			it := &in.Items[rng.Intn(n)]
			in.Nets[net] = append(in.Nets[net], place.Pin{Item: it.ID, DX: rng.Intn(it.W), DY: rng.Intn(it.H), Flip: rng.Intn(2) == 0})
		}
	}
	edges := map[[2]int]bool{}
	for k := 0; k < rng.Intn(2*n); k++ {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			edges[[2]int{a, b}] = true
		}
	}
	for e := range edges {
		in.OrderEdges = append(in.OrderEdges, place.OrderEdge{Before: e[0], After: e[1], Mutual: edges[[2]int{e[1], e[0]}]})
	}
	sort.Slice(in.OrderEdges, func(i, j int) bool {
		a, b := in.OrderEdges[i], in.OrderEdges[j]
		return a.Before < b.Before || a.Before == b.Before && a.After < b.After
	})
	return in
}

// TestIncrementalCostMatchesFull replays random moves, two in three
// undone, on 4gt10 (Full and DualOnly) and rd84 and checks Cost bit for
// bit against a sum from scratch after each step.
func TestIncrementalCostMatchesFull(t *testing.T) {
	cases := []struct {
		name  string
		mode  compress.Mode
		moves int
	}{
		{"4gt10-v1_81", compress.Full, 20000},
		{"4gt10-v1_81", compress.DualOnly, 20000},
		{"rd84_142", compress.Full, 6000},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/"+tc.mode.String(), func(t *testing.T) {
			moves := tc.moves
			if testing.Short() {
				moves /= 10
			}
			p := place.NewProblem(pipelineInput(t, tc.name, tc.mode))
			// 0x924…: every third bit set, so one move in three is kept.
			replay(t, p, rand.New(rand.NewSource(1)), moves, 0x9249249249249249)
		})
	}
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := randomInput(rng)
			if err := in.Validate(); err != nil {
				t.Fatal(err)
			}
			replay(t, place.NewProblem(in), rng, 400, 0x9249249249249249)
		}
	})
}

// FuzzIncrementalCost replays fuzzed move sequences on small pipeline
// inputs and on random ones: the input, the move seed, the number of
// moves and the accept mask all come from the fuzzer.
func FuzzIncrementalCost(f *testing.F) {
	circuits := []struct {
		name string
		mode compress.Mode
	}{
		{"toffoli3", compress.Full},
		{"toffoli3", compress.DualOnly},
		{"mixed4", compress.Full},
		{"4gt10-v1_81", compress.Full},
		{"4gt10-v1_81", compress.DualOnly},
	}
	f.Add(uint8(0), int64(1), uint16(500), uint64(0x9249249249249249))
	f.Add(uint8(1), int64(2), uint16(300), uint64(0))
	f.Add(uint8(3), int64(3), uint16(800), ^uint64(0))
	f.Add(uint8(4), int64(4), uint16(400), uint64(0x5555555555555555))
	f.Add(uint8(5), int64(5), uint16(600), uint64(0x9249249249249249))
	f.Fuzz(func(t *testing.T, circuit uint8, seed int64, moves uint16, accept uint64) {
		rng := rand.New(rand.NewSource(seed))
		var in *place.Input
		if k := int(circuit) % (len(circuits) + 1); k < len(circuits) {
			in = pipelineInput(t, circuits[k].name, circuits[k].mode)
		} else {
			in = randomInput(rng)
		}
		replay(t, place.NewProblem(in), rng, int(moves%2000), accept)
	})
}
