package bridge_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tqec/internal/bench"
	"tqec/internal/bridge"
	"tqec/internal/decompose"
	"tqec/internal/icm"
	"tqec/internal/pdgraph"
	"tqec/internal/revlib"
	"tqec/internal/simplify"
)

// primalScan is the map-based greedy chain construction PrimalWithLimit
// replaced, kept as its oracle: it rebuilds the pool of unvisited groups
// for every chain, which is quadratic in the group count.
func primalScan(r *simplify.Result, rng *rand.Rand, maxLen int) []bridge.Chain {
	g := r.Graph
	// Group adjacency via dual nets: rep -> nets, net -> reps.
	groupNets := map[int][]int{}
	netGroups := make([][]int, len(g.Nets))
	reps := map[int]bool{}
	for m := range g.Modules {
		reps[r.GroupOf(m)] = true
	}
	for _, n := range g.Nets {
		seen := map[int]bool{}
		for _, m := range n.Modules() {
			rep := r.GroupOf(m)
			if !seen[rep] {
				seen[rep] = true
				netGroups[n.ID] = append(netGroups[n.ID], rep)
				groupNets[rep] = append(groupNets[rep], n.ID)
			}
		}
	}
	repList := make([]int, 0, len(reps))
	for rep := range reps {
		repList = append(repList, rep)
	}
	sort.Ints(repList)

	visited := map[int]bool{}
	var chains []bridge.Chain

	// neighbours returns the unvisited groups reachable from rep via one
	// dual net.
	neighbours := func(rep int) []int {
		var out []int
		seen := map[int]bool{}
		for _, nid := range groupNets[rep] {
			for _, other := range netGroups[nid] {
				if other != rep && !visited[other] && !seen[other] {
					seen[other] = true
					out = append(out, other)
				}
			}
		}
		sort.Ints(out)
		return out
	}
	// phi is the greedy cost of eq. (3)–(4): the number of not-yet-
	// traversed structures connected to the candidate through its dual
	// nets (the candidate itself excluded).
	phi := func(cand int) int {
		score := 0
		seen := map[int]bool{}
		for _, nid := range groupNets[cand] {
			for _, other := range netGroups[nid] {
				if other != cand && !visited[other] && !seen[other] {
					seen[other] = true
					score++
				}
			}
		}
		return score
	}
	pickBest := func(cands []int) int {
		best, bestScore, bestDegree := -1, -1, -1
		for _, c := range cands {
			s := phi(c)
			d := len(groupNets[c])
			if s > bestScore || (s == bestScore && d > bestDegree) ||
				(s == bestScore && d == bestDegree && (best < 0 || c < best)) {
				best, bestScore, bestDegree = c, s, d
			}
		}
		return best
	}

	for {
		// Choose an unvisited starting group, preferring connected ones
		// ("the starting point on an edge").
		start := -1
		var pool []int
		for _, rep := range repList {
			if !visited[rep] {
				pool = append(pool, rep)
			}
		}
		if len(pool) == 0 {
			break
		}
		var connected []int
		for _, rep := range pool {
			if len(groupNets[rep]) > 0 {
				connected = append(connected, rep)
			}
		}
		pickFrom := connected
		if len(pickFrom) == 0 {
			pickFrom = pool
		}
		if rng != nil {
			start = pickFrom[rng.Intn(len(pickFrom))]
		} else {
			start = pickFrom[0]
		}

		chain := bridge.Chain{start}
		visited[start] = true
		// Extend at the tail, then at the head, until both directions are
		// exhausted — each group bridges at most two neighbours on z.
		for maxLen <= 0 || len(chain) < maxLen {
			tail := chain[len(chain)-1]
			if next := pickBest(neighbours(tail)); next >= 0 {
				chain = append(chain, next)
				visited[next] = true
				continue
			}
			head := chain[0]
			if prev := pickBest(neighbours(head)); prev >= 0 {
				chain = append(bridge.Chain{prev}, chain...)
				visited[prev] = true
				continue
			}
			break
		}
		chains = append(chains, chain)
	}
	return chains
}

// oracleICM lowers toffoli3 or generates a Table-1 row with generator
// seed 1.
func oracleICM(t testing.TB, name string) *icm.Rep {
	t.Helper()
	if src, ok := revlib.Samples[name]; ok {
		c, err := revlib.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		lowered, err := decompose.ToCliffordT(c)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := icm.FromCliffordT(lowered.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	spec, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no spec %q", name)
	}
	rep, _, err := spec.GenerateICM(1)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// chainCap is the pipeline's chain-length cap: the cube root of the
// module count, at least 3.
func chainCap(modules int) int {
	c := 3
	for c*c*c < modules {
		c++
	}
	return c
}

// TestPrimalMatchesScan asserts that PrimalWithLimit builds exactly the
// chains of the quadratic scan it replaced on toffoli3 and Table-1 rows
// 1–5, with the I-shape on and off, uncapped and at the pipeline's cap,
// for the deterministic start and three seeded ones. Rows 4–5 take the
// scan tens of seconds, so -short skips them.
func TestPrimalMatchesScan(t *testing.T) {
	names := []string{"toffoli3", "4gt10-v1_81", "4gt4-v0_73", "rd84_142", "hwb5_53", "add16_174"}
	if testing.Short() {
		names = names[:4]
	}
	for _, name := range names {
		rep := oracleICM(t, name)
		for _, ishape := range []bool{true, false} {
			g, err := pdgraph.New(rep)
			if err != nil {
				t.Fatal(err)
			}
			r := simplify.Run(g, simplify.Options{Disabled: !ishape})
			for _, maxLen := range []int{0, chainCap(g.NumModules())} {
				for seed := int64(0); seed <= 3; seed++ {
					var rngA, rngB *rand.Rand
					if seed > 0 {
						rngA, rngB = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					}
					what := fmt.Sprintf("%s ishape=%v maxLen=%d seed=%d", name, ishape, maxLen, seed)
					got := bridge.PrimalWithLimit(r, rngA, maxLen)
					if err := got.Validate(); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if want := primalScan(r, rngB, maxLen); !reflect.DeepEqual(got.Chains, want) {
						t.Fatalf("%s: %d chains, the scan built %d; first difference at chain %d",
							what, len(got.Chains), len(want), firstDiff(got.Chains, want))
					}
				}
			}
		}
	}
}

func firstDiff(a, b []bridge.Chain) int {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return min(len(a), len(b))
}
