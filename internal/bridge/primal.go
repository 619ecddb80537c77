// Package bridge implements the two bridging stages of the compression
// pipeline: the flipping-operation primal bridging of paper §3.3 and the
// iterative dual bridging of §3.4.
//
// Primal bridging runs a greedy traversal over the I-shape groups of the
// PD graph. Each group may bridge with at most two neighbours along the
// z axis (the flip puts every module of a chain on the same y layer first,
// which is what keeps primal bridges from blocking dual bridges); the
// greedy cost Φ (eq. 3–4) prefers the neighbour connected to the most
// not-yet-traversed structures.
package bridge

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"tqec/internal/simplify"
)

// Chain is one primal bridging super-module: an ordered sequence of group
// representatives laid out along the z axis.
type Chain []int

// PrimalResult is the outcome of the flipping/primal-bridging stage.
type PrimalResult struct {
	Simplified *simplify.Result
	Chains     []Chain
	// chainOf and indexIn locate a group representative inside the chains.
	chainOf map[int]int
	indexIn map[int]int
}

// Primal performs the greedy chain construction with unbounded chain
// length. See PrimalWithLimit.
func Primal(r *simplify.Result, rng *rand.Rand) *PrimalResult {
	return PrimalWithLimit(r, rng, 0)
}

// PrimalWithLimit performs the greedy chain construction. When rng is
// non-nil the starting group of each chain is chosen at random (the paper
// "randomly selects the starting point"); otherwise the lowest-ID
// unvisited group is used, which makes the stage fully deterministic.
// maxLen > 0 caps the number of groups per chain: over-long chains make
// badly proportioned super-modules (their z extent dominates the
// placement), so the pipeline caps them near the cube root of the module
// count.
func PrimalWithLimit(r *simplify.Result, rng *rand.Rand, maxLen int) *PrimalResult {
	g := r.Graph
	n := len(g.Modules)
	// Group adjacency via dual nets, indexed by module ID (a group's
	// representative is one of its modules): rep -> nets, net -> reps.
	// seen stamps the groups one scan has met; epoch names the scan.
	groupNets := make([][]int, n)
	netGroups := make([][]int, len(g.Nets))
	seen := make([]int, n)
	epoch := 0
	for _, net := range g.Nets {
		epoch++
		for _, m := range net.Modules() {
			if rep := r.GroupOf(m); seen[rep] != epoch {
				seen[rep] = epoch
				netGroups[net.ID] = append(netGroups[net.ID], rep)
				groupNets[rep] = append(groupNets[rep], net.ID)
			}
		}
	}
	// The representatives in ascending order, and those with a dual net.
	var reps, connected []int
	for m := range g.Modules {
		if r.GroupOf(m) == m {
			reps = append(reps, m)
			if len(groupNets[m]) > 0 {
				connected = append(connected, m)
			}
		}
	}

	visited := make([]bool, n)
	res := &PrimalResult{
		Simplified: r,
		chainOf:    map[int]int{},
		indexIn:    map[int]int{},
	}

	// unvisited scans the groups rep's dual nets reach that no chain
	// holds yet, each once, calling f on each.
	unvisited := func(rep int, f func(other int)) {
		epoch++
		for _, nid := range groupNets[rep] {
			for _, other := range netGroups[nid] {
				if other != rep && !visited[other] && seen[other] != epoch {
					seen[other] = epoch
					f(other)
				}
			}
		}
	}
	// neighbours returns the unvisited groups reachable from rep via one
	// dual net, ascending, in a buffer the next call reuses.
	var cands []int
	neighbours := func(rep int) []int {
		cands = cands[:0]
		unvisited(rep, func(other int) { cands = append(cands, other) })
		sort.Ints(cands)
		return cands
	}
	// phi is the greedy cost of eq. (3)–(4): the number of not-yet-
	// traversed structures connected to the candidate through its dual
	// nets (the candidate itself excluded).
	phi := func(cand int) int {
		score := 0
		unvisited(cand, func(int) { score++ })
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

	// Chains only ever visit groups, so a cursor into each ascending list
	// moves forward past the visited ones and the deterministic start is
	// found in linear time over the whole run.
	nextConn, nextRep := 0, 0
	var pool []int
	for {
		// Choose an unvisited starting group, preferring connected ones
		// ("the starting point on an edge").
		for nextConn < len(connected) && visited[connected[nextConn]] {
			nextConn++
		}
		from := connected[nextConn:]
		if len(from) == 0 {
			for nextRep < len(reps) && visited[reps[nextRep]] {
				nextRep++
			}
			from = reps[nextRep:]
		}
		if len(from) == 0 {
			break
		}
		start := from[0]
		if rng != nil {
			// A seeded start draws from every unvisited candidate in
			// ascending order.
			pool = pool[:0]
			for _, rep := range from {
				if !visited[rep] {
					pool = append(pool, rep)
				}
			}
			start = pool[rng.Intn(len(pool))]
		}

		chain := Chain{start}
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
				chain = append(Chain{prev}, chain...)
				visited[prev] = true
				continue
			}
			break
		}
		idx := len(res.Chains)
		res.Chains = append(res.Chains, chain)
		for i, rep := range chain {
			res.chainOf[rep] = idx
			res.indexIn[rep] = i
		}
	}
	return res
}

// Singletons builds the degenerate primal result used by the dual-only
// baseline of Hsu et al. (DAC'21): no flipping operation, every group its
// own single-element chain (one B*-tree node per module group).
func Singletons(r *simplify.Result) *PrimalResult {
	res := &PrimalResult{
		Simplified: r,
		chainOf:    map[int]int{},
		indexIn:    map[int]int{},
	}
	seen := map[int]bool{}
	for m := range r.Graph.Modules {
		rep := r.GroupOf(m)
		if seen[rep] {
			continue
		}
		seen[rep] = true
		idx := len(res.Chains)
		res.Chains = append(res.Chains, Chain{rep})
		res.chainOf[rep] = idx
		res.indexIn[rep] = 0
	}
	return res
}

// NumNodes returns the number of placement nodes after primal bridging:
// one per chain (Table 1 "#Nodes").
func (p *PrimalResult) NumNodes() int { return len(p.Chains) }

// ChainOf returns the chain index and position of a group representative.
func (p *PrimalResult) ChainOf(rep int) (chain, index int, ok bool) {
	c, ok1 := p.chainOf[rep]
	i, ok2 := p.indexIn[rep]
	return c, i, ok1 && ok2
}

// Validate checks that the chains partition the groups and that every
// consecutive chain pair shares a dual net (the bridge's common segment
// must pass the same dual loops — adjacency through a net is the PD-graph
// witness of that).
func (p *PrimalResult) Validate() error {
	r := p.Simplified
	g := r.Graph
	seen := map[int]bool{}
	for _, chain := range p.Chains {
		if len(chain) == 0 {
			return fmt.Errorf("bridge: empty chain")
		}
		for _, rep := range chain {
			if seen[rep] {
				return fmt.Errorf("bridge: group %d in two chains", rep)
			}
			seen[rep] = true
		}
		for i := 1; i < len(chain); i++ {
			if !groupsShareNet(r, chain[i-1], chain[i]) {
				return fmt.Errorf("bridge: chain neighbours %d,%d share no dual net", chain[i-1], chain[i])
			}
		}
	}
	for m := range g.Modules {
		if !seen[r.GroupOf(m)] {
			return fmt.Errorf("bridge: group of module %d missing from chains", m)
		}
	}
	return nil
}

func groupsShareNet(r *simplify.Result, a, b int) bool {
	g := r.Graph
	for _, n := range g.Nets {
		hasA, hasB := false, false
		for _, m := range n.Modules() {
			switch r.GroupOf(m) {
			case a:
				hasA = true
			case b:
				hasB = true
			}
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// String summarizes the chains.
func (p *PrimalResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "primal bridging: %d chains\n", len(p.Chains))
	for i, c := range p.Chains {
		fmt.Fprintf(&sb, "  chain %d: %v\n", i, []int(c))
	}
	return sb.String()
}

// PrimalBest runs the greedy chain construction several times — once
// deterministically and restarts−1 times from seeded random starting
// points (the paper picks the start "randomly on an edge") — and keeps
// the outcome with the fewest chains (the strongest bridging, hence the
// smallest B*-tree). Deterministic for a fixed seed.
func PrimalBest(r *simplify.Result, seed int64, restarts, maxLen int) *PrimalResult {
	best := PrimalWithLimit(r, nil, maxLen)
	for i := 1; i < restarts; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		cand := PrimalWithLimit(r, rng, maxLen)
		if cand.NumNodes() < best.NumNodes() {
			best = cand
		}
	}
	return best
}
