package bridge

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"tqec/internal/obs"
	"tqec/internal/simplify"
)

// DualBridge records one dual-bridging merge: nets A and B joined inside
// part Part.
type DualBridge struct {
	A, B int
	Part int
}

// DualResult is the outcome of iterative dual bridging: a partition of the
// dual nets into merged components.
type DualResult struct {
	Simplified *simplify.Result
	Bridges    []DualBridge

	parent  []int
	members map[int][]int // component rep -> original net IDs
}

// DualNone builds the no-bridging dual result (every net its own
// component): the "topological deformation only" configuration of the
// paper's Fig. 1(c), used as the weakest baseline rung.
func DualNone(r *simplify.Result) *DualResult {
	g := r.Graph
	d := &DualResult{
		Simplified: r,
		parent:     make([]int, len(g.Nets)),
		members:    map[int][]int{},
	}
	for i := range d.parent {
		d.parent[i] = i
		d.members[i] = []int{i}
	}
	return d
}

// DualContext performs iterative dual bridging over the part structure
// produced by the I-shaped simplification. Two nets may bridge when they
// pass through the same part (paper §3.4 — the split-part bookkeeping is
// what prevents the illegal d0/d2 merge of Fig. 14), subject to:
//
//   - the no-extra-loop rule: nets already in one component cannot take a
//     second bridge (one continuous common segment only, §2.4);
//   - the time-ordered measurement rule: components containing nets of
//     inter-T-ordered gadgets must not merge, since a merged structure
//     forces its measurements into the same time slice.
//
// Passes repeat until no merge applies, making the result maximal.
//
// Every merge-iteration pass is one "dual-pass" obs span recording the
// merges it performed; a journal reads the span's end as a progress
// heartbeat. The algorithm ignores cancellation (passes are cheap and
// strictly decreasing).
func DualContext(ctx context.Context, r *simplify.Result) *DualResult {
	g := r.Graph
	d := &DualResult{
		Simplified: r,
		parent:     make([]int, len(g.Nets)),
		members:    map[int][]int{},
	}
	for i := range d.parent {
		d.parent[i] = i
		d.members[i] = []int{i}
	}
	for pass, changed := 0, true; changed; pass++ {
		changed = false
		merged := len(d.Bridges)
		sp, _ := obs.StartSpan(ctx, "dual-pass")
		for _, part := range r.Parts() {
			nets := r.PartNets(part)
			for i := 0; i < len(nets); i++ {
				for j := i + 1; j < len(nets); j++ {
					if d.tryMerge(nets[i], nets[j], part) {
						changed = true
					}
				}
			}
		}
		if sp != nil {
			sp.SetAttr("pass", pass+1)
			sp.SetAttr("merges", len(d.Bridges)-merged)
			sp.End()
		}
	}
	return d
}

func (d *DualResult) find(n int) int {
	for d.parent[n] != n {
		d.parent[n] = d.parent[d.parent[n]]
		n = d.parent[n]
	}
	return n
}

// tryMerge bridges the components of nets a and b inside part if legal.
func (d *DualResult) tryMerge(a, b, part int) bool {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return false // a second bridge would create an extra loop
	}
	if !d.orderCompatible(ra, rb) {
		return false
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.members[ra] = append(d.members[ra], d.members[rb]...)
	delete(d.members, rb)
	d.Bridges = append(d.Bridges, DualBridge{A: a, B: b, Part: part})
	return true
}

// orderCompatible reports whether no net pair across the two components
// carries an inter-T measurement ordering.
func (d *DualResult) orderCompatible(ra, rb int) bool {
	g := d.Simplified.Graph
	for _, x := range d.members[ra] {
		for _, y := range d.members[rb] {
			nx, ny := g.Nets[x], g.Nets[y]
			if g.GadgetOrderedBefore(nx, ny) || g.GadgetOrderedBefore(ny, nx) {
				return false
			}
		}
	}
	return true
}

// Component returns the merged-component representative of a net.
func (d *DualResult) Component(net int) int { return d.find(net) }

// SameComponent reports whether two nets were bridged together.
func (d *DualResult) SameComponent(a, b int) bool { return d.find(a) == d.find(b) }

// Components returns the merged net components, each sorted, ordered by
// representative.
func (d *DualResult) Components() [][]int {
	reps := make([]int, 0, len(d.members))
	for rep := range d.members {
		reps = append(reps, rep)
	}
	sort.Ints(reps)
	out := make([][]int, 0, len(reps))
	for _, rep := range reps {
		ms := append([]int(nil), d.members[rep]...)
		sort.Ints(ms)
		out = append(out, ms)
	}
	return out
}

// NumComponents returns the number of dual nets remaining after bridging.
func (d *DualResult) NumComponents() int { return len(d.members) }

// NumBridges returns the number of merges performed.
func (d *DualResult) NumBridges() int { return len(d.Bridges) }

// ComponentParts returns the union of part keys the component's nets pass.
func (d *DualResult) ComponentParts(rep int) []int {
	seen := map[int]bool{}
	var out []int
	for _, n := range d.members[d.find(rep)] {
		for _, p := range d.Simplified.NetParts(n) {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Validate checks the bridging invariants: the components partition the
// nets, every bridge joined nets sharing its part, the component count
// matches #nets − #bridges (tree/no-extra-loop rule), and no component
// holds an ordered gadget pair.
func (d *DualResult) Validate() error {
	g := d.Simplified.Graph
	total := 0
	for rep, ms := range d.members {
		if d.find(rep) != rep {
			return fmt.Errorf("bridge: stale component rep %d", rep)
		}
		total += len(ms)
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				nx, ny := g.Nets[ms[i]], g.Nets[ms[j]]
				if g.GadgetOrderedBefore(nx, ny) || g.GadgetOrderedBefore(ny, nx) {
					return fmt.Errorf("bridge: ordered nets %d,%d share component %d", ms[i], ms[j], rep)
				}
			}
		}
	}
	if total != len(g.Nets) {
		return fmt.Errorf("bridge: components cover %d of %d nets", total, len(g.Nets))
	}
	if got, want := d.NumComponents(), len(g.Nets)-len(d.Bridges); got != want {
		return fmt.Errorf("bridge: %d components with %d bridges over %d nets (extra loop?)",
			got, len(d.Bridges), len(g.Nets))
	}
	for _, b := range d.Bridges {
		if !passesPart(d.Simplified, b.A, b.Part) || !passesPart(d.Simplified, b.B, b.Part) {
			return fmt.Errorf("bridge: bridge %v joins nets outside its part", b)
		}
		if d.find(b.A) != d.find(b.B) {
			return fmt.Errorf("bridge: bridge %v endpoints in different components", b)
		}
	}
	return nil
}

func passesPart(r *simplify.Result, net, part int) bool {
	for _, p := range r.NetParts(net) {
		if p == part {
			return true
		}
	}
	return false
}

// String summarizes the components.
func (d *DualResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dual bridging: %d nets -> %d components (%d bridges)\n",
		len(d.Simplified.Graph.Nets), d.NumComponents(), d.NumBridges())
	for _, c := range d.Components() {
		fmt.Fprintf(&sb, "  %v\n", c)
	}
	return sb.String()
}
