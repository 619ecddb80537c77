package place

import (
	"math/rand"
	"sort"
	"testing"
)

// compactAxisScan is the all-pairs compactAxis the height map replaced,
// kept as its oracle: each item rests on the highest top among the items
// before it in coordinate order that sit strictly below it and overlap it
// on both other axes.
func compactAxisScan(r *Result, a axis, after [][]int) int {
	order := make([]int, 0, len(r.Placed))
	for i := range r.Placed {
		if r.Placed[i].Item != nil {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(x, y int) bool {
		px, _ := get(&r.Placed[order[x]], a)
		py, _ := get(&r.Placed[order[y]], a)
		return px < py
	})
	moved := 0
	for k, i := range order {
		p := &r.Placed[i]
		pp, _ := get(p, a)
		floor := 0
		for _, j := range order[:k] {
			q := &r.Placed[j]
			qp, qe := get(q, a)
			if qp >= pp {
				continue // only items below can support
			}
			if overlapOffAxis(p, q, a) && qp+qe > floor {
				floor = qp + qe
			}
		}
		if a == axisX {
			for _, before := range after[i] {
				b := &r.Placed[before]
				if b.Item != nil && b.X > floor {
					floor = b.X
				}
			}
		}
		if floor < pp {
			set(p, a, floor)
			moved++
		}
	}
	return moved
}

// overlapOffAxis reports whether two items overlap on both axes other
// than a.
func overlapOffAxis(p, q *Placed, a axis) bool {
	u, v := crossAxes(a)
	for _, b := range []axis{u, v} {
		pp, pe := get(p, b)
		qp, qe := get(q, b)
		if pp >= qp+qe || qp >= pp+pe {
			return false
		}
	}
	return true
}

// compactScan is Compact over compactAxisScan.
func compactScan(r *Result) int {
	after := make([][]int, len(r.Placed))
	for _, e := range r.Input.OrderEdges {
		if !e.Mutual {
			after[e.After] = append(after[e.After], e.Before)
		}
	}
	moved := 0
	for pass := 0; pass < 8; pass++ {
		m := compactAxisScan(r, axisX, after) + compactAxisScan(r, axisY, nil) + compactAxisScan(r, axisZ, nil)
		moved += m
		if m == 0 {
			break
		}
	}
	r.NX, r.NY, r.NZ = bounds(r)
	r.Volume = r.NX * r.NY * r.NZ
	return moved
}

// randomPlacement builds n items on a coarse lattice, so many share a
// coordinate on every axis (tie groups), with random order edges, some
// mutual. Some slots stay unplaced. A legal placement rejects overlaps;
// otherwise items may overlap and start below 0, the inputs on which the
// tie rule decides the outcome.
func randomPlacement(rng *rand.Rand, n int, legal bool) *Result {
	items := make([]Item, n)
	r := &Result{Input: &Input{Items: items}, Placed: make([]Placed, n)}
	lo := 0
	if !legal {
		lo = -2
	}
	for i := range items {
		items[i] = Item{ID: i, W: 1 + rng.Intn(4), H: 1 + rng.Intn(4), D: 1 + rng.Intn(3)}
		if rng.Intn(8) == 0 {
			continue // unplaced slot
		}
		for try := 0; try < 40; try++ {
			p := Placed{
				Item: &items[i],
				X:    lo + 2*rng.Intn(10), Y: lo + 2*rng.Intn(8), Z: lo + 3*rng.Intn(4),
				W: items[i].W, H: items[i].H, D: items[i].D,
			}
			ok := true
			for j := 0; legal && j < i; j++ {
				if r.Placed[j].Item != nil && overlaps(&p, &r.Placed[j]) {
					ok = false
					break
				}
			}
			if ok {
				r.Placed[i] = p
				break
			}
		}
	}
	for e := 0; e < n; e++ {
		b, a := rng.Intn(n), rng.Intn(n)
		if a != b {
			r.Input.OrderEdges = append(r.Input.OrderEdges, OrderEdge{Before: b, After: a, Mutual: rng.Intn(5) == 0})
		}
	}
	return r
}

func clonePlacement(r *Result) *Result {
	c := *r
	c.Placed = append([]Placed(nil), r.Placed...)
	return &c
}

func samePlacement(t *testing.T, what string, got, want *Result) {
	t.Helper()
	for i := range want.Placed {
		if got.Placed[i] != want.Placed[i] {
			t.Fatalf("%s: item %d at %+v, oracle %+v", what, i, got.Placed[i], want.Placed[i])
		}
	}
}

// TestCompactMatchesScan checks the height-map compaction against the
// all-pairs oracle, one axis at a time and as a whole Compact, on random
// legal and overlapping placements with tie groups and order edges.
func TestCompactMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		legal := trial%3 != 0
		r := randomPlacement(rng, 2+rng.Intn(40), legal)
		after := make([][]int, len(r.Placed))
		for _, e := range r.Input.OrderEdges {
			if !e.Mutual {
				after[e.After] = append(after[e.After], e.Before)
			}
		}
		for a := axisX; a <= axisZ; a++ {
			got, want := clonePlacement(r), clonePlacement(r)
			n := newHeightMap(got).compactAxis(got, a, after)
			if wn := compactAxisScan(want, a, after); n != wn {
				t.Fatalf("trial %d axis %d: moved %d, oracle %d", trial, a, n, wn)
			}
			samePlacement(t, "compactAxis", got, want)
		}
		got, want := clonePlacement(r), clonePlacement(r)
		if n, wn := Compact(got), compactScan(want); n != wn {
			t.Fatalf("trial %d: Compact moved %d, oracle %d", trial, n, wn)
		}
		samePlacement(t, "Compact", got, want)
		if got.Volume != want.Volume {
			t.Fatalf("trial %d: volume %d, oracle %d", trial, got.Volume, want.Volume)
		}
		if legal {
			if err := got.CheckLegal(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}
