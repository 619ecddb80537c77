package route

import (
	"math/rand"
	"testing"
)

// BenchmarkAStarStraight measures a single unobstructed route.
func BenchmarkAStarStraight(b *testing.B) {
	g, err := NewGrid(64, 64, 8)
	if err != nil {
		b.Fatal(err)
	}
	nets := []Net{{ID: 0, Pins: []Cell{{0, 32, 4}, {63, 32, 4}}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Route(g, nets, Options{})
		if err != nil || len(res.Failed) != 0 {
			b.Fatal("route failed")
		}
		for _, c := range res.Routes[0] {
			g.usage[g.idx(c)]--
		}
	}
}

// busNets is a congested bus: 24 two-pin nets crossing a 32×24×4 grid.
func busNets() []Net {
	rng := rand.New(rand.NewSource(1))
	var nets []Net
	for i := 0; i < 24; i++ {
		y := rng.Intn(24)
		nets = append(nets, Net{ID: i, Pins: []Cell{{0, y, rng.Intn(4)}, {31, 23 - y, rng.Intn(4)}}})
	}
	return nets
}

// BenchmarkNegotiated measures PathFinder over a congested bus.
func BenchmarkNegotiated(b *testing.B) {
	nets := busNets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := NewGrid(32, 24, 4)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Route(g, nets, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Failed) != 0 {
			b.Fatal("nets failed")
		}
	}
}
