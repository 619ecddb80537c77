package bridge_test

import (
	"testing"

	"tqec/internal/bridge"
	"tqec/internal/pdgraph"
	"tqec/internal/simplify"
)

// BenchmarkPrimalWithLimit measures the deterministic primal bridging of
// rd84_142 (Table-1 row 3, generator seed 1) at the pipeline's chain cap.
func BenchmarkPrimalWithLimit(b *testing.B) {
	g, err := pdgraph.New(oracleICM(b, "rd84_142"))
	if err != nil {
		b.Fatal(err)
	}
	r := simplify.Run(g, simplify.Options{})
	maxLen := chainCap(g.NumModules())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := bridge.PrimalWithLimit(r, nil, maxLen); p.NumNodes() == 0 {
			b.Fatal("no chains")
		}
	}
}
