package btree

import (
	"math/rand"
	"testing"
)

func randomBlocks(n int, seed int64) []Block {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Block, n)
	for i := range out {
		out[i] = Block{ID: i, W: 1 + rng.Intn(16), H: 1 + rng.Intn(8), Rotatable: i%2 == 0}
	}
	return out
}

// BenchmarkPack measures the contour packing of a mid-size floorplan.
func BenchmarkPack(b *testing.B) {
	tr := NewGrid(randomBlocks(200, 1))
	var pl []Placement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w int
		if pl, w, _ = tr.Pack(pl); w <= 0 {
			b.Fatal("empty pack")
		}
	}
}

// BenchmarkPerturbPack measures one SA move + repack, the placement inner
// loop.
func BenchmarkPerturbPack(b *testing.B) {
	tr := NewGrid(randomBlocks(200, 1))
	rng := rand.New(rand.NewSource(2))
	var pl []Placement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Perturb(rng) {
			pl, _, _ = tr.Pack(pl)
			tr.Undo()
		}
	}
}

// BenchmarkSnapshotRestore measures best-solution bookkeeping.
func BenchmarkSnapshotRestore(b *testing.B) {
	tr := NewGrid(randomBlocks(400, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Restore(tr.Snapshot())
	}
}
