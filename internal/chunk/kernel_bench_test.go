package chunk

import (
	"math/rand"
	"testing"

	"aggcache/internal/lattice"
	"aggcache/internal/schema"
)

// kernelFixture builds the shared micro-benchmark fixture: a fully populated
// base chunk plus the destination chunk coordinates one roll-up step above
// it. The grid is the same one the kernel unit tests use.
type kernelFixture struct {
	g      *Grid
	src    *Chunk     // base chunk 0, all 64 cells populated
	dstGB  lattice.ID // (Group, Store, Year) — 16-cell destination chunks
	dstNum int
}

func newKernelFixture(b testing.TB) *kernelFixture {
	g := rollupTestGrid(b)
	lat := g.Lattice()
	base := lat.Base()
	cm := NewCellMap()
	cap := g.CellCapacity(base, 0)
	for k := uint64(0); k < uint64(cap); k++ {
		cm.Add(k, float64(k%7+1))
	}
	src := cm.Build(base, 0)
	dstGB := lat.MustID(1, 1, 1)
	dstNum := g.DescendantChunk(base, 0, dstGB)
	return &kernelFixture{g: g, src: src, dstGB: dstGB, dstNum: dstNum}
}

// BenchmarkRollUpInto measures one roll-up of a dense 64-cell base chunk
// into its 16-cell destination — the aggregation kernel's unit of work.
// Allocations per op cover building the translation plus the key decode.
func BenchmarkRollUpInto(b *testing.B) {
	f := newKernelFixture(b)
	cm := f.g.NewCellMap(f.dstGB, f.dstNum)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.g.RollUpInto(cm, f.dstGB, f.dstNum, f.src); err != nil {
			b.Fatalf("RollUpInto: %v", err)
		}
	}
}

// BenchmarkRollUpIntoWide is RollUpInto against the top chunk: every source
// cell collapses into one destination cell (the all-identity-dims extreme).
func BenchmarkRollUpIntoWide(b *testing.B) {
	f := newKernelFixture(b)
	top := f.g.Lattice().Top()
	cm := f.g.NewCellMap(top, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.g.RollUpInto(cm, top, 0, f.src); err != nil {
			b.Fatalf("RollUpInto: %v", err)
		}
	}
}

// BenchmarkCellMapBuild measures the accumulate-then-build cycle the engine
// runs per intermediate plan node: obtain an accumulator, add the source
// cells, build the result chunk, release everything. This is the pooled
// steady state (GetCellMap → BuildInto scratch → Put).
func BenchmarkCellMapBuild(b *testing.B) {
	f := newKernelFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := f.g.GetCellMap(f.dstGB, f.dstNum)
		for k := uint64(0); k < 16; k++ {
			cm.AddCell(k, float64(k), 1)
		}
		c := cm.BuildInto(f.dstGB, f.dstNum, GetScratchChunk())
		if c.Cells() != 16 {
			b.Fatalf("built %d cells, want 16", c.Cells())
		}
		PutScratchChunk(c)
		PutCellMap(cm)
	}
}

// BenchmarkCellMapBuildFresh is the same cycle without pooling — what every
// plan node paid before accumulator reuse, and what retained results
// (Build) still pay by design.
func BenchmarkCellMapBuildFresh(b *testing.B) {
	f := newKernelFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := f.g.NewCellMap(f.dstGB, f.dstNum)
		for k := uint64(0); k < 16; k++ {
			cm.AddCell(k, float64(k), 1)
		}
		c := cm.Build(f.dstGB, f.dstNum)
		if c.Cells() != 16 {
			b.Fatalf("built %d cells, want 16", c.Cells())
		}
	}
}

// BenchmarkGridSlice measures trimming a 64-cell chunk to a half-region.
func BenchmarkGridSlice(b *testing.B) {
	f := newKernelFixture(b)
	ranges := []Range{{0, 2}, {0, 4}, {0, 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := f.g.Slice(f.src, ranges)
		if out.Cells() == 0 {
			b.Fatalf("empty slice")
		}
	}
}

// BenchmarkGridSliceFull measures the no-trim case: every cell inside the
// requested ranges.
func BenchmarkGridSliceFull(b *testing.B) {
	f := newKernelFixture(b)
	ranges := []Range{{0, 4}, {0, 4}, {0, 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := f.g.Slice(f.src, ranges)
		if out.Cells() != f.src.Cells() {
			b.Fatalf("full slice dropped cells")
		}
	}
}

// largeSourceGrid returns a grid whose single base chunk holds 64×32×24 =
// 49,152 cells — past what an aggregated chunk holds, the size preloaded
// base chunks reach — for the large-source roll-up benchmark.
func largeSourceGrid(b testing.TB) *Grid {
	b.Helper()
	p := schema.MustNewDimension("P", []schema.HierarchySpec{{Name: "Group", Card: 8}, {Name: "Code", Card: 64}})
	c := schema.MustNewDimension("C", []schema.HierarchySpec{{Name: "Region", Card: 4}, {Name: "Store", Card: 32}})
	tm := schema.MustNewDimension("T", []schema.HierarchySpec{{Name: "Year", Card: 2}, {Name: "Month", Card: 24}})
	return MustNewGrid(schema.MustNew("M", p, c, tm), [][]int{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}})
}

// BenchmarkRollUpIntoLarge rolls a quarter-populated 49,152-cell base chunk
// (12,288 cells) up one Product level (Code → Group) into a 3,072-cell
// destination — the translated decode over a large source.
func BenchmarkRollUpIntoLarge(b *testing.B) {
	g := largeSourceGrid(b)
	lat := g.Lattice()
	base := lat.Base()
	capacity := g.CellCapacity(base, 0)
	rng := rand.New(rand.NewSource(1))
	src := NewCellMap()
	for src.Len() < int(capacity/4) {
		src.AddCell(uint64(rng.Int63n(capacity)), float64(rng.Intn(100)), 1)
	}
	chunk := src.Build(base, 0)
	dstGB := lat.MustID(1, 2, 2)
	cm := g.NewCellMap(dstGB, 0)
	b.ReportAllocs()
	b.SetBytes(int64(chunk.Cells()) * CellBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.RollUpInto(cm, dstGB, 0, chunk); err != nil {
			b.Fatalf("RollUpInto: %v", err)
		}
	}
}

// BenchmarkCellMapBuildSparse runs the pooled accumulate/build/release cycle
// on a 65,536-slot dense accumulator with ~2% of its slots occupied, where
// BuildInto and Reset cost follows the occupied slots, not the capacity.
func BenchmarkCellMapBuildSparse(b *testing.B) {
	a := schema.MustNewDimension("A", []schema.HierarchySpec{{Name: "L", Card: 256}})
	bd := schema.MustNewDimension("B", []schema.HierarchySpec{{Name: "L", Card: 256}})
	g := MustNewGrid(schema.MustNew("M", a, bd), [][]int{{1, 1}, {1, 1}})
	base := g.Lattice().Base()
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, denseLimit/50)
	for i := range keys {
		keys[i] = uint64(rng.Intn(denseLimit))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := g.GetCellMap(base, 0)
		for _, k := range keys {
			cm.AddCell(k, 1, 1)
		}
		c := cm.BuildInto(base, 0, GetScratchChunk())
		if c.Cells() == 0 {
			b.Fatalf("built no cells")
		}
		PutScratchChunk(c)
		PutCellMap(cm)
	}
}
