package chunk

import (
	"math/rand"
	"sync"
	"testing"

	"aggcache/internal/lattice"
	"aggcache/internal/schema"
)

// TestSliceEdgeCases pins the kernel's trimming behavior on the inputs the
// fast paths special-case: chunks without a Counts column, empty chunks,
// empty intersections, and full coverage.
func TestSliceEdgeCases(t *testing.T) {
	g := rollupTestGrid(t)
	base := g.Lattice().Base()

	// A chunk with nil Counts (older payloads and some test fixtures): the
	// slice must keep Counts nil rather than fabricating one.
	cm := NewCellMap()
	_, k1 := g.ChunkOfCell(base, []int32{0, 0, 0})
	_, k2 := g.ChunkOfCell(base, []int32{3, 3, 3})
	cm.Add(k1, 1)
	cm.Add(k2, 2)
	built := cm.Build(base, 0)
	noCounts := &Chunk{GB: built.GB, Num: built.Num, Keys: built.Keys, Vals: built.Vals}
	out := g.Slice(noCounts, []Range{{0, 2}, {0, 4}, {0, 4}})
	if out.Cells() != 1 || out.Counts != nil {
		t.Fatalf("nil-Counts slice: cells=%d counts=%v, want 1 cell and nil counts", out.Cells(), out.Counts)
	}
	if v, ok := out.Value(k1); !ok || v != 1 {
		t.Fatalf("nil-Counts slice kept wrong cell: %v %v", v, ok)
	}

	// An empty chunk slices to an empty chunk with the same identity.
	empty := &Chunk{GB: base, Num: 5}
	out = g.Slice(empty, []Range{{0, 4}, {0, 4}, {0, 4}})
	if out.Cells() != 0 || out.GB != base || out.Num != 5 {
		t.Fatalf("empty slice = %v", out)
	}

	// Ranges that miss the chunk entirely: empty result without a scan.
	out = g.Slice(built, []Range{{100, 200}, {0, 4}, {0, 4}})
	if out.Cells() != 0 {
		t.Fatalf("disjoint slice kept %d cells", out.Cells())
	}

	// Full coverage returns the chunk itself — chunks are immutable, so the
	// trim is free.
	if out = g.Slice(built, []Range{{0, 4}, {0, 4}, {0, 4}}); out != built {
		t.Fatalf("full-coverage slice did not return the source chunk")
	}
}

// TestCellMapResetReuse drives the Reset-then-reuse cycle pooling depends
// on, in both dense and sparse modes and across capacity changes: a reused
// accumulator must never leak a previous run's cells.
func TestCellMapResetReuse(t *testing.T) {
	g := rollupTestGrid(t)
	lat := g.Lattice()
	base := lat.Base() // capacity 64 → dense

	// Dense: fill, build, reset, refill with different keys.
	cm := g.GetCellMap(base, 0)
	if !cm.isDense {
		t.Fatalf("base accumulator should be dense")
	}
	for k := uint64(0); k < 64; k++ {
		cm.Add(k, float64(k+1))
	}
	if c := cm.Build(base, 0); c.Cells() != 64 {
		t.Fatalf("dense build: %d cells", c.Cells())
	}
	cm.Reset()
	if cm.Len() != 0 {
		t.Fatalf("dense Reset left %d cells", cm.Len())
	}
	cm.Add(7, 3)
	c := cm.Build(base, 0)
	if c.Cells() != 1 || c.Keys[0] != 7 || c.Vals[0] != 3 {
		t.Fatalf("dense reuse leaked stale cells: %v %v", c.Keys, c.Vals)
	}
	PutCellMap(cm)

	// Pooled reuse across shrinking and regrowing capacities: the slots the
	// small-capacity use never touched must still be zero when the arrays
	// grow back.
	cm = g.GetCellMap(base, 0) // capacity 64 again (likely the pooled one)
	if got := cm.Len(); got != 0 {
		t.Fatalf("pooled accumulator arrived with %d cells", got)
	}
	top := lat.Top() // capacity 1
	cm.prepare(1)
	cm.Add(0, 5)
	if c := cm.Build(top, 0); c.Cells() != 1 || c.Vals[0] != 5 {
		t.Fatalf("shrunk reuse wrong: %v", c)
	}
	cm.Reset()
	cm.prepare(64)
	if got := cm.Build(base, 0); got.Cells() != 0 {
		t.Fatalf("regrown accumulator leaked %d cells: keys %v", got.Cells(), got.Keys)
	}
	PutCellMap(cm)

	// The largest dense map, with cells only in its last words: the
	// set-bit Reset must zero exactly those slots, so after a shrink to a
	// few words and a regrow to full size no stale cell survives.
	cm = g.GetCellMap(base, 0)
	cm.prepare(denseLimit)
	high := []uint64{denseLimit - 1, denseLimit - 64, denseLimit - 65, denseLimit - 200}
	for i, k := range high {
		cm.AddCell(k, float64(i+1), int64(i+1))
	}
	if c := cm.Build(base, 0); c.Cells() != len(high) || c.Keys[0] != denseLimit-200 || c.Keys[3] != denseLimit-1 {
		t.Fatalf("high-word build: keys %v", c.Keys)
	}
	cm.Reset()
	for k, a := range cm.dense {
		if a != (cellAgg{}) {
			t.Fatalf("Reset left slot %d = %+v", k, a)
		}
	}
	cm.prepare(128)
	cm.Add(100, 1)
	if c := cm.Build(base, 0); c.Cells() != 1 || c.Keys[0] != 100 {
		t.Fatalf("shrunk reuse of the large map: keys %v", c.Keys)
	}
	cm.Reset()
	cm.prepare(denseLimit)
	if got := cm.Build(base, 0); got.Cells() != 0 {
		t.Fatalf("regrown large map leaked %d cells: keys %v", got.Cells(), got.Keys)
	}
	cm.Add(denseLimit-1, 2)
	if c := cm.Build(base, 0); c.Cells() != 1 || c.Vals[0] != 2 || c.Counts[0] != 1 {
		t.Fatalf("regrown large map: %v %v %v", c.Keys, c.Vals, c.Counts)
	}
	PutCellMap(cm)

	// Sparse: a grid whose base capacity exceeds denseLimit falls back to
	// the map, and the same reset/reuse contract must hold there.
	big := bigChunkGrid(t)
	bigBase := big.Lattice().Base()
	sm := big.GetCellMap(bigBase, 0)
	if sm.isDense {
		t.Fatalf("big-capacity accumulator should be sparse (cap %d)", big.CellCapacity(bigBase, 0))
	}
	sm.Add(70000, 1)
	sm.Add(1, 2)
	sm.Reset()
	if sm.Len() != 0 {
		t.Fatalf("sparse Reset left %d cells", sm.Len())
	}
	sm.Add(3, 9)
	if c := sm.Build(bigBase, 0); c.Cells() != 1 || c.Keys[0] != 3 {
		t.Fatalf("sparse reuse leaked stale cells: %v", c.Keys)
	}
	PutCellMap(sm)

	// Mode flip on a pooled accumulator: sparse use, then dense use, must
	// not resurrect map cells.
	sm = big.GetCellMap(bigBase, 0)
	sm.Add(12345, 4)
	PutCellMap(sm)
	dm := big.GetCellMap(big.Lattice().Top(), 0)
	if dm.Len() != 0 {
		t.Fatalf("mode-flipped accumulator arrived with %d cells", dm.Len())
	}
	dm.Add(0, 1)
	if c := dm.Build(big.Lattice().Top(), 0); c.Cells() != 1 || c.Vals[0] != 1 {
		t.Fatalf("mode flip produced %v / %v", c.Keys, c.Vals)
	}
	PutCellMap(dm)
}

// bigChunkGrid returns a grid whose single base chunk exceeds denseLimit
// cells, forcing the sparse accumulator.
func bigChunkGrid(t testing.TB) *Grid {
	t.Helper()
	a := schema.MustNewDimension("A", []schema.HierarchySpec{{Name: "L", Card: 300}})
	bd := schema.MustNewDimension("B", []schema.HierarchySpec{{Name: "L", Card: 300}})
	s := schema.MustNew("M", a, bd)
	return MustNewGrid(s, [][]int{{1, 1}, {1, 1}})
}

// TestRollUpFastPaths checks which form each roll-up takes — copy-through
// for identical group-bys and when only span-1 dimensions collapse, the
// translated decode otherwise, for small and large sources alike — and
// every result against a member-level reference aggregation.
func TestRollUpFastPaths(t *testing.T) {
	// Span-1 copy-through needs a dimension chunked one-member-per-chunk.
	p := schema.MustNewDimension("P", []schema.HierarchySpec{{Name: "Group", Card: 4}, {Name: "Code", Card: 16}})
	c := schema.MustNewDimension("C", []schema.HierarchySpec{{Name: "Store", Card: 12}})
	tm := schema.MustNewDimension("T", []schema.HierarchySpec{{Name: "Year", Card: 2}, {Name: "Month", Card: 8}})
	g := MustNewGrid(schema.MustNew("M", p, c, tm), [][]int{{1, 2, 4}, {1, 12}, {1, 1, 2}})
	lat := g.Lattice()
	base := lat.Base()

	cm := NewCellMap()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		cm.Add(uint64(rng.Intn(int(g.CellCapacity(base, 0)))), float64(1+rng.Intn(9)))
	}
	src := cm.Build(base, 0)

	form := func(g *Grid, dstGB lattice.ID, dstNum int, src *Chunk) bool {
		t.Helper()
		var tr keyTranslation
		copyThrough, err := g.translation(&tr, dstGB, dstNum, src.GB, int(src.Num))
		if err != nil {
			t.Fatalf("translation into %s chunk %d: %v", g.Lattice().LevelTupleString(dstGB), dstNum, err)
		}
		return copyThrough
	}

	// Same group-by: pure copy.
	if !form(g, base, 0, src) {
		t.Fatalf("same-gb roll-up should be copy-through")
	}
	checkRollUpAgainstReference(t, g, base, 0, src)

	// Collapsing only the span-1 Store dimension: still copy-through.
	storeAll := lat.MustID(2, 0, 2)
	dst := g.DescendantChunk(base, 0, storeAll)
	if !form(g, storeAll, dst, src) {
		t.Fatalf("span-1-only collapse should be copy-through")
	}
	checkRollUpAgainstReference(t, g, storeAll, dst, src)

	// A span-1 source dimension whose destination chunk is wider: Month
	// chunks hold one member each, the Year chunk holds both years, so the
	// month's year becomes a destination digit and keys must translate.
	mp := schema.MustNewDimension("P", []schema.HierarchySpec{{Name: "Code", Card: 4}})
	mt := schema.MustNewDimension("T", []schema.HierarchySpec{{Name: "Year", Card: 2}, {Name: "Month", Card: 8}})
	mg := MustNewGrid(schema.MustNew("M", mp, mt), [][]int{{1, 1}, {1, 1, 8}})
	mbase, year := mg.Lattice().Base(), mg.Lattice().MustID(1, 1)
	mcm := NewCellMap()
	for k := uint64(0); k < 4; k++ {
		mcm.Add(k, float64(k+1))
	}
	msrc := mcm.Build(mbase, 6) // Month 6, in the second year
	if form(mg, year, 0, msrc) {
		t.Fatalf("span-1 dimension widening into its destination must translate keys")
	}
	checkRollUpAgainstReference(t, mg, year, 0, msrc)

	// A genuinely translating source: the translated decode.
	grp := lat.MustID(1, 1, 1)
	dst = g.DescendantChunk(base, 0, grp)
	if form(g, grp, dst, src) {
		t.Fatalf("Code→Group, Month→Year roll-up must translate keys")
	}
	checkRollUpAgainstReference(t, g, grp, dst, src)

	// A source above denseLimit into a dense top chunk: translated too.
	big := bigChunkGrid(t)
	blat := big.Lattice()
	bcm := NewCellMap()
	for i := 0; i < 200; i++ {
		bcm.Add(uint64(rng.Intn(90000)), float64(1+rng.Intn(9)))
	}
	bsrc := bcm.Build(blat.Base(), 0)
	if form(big, blat.Top(), 0, bsrc) {
		t.Fatalf("large source into the top chunk must translate keys")
	}
	checkRollUpAgainstReference(t, big, blat.Top(), 0, bsrc)
}

// TestReciprocalDecodeExact pins the kernel's division-free decode: for
// every span 2…4096 (plus spans near 2³²), hi64(reciprocal(span)·k) must
// equal k/span at the multiples of span ±1 — where a truncated reciprocal
// goes wrong first — from 0 up to the largest 32-bit numerator.
func TestReciprocalDecodeExact(t *testing.T) {
	const maxKey = 1<<32 - 1
	rng := rand.New(rand.NewSource(3))
	check := func(span, k uint64) {
		if k > maxKey {
			return
		}
		if got, want := quotient(k, reciprocal(span)), k/span; got != want {
			t.Fatalf("span %d, k %d: quotient %d, want %d", span, k, got, want)
		}
	}
	spans := []uint64{1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<32 - 3, 1<<32 - 1}
	for span := uint64(2); span <= 4096; span++ {
		spans = append(spans, span)
	}
	for _, span := range spans {
		top := maxKey / span
		var qs []uint64
		for q := uint64(0); q < 64 && q <= top; q++ {
			qs = append(qs, q, top-q)
		}
		for i := 0; i < 64; i++ {
			qs = append(qs, uint64(rng.Int63n(int64(top)+1)))
		}
		for _, q := range qs {
			m := q * span
			check(span, m)
			check(span, m+1)
			if m > 0 {
				check(span, m-1)
			}
		}
		check(span, maxKey)
	}
}

// checkRollUpAgainstReference rolls src into (dstGB, dstNum) and compares
// every destination cell against a member-level reference computed with
// CellMembers + Dimension.Ancestor.
func checkRollUpAgainstReference(t *testing.T, g *Grid, dstGB lattice.ID, dstNum int, src *Chunk) {
	t.Helper()
	lat := g.Lattice()
	cm := g.NewCellMap(dstGB, dstNum)
	if _, err := g.RollUpInto(cm, dstGB, dstNum, src); err != nil {
		t.Fatalf("RollUpInto: %v", err)
	}
	got := cm.Build(dstGB, dstNum)

	want := make(map[uint64]float64)
	wantN := make(map[uint64]int64)
	nd := g.Schema().NumDims()
	for i, key := range src.Keys {
		members := g.CellMembers(src.GB, int(src.Num), key, nil)
		am := make([]int32, nd)
		for d := 0; d < nd; d++ {
			am[d] = g.Schema().Dim(d).Ancestor(lat.LevelAt(src.GB, d), lat.LevelAt(dstGB, d), members[d])
		}
		num, dk := g.ChunkOfCell(dstGB, am)
		if num != dstNum {
			t.Fatalf("reference cell landed in chunk %d, want %d", num, dstNum)
		}
		want[dk] += src.Vals[i]
		if src.Counts == nil {
			wantN[dk]++
		} else {
			wantN[dk] += src.Counts[i]
		}
	}
	if got.Cells() != len(want) {
		t.Fatalf("rolled %d cells, reference has %d", got.Cells(), len(want))
	}
	for i, key := range got.Keys {
		if want[key] != got.Vals[i] || wantN[key] != got.Counts[i] {
			t.Fatalf("cell %d: got %v/%d want %v/%d", key, got.Vals[i], got.Counts[i], want[key], wantN[key])
		}
	}
}

// TestRollUpConcurrentMatchesSerial rolls every chunk of one Grid up from
// many goroutines at once, sharing the grid's offset tables and the
// accumulator and scratch-chunk pools, and checks every result against a
// serially computed reference. Run with -race (make race / CI does).
func TestRollUpConcurrentMatchesSerial(t *testing.T) {
	g := rollupTestGrid(t)
	lat := g.Lattice()
	rng := rand.New(rand.NewSource(11))
	cells := make(map[[3]int32]float64)
	for i := 0; i < 400; i++ {
		m := [3]int32{int32(rng.Intn(16)), int32(rng.Intn(12)), int32(rng.Intn(8))}
		cells[m] += float64(1 + rng.Intn(50))
	}
	baseChunks := buildBaseChunks(g, cells)

	// Serial reference: total per (gb, chunk) from a second, isolated grid
	// so the run under test shares nothing with it.
	ref := rollupTestGrid(t)
	type target struct {
		gb  lattice.ID
		num int
	}
	refTotals := make(map[target]float64)
	var targets []target
	for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
		for num := 0; num < g.NumChunks(id); num++ {
			cm := NewCellMap()
			for _, bc := range ref.AncestorChunks(id, num, lat.Base(), nil) {
				if src, ok := baseChunks[bc]; ok {
					if _, err := ref.RollUpInto(cm, id, num, src); err != nil {
						t.Fatalf("reference roll-up: %v", err)
					}
				}
			}
			tg := target{gb: id, num: num}
			refTotals[tg] = cm.Build(id, num).Total()
			targets = append(targets, tg)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for i := w; i < len(targets); i += 1 + w%3 {
					tg := targets[i]
					cm := g.GetCellMap(tg.gb, tg.num)
					for _, bc := range g.AncestorChunks(tg.gb, tg.num, lat.Base(), nil) {
						if src, ok := baseChunks[bc]; ok {
							if _, err := g.RollUpInto(cm, tg.gb, tg.num, src); err != nil {
								errs <- err
								PutCellMap(cm)
								return
							}
						}
					}
					got := cm.BuildInto(tg.gb, tg.num, GetScratchChunk())
					if got.Total() != refTotals[tg] {
						t.Errorf("gb %d chunk %d: total %v, want %v", tg.gb, tg.num, got.Total(), refTotals[tg])
					}
					PutScratchChunk(got)
					PutCellMap(cm)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent roll-up: %v", err)
	}
}
