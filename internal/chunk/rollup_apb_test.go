package chunk_test

import (
	"math/rand"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

// TestRollUpMatchesReferenceSmallAPB is a differential test of the roll-up
// kernel over the whole small APB grid: for every source chunk of every
// group-by, filled with random sparse cells, and every destination group-by
// computable from it, RollUpInto must produce exactly the cells, sums and
// counts of a member-level reference that decodes each source cell with
// CellMembers, maps it with Dimension.Ancestor and re-encodes it with
// ChunkOfCell. Destinations alternate between pooled grid-sized (dense)
// accumulators and a reused sparse one.
func TestRollUpMatchesReferenceSmallAPB(t *testing.T) {
	g, _, err := apb.New(apb.ScaleSmall).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	lat, sch := g.Lattice(), g.Schema()
	nd := sch.NumDims()
	rng := rand.New(rand.NewSource(5))

	type cell struct {
		sum   float64
		count int64
	}
	pairs := 0
	var members, anc []int32
	want := make(map[uint64]cell)
	sparse, out := chunk.NewCellMap(), &chunk.Chunk{}
	for srcGB := lattice.ID(0); int(srcGB) < lat.NumNodes(); srcGB++ {
		srcLv := lat.Level(srcGB)
		var dsts []lattice.ID
		for id := lattice.ID(0); int(id) < lat.NumNodes(); id++ {
			if lat.ComputableFrom(id, srcGB) {
				dsts = append(dsts, id)
			}
		}
		for srcNum := 0; srcNum < g.NumChunks(srcGB); srcNum++ {
			capacity := g.CellCapacity(srcGB, srcNum)
			cm := chunk.NewCellMap()
			for i := 0; i < 1+rng.Intn(12); i++ {
				cm.AddCell(uint64(rng.Int63n(capacity)), float64(rng.Intn(1000))/8, int64(1+rng.Intn(5)))
			}
			src := cm.Build(srcGB, srcNum)
			for _, dstGB := range dsts {
				dstLv := lat.Level(dstGB)
				dstNum := g.DescendantChunk(srcGB, srcNum, dstGB)
				clear(want)
				for i, key := range src.Keys {
					members = g.CellMembers(srcGB, srcNum, key, members[:0])
					anc = anc[:0]
					for d := 0; d < nd; d++ {
						anc = append(anc, sch.Dim(d).Ancestor(srcLv[d], dstLv[d], members[d]))
					}
					num, dk := g.ChunkOfCell(dstGB, anc)
					if num != dstNum {
						t.Fatalf("reference cell of %s chunk %d landed in chunk %d of %s, want %d",
							lat.LevelTupleString(srcGB), srcNum, num, lat.LevelTupleString(dstGB), dstNum)
					}
					c := want[dk]
					c.sum += src.Vals[i]
					c.count += src.Counts[i]
					want[dk] = c
				}

				acc := sparse
				if pairs%2 == 0 {
					acc = g.GetCellMap(dstGB, dstNum)
				}
				scanned, err := g.RollUpInto(acc, dstGB, dstNum, src)
				if err != nil || scanned != src.Cells() {
					t.Fatalf("%s chunk %d → %s: scanned %d, err %v",
						lat.LevelTupleString(srcGB), srcNum, lat.LevelTupleString(dstGB), scanned, err)
				}
				got := acc.BuildInto(dstGB, dstNum, out)
				if got.Cells() != len(want) {
					t.Fatalf("%s chunk %d → %s: %d cells, reference has %d",
						lat.LevelTupleString(srcGB), srcNum, lat.LevelTupleString(dstGB), got.Cells(), len(want))
				}
				for i, key := range got.Keys {
					if w := want[key]; got.Vals[i] != w.sum || got.Counts[i] != w.count {
						t.Fatalf("%s chunk %d → %s cell %d: got %v/%d, want %v/%d",
							lat.LevelTupleString(srcGB), srcNum, lat.LevelTupleString(dstGB),
							key, got.Vals[i], got.Counts[i], w.sum, w.count)
					}
				}
				if acc == sparse {
					sparse.Reset()
				} else {
					chunk.PutCellMap(acc)
				}
				pairs++
			}
		}
	}
	t.Logf("%d (source chunk, destination group-by) pairs", pairs)
}
