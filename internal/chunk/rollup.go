package chunk

import (
	"fmt"
	"math"
	"math/bits"

	"aggcache/internal/lattice"
)

// buildOffsetTables fills offTab, the roll-up kernel's per-dimension key
// translation. An entry depends only on (dimension, source level,
// destination level, member) — never on a chunk or its payload — so one
// immutable table per level pair serves every roll-up on the grid, and a
// roll-up takes the sub-slice covering its source chunk's members.
func (g *Grid) buildOffsetTables() {
	g.offTab = make([][][][]uint32, g.sch.NumDims())
	for d := range g.offTab {
		dim := g.sch.Dim(d)
		h := dim.Hierarchy()
		g.offTab[d] = make([][][]uint32, h+1)
		for sl := 0; sl <= h; sl++ {
			g.offTab[d][sl] = make([][]uint32, sl+1)
			for dl := 0; dl <= sl; dl++ {
				starts, chunkOf := g.starts[d][dl], g.chunkOf[d][dl]
				tab := make([]uint32, dim.Card(sl))
				for m := range tab {
					anc := dim.Ancestor(sl, dl, int32(m))
					tab[m] = uint32(anc - starts[chunkOf[anc]])
				}
				g.offTab[d][sl][dl] = tab
			}
		}
	}
}

// reciprocal returns M = ⌊(2⁶⁴−1)/span⌋+1 for span ≥ 2. With it,
// quotient(k, M) = k/span exactly for every k, span < 2³² (Lemire, Kaser &
// Kurz, "Faster Remainder by Direct Computation", 2019); NewGrid's cell
// capacity bound keeps every cell key inside that range.
func reciprocal(span uint64) uint64 { return math.MaxUint64/span + 1 }

// quotient returns the high 64 bits of M·k: k/span for M = reciprocal(span).
func quotient(k, m uint64) uint64 {
	hi, _ := bits.Mul64(m, k)
	return hi
}

// dimStep translates one non-trivial (span > 1) source dimension: the
// source key's digit k mod span indexes tab, whose destination offset is
// weighted by the destination stride.
type dimStep struct {
	span, recip, stride uint64
	tab                 []uint32
}

// keyTranslation maps source cell keys of one chunk to destination cell
// keys: dst = base + Σ tab[digit]·stride over the non-trivial dimensions,
// least-significant first. Span-1 source dimensions contribute a constant,
// folded into base. steps[:n] take their digit with a quotient; when exact,
// steps[n] is the key's most significant digit, which is what remains of
// the key after the others.
type keyTranslation struct {
	base  uint64
	n     int
	exact bool
	steps [maxDims]dimStep
}

// translation fills t for rolling chunk srcNum of srcGB into chunk dstNum of
// dstGB and reports whether keys pass through unchanged: every non-trivial
// dimension keeps its level (so its chunk and member range) and every span-1
// dimension stays span-1. It errors if dstGB is not computable from srcGB or
// the source chunk lies outside the destination chunk.
func (g *Grid) translation(t *keyTranslation, dstGB lattice.ID, dstNum int, srcGB lattice.ID, srcNum int) (copyThrough bool, err error) {
	if !g.lat.ComputableFrom(dstGB, srcGB) {
		return false, fmt.Errorf("chunk: group-by %s is not computable from %s",
			g.lat.LevelTupleString(dstGB), g.lat.LevelTupleString(srcGB))
	}
	nd := g.sch.NumDims()
	var sbuf, dbuf [maxDims]int32
	srcCoords := g.Coords(srcGB, srcNum, sbuf[:0])
	dstCoords := dbuf[:nd]
	for d := 0; d < nd; d++ {
		c := srcCoords[d]
		for l := g.lat.LevelAt(srcGB, d); l > g.lat.LevelAt(dstGB, d); l-- {
			c = g.childChunk[d][l][c]
		}
		dstCoords[d] = c
	}
	if g.Number(dstGB, dstCoords) != dstNum {
		return false, fmt.Errorf("chunk: source chunk %d of %s does not fall in chunk %d of %s",
			srcNum, g.lat.LevelTupleString(srcGB), dstNum, g.lat.LevelTupleString(dstGB))
	}
	copyThrough = true
	stride := uint64(1)
	used := 0
	for d := nd - 1; d >= 0; d-- {
		sl, dl := g.lat.LevelAt(srcGB, d), g.lat.LevelAt(dstGB, d)
		sr := g.MemberRange(d, sl, srcCoords[d])
		dr := g.MemberRange(d, dl, dstCoords[d])
		tab := g.offTab[d][sl][dl][sr.Lo:sr.Hi]
		if len(tab) == 1 {
			t.base += uint64(tab[0]) * stride
			copyThrough = copyThrough && dr.Len() == 1
		} else {
			span := uint64(len(tab))
			t.steps[t.n] = dimStep{span: span, recip: reciprocal(span), stride: stride, tab: tab}
			t.n++
			copyThrough = copyThrough && sl == dl
			if dr.Len() > 1 {
				used = t.n
			}
		}
		stride *= uint64(dr.Len())
	}
	// A dimension collapsing into a span-1 destination chunk contributes
	// offset 0, so digits above the most significant contributing dimension
	// need no decoding.
	if used > 0 && used == t.n {
		t.n, t.exact = used-1, true
	} else {
		t.n = used
	}
	return copyThrough, nil
}

// RollUpInto aggregates every cell of src into dst, translating cell keys
// from the source chunk's coordinate space to the destination chunk at
// (dstGB, dstNum). The source group-by must be an ancestor (componentwise ≥)
// of dstGB and the source chunk must lie inside the destination chunk's
// region. It returns the number of cells scanned.
//
// The translation is assembled on the stack from the grid's shared offset
// tables, so a roll-up takes no lock and allocates nothing. Per cell it does
// one multiply-high decode and one table load per non-trivial source
// dimension, up to the most significant one the destination chunk does not
// collapse to a single member, or nothing at all when keys pass through
// unchanged.
func (g *Grid) RollUpInto(dst *CellMap, dstGB lattice.ID, dstNum int, src *Chunk) (int, error) {
	var t keyTranslation
	copyThrough, err := g.translation(&t, dstGB, dstNum, src.GB, int(src.Num))
	if err != nil {
		return 0, err
	}
	counts := src.Counts
	if copyThrough {
		if counts == nil {
			for i, key := range src.Keys {
				dst.AddCell(key, src.Vals[i], 1)
			}
		} else {
			for i, key := range src.Keys {
				dst.AddCell(key, src.Vals[i], counts[i])
			}
		}
		return len(src.Keys), nil
	}
	steps := t.steps[:t.n]
	var top dimStep
	if t.exact {
		top = t.steps[t.n]
	}
	for i, key := range src.Keys {
		dk, k := t.base, key
		for j := range steps {
			s := &steps[j]
			q := quotient(k, s.recip)
			dk += uint64(s.tab[k-q*s.span]) * s.stride
			k = q
		}
		if t.exact {
			dk += uint64(top.tab[k]) * top.stride
		}
		count := int64(1)
		if counts != nil {
			count = counts[i]
		}
		dst.AddCell(dk, src.Vals[i], count)
	}
	return len(src.Keys), nil
}
