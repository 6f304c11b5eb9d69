package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"aggcache/internal/backend"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/mtier"
)

// fingerprint summarizes one answer's full cell set so every answer of a
// run can be checked without retaining it. Members and counts are compared
// exactly through an order-independent hash; sums are compared through two
// checksums (plain and pseudo-randomly weighted per cell) within a rounding
// tolerance, because the cache and the oracle add the same values in
// different orders.
type fingerprint struct {
	cells   int64
	keyHash uint64  // Σ mix(cell members, count), mod 2^64
	sum     float64 // Σ sum
	wsum    float64 // Σ weight(cell) · sum, weight in [1,2)
	mag     float64 // Σ |sum|, scales the tolerance
	// bad counts cells whose presented value disagrees with their sum (every
	// workload query is SUM, so the two must be equal).
	bad int64
	// failed marks a query that returned an error instead of an answer.
	failed bool
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (f *fingerprint) add(members []int32, sum float64, count int64) {
	h := mix64(uint64(count) + 0x9e3779b97f4a7c15)
	for _, m := range members {
		h = mix64(h ^ uint64(uint32(m)))
	}
	f.cells++
	f.keyHash += h
	w := 1 + float64(h>>11)/(1<<53)
	f.sum += sum
	f.wsum += w * sum
	f.mag += math.Abs(sum)
}

// fingerprintResponse summarizes an mtier answer.
func fingerprintResponse(r *mtier.Response) fingerprint {
	var f fingerprint
	for i := range r.Cells {
		c := &r.Cells[i]
		f.add(c.Members, c.Sum, c.Count)
		if c.Value != c.Sum {
			f.bad++
		}
	}
	return f
}

// sumTolerance is the relative rounding slack allowed on the sum
// checksums: far above float64 reassociation error over a 150k-row scan, far
// below any wrong cell.
const sumTolerance = 1e-9

// matches reports whether got is the answer want describes.
func (want fingerprint) matches(got fingerprint) bool {
	if got.failed || got.bad != 0 || got.cells != want.cells || got.keyHash != want.keyHash {
		return false
	}
	tol := sumTolerance * (math.Max(want.mag, got.mag) + 1)
	return math.Abs(got.sum-want.sum) <= tol && math.Abs(got.wsum-want.wsum) <= 2*tol
}

// oracle answers queries on a second backend.Engine built on the same table
// as the served one and never touched by the middle tier. Answers are
// memoized per query text; it is safe for concurrent use.
type oracle struct {
	grid *chunk.Grid
	be   *backend.Engine
	mu   sync.Mutex
	memo map[string]fingerprint
	// chunkBytes records the footprint of every distinct answer chunk.
	chunkBytes map[[2]int64]int64
}

func newOracle(g *chunk.Grid, be *backend.Engine) *oracle {
	return &oracle{grid: g, be: be, memo: make(map[string]fingerprint), chunkBytes: make(map[[2]int64]int64)}
}

// workingSet returns the bytes of the distinct chunks the answered queries
// cover.
func (o *oracle) workingSet() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var n int64
	for _, b := range o.chunkBytes {
		n += b
	}
	return n
}

// answer returns the fingerprint of q's exact answer: every cell of the
// chunks in q's region (the workload generators render chunk-aligned member
// ranges, so no trimming applies).
func (o *oracle) answer(text string, q core.Query) (fingerprint, error) {
	o.mu.Lock()
	f, ok := o.memo[text]
	o.mu.Unlock()
	if ok {
		return f, nil
	}
	nums := regionChunks(o.grid, q)
	chunks, _, err := o.be.ComputeChunks(context.Background(), q.GB, nums)
	if err != nil {
		return f, fmt.Errorf("oracle: %w", err)
	}
	var buf []int32
	for _, c := range chunks {
		for i, key := range c.Keys {
			buf = o.grid.CellMembers(c.GB, int(c.Num), key, buf[:0])
			count := int64(1)
			if c.Counts != nil {
				count = c.Counts[i]
			}
			f.add(buf, c.Vals[i], count)
		}
	}
	o.mu.Lock()
	o.memo[text] = f
	for _, c := range chunks {
		o.chunkBytes[[2]int64{int64(c.GB), int64(c.Num)}] = c.Bytes()
	}
	o.mu.Unlock()
	return f, nil
}

// regionChunks enumerates the chunk numbers of q's rectangle at q.GB.
func regionChunks(g *chunk.Grid, q core.Query) []int {
	nd := len(q.Lo)
	cur := append([]int32(nil), q.Lo...)
	var nums []int
	for {
		nums = append(nums, g.Number(q.GB, cur))
		d := nd - 1
		for ; d >= 0; d-- {
			if cur[d]++; cur[d] < q.Hi[d] {
				break
			}
			cur[d] = q.Lo[d]
		}
		if d < 0 {
			return nums
		}
	}
}
