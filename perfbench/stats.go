package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported upper percentile.
const minTail = 10

// quantile returns the q-quantile of xs by the nearest-rank method. For an
// upper percentile (q > 0.5) it refuses unless at least minTail samples lie
// beyond it, so a p99 needs 1000 samples.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q > 1 {
		return 0, fmt.Errorf("quantile %v of %d samples", q, n)
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minTail, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailBlock is the least number of consecutive round trips an upper
// percentile of the window is taken over: enough for minTail samples beyond
// a p99.
const tailBlock = 1000

// blockQuantile cuts xs, taken in completion order, into as many equal
// consecutive blocks of at least tailBlock samples as it holds, and returns
// the median over the blocks of each block's q-quantile and the number of
// blocks. A few seconds of interference on a shared machine then move the
// tail of one or two blocks rather than the reported tail of the window.
func blockQuantile(xs []float64, q float64) (float64, int, error) {
	k := len(xs) / tailBlock
	if k == 0 {
		_, err := quantile(xs, q)
		if err == nil {
			err = fmt.Errorf("%d samples, fewer than one block of %d", len(xs), tailBlock)
		}
		return 0, 0, err
	}
	per := make([]float64, k)
	for i := range per {
		v, err := quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
		if err != nil {
			return 0, 0, err
		}
		per[i] = v
	}
	return median(per), k, nil
}

func median(xs []float64) float64 {
	m, _ := quantile(xs, 0.5)
	return m
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20
