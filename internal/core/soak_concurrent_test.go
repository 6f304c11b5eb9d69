// The concurrent soak lives in an external test package so it can replay a
// workload stream (package workload imports core, which bars the internal
// test package from importing it back).
package core_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
	"aggcache/internal/workload"
)

// buildSoakEngines wires two engines — concurrent subject (whose cache is
// built with copts) and serialized reference (default store) — over one grid
// and one shared backend.
func buildSoakEngines(t *testing.T, capacity int64, copts ...cache.Option) (subject, reference *core.Engine, g *chunk.Grid) {
	t.Helper()
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(33)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	mk := func(copts ...cache.Option) *core.Engine {
		c, err := cache.New(capacity, cache.NewTwoLevel(), copts...)
		if err != nil {
			t.Fatalf("cache.New: %v", err)
		}
		eng, err := core.New(g, c, strategy.NewVCMC(g, sz), be, sz)
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		return eng
	}
	return mk(copts...), mk(), g
}

// TestConcurrentSoakMatchesSerializedEngine replays one mixed workload
// stream twice: serially through a reference engine, then interleaved
// across 8 goroutines through the subject engine — once backed by a
// one-shard store (the production default) and once by a 4-shard store.
// Every concurrent answer must match the serialized one (which itself is
// oracle-checked by the other engine tests). Run under -race this is the
// store's engine-level correctness soak.
func TestConcurrentSoakMatchesSerializedEngine(t *testing.T) {
	t.Run("single", func(t *testing.T) { runConcurrentSoak(t, cache.WithShards(1)) })
	t.Run("sharded-4", func(t *testing.T) { runConcurrentSoak(t, cache.WithShards(4)) })
}

func runConcurrentSoak(t *testing.T, copts ...cache.Option) {
	subject, reference, g := buildSoakEngines(t, 64<<10, copts...)
	gen, err := workload.NewGenerator(g, workload.DefaultMix, 4, 7)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	queries, _ := gen.Stream(240)

	type answer struct {
		total float64
		cells int
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		res, err := reference.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		want[i] = answer{total: res.Total(), cells: res.Cells()}
	}

	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				res, err := subject.Execute(context.Background(), queries[i])
				if err != nil {
					errs <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				if res.Cells() != want[i].cells {
					errs <- fmt.Errorf("query %d: %d cells, want %d", i, res.Cells(), want[i].cells)
					return
				}
				tol := 1e-6 * math.Max(1, math.Abs(want[i].total))
				if math.Abs(res.Total()-want[i].total) > tol {
					errs <- fmt.Errorf("query %d: total %v, want %v", i, res.Total(), want[i].total)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent soak: %v", err)
	}

	st := subject.Stats()
	if st.Queries != int64(len(queries)) {
		t.Fatalf("Queries = %d, want %d", st.Queries, len(queries))
	}
	if used, cap := subject.Cache().Used(), subject.Cache().Capacity(); used > cap {
		t.Fatalf("cache over capacity: %d > %d", used, cap)
	}
}
