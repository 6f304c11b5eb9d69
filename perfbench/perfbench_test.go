package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/mtier"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// events is a cache.Listener that records what reaches it.
type events struct {
	inserts int
	reasons []cache.EventReason
}

func (e *events) OnInsert(*cache.Entry)  { e.inserts++ }
func (e *events) OnEvent(ev cache.Event) { e.reasons = append(e.reasons, ev.Reason) }

func tinyGrid(t *testing.T) *chunk.Grid {
	t.Helper()
	cfg := apb.New(apb.ScaleTiny)
	g, err := chunk.NewGrid(cfg.Schema, cfg.ChunkCounts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDecoratorsPreserveContracts(t *testing.T) {
	g := tinyGrid(t)
	r := newRecorder(g)
	r.on.Store(true)
	wr := r.wrappers()

	s := wr.strategy(strategy.NewVCMC(g, sizer.NewEstimate(g, 1000)))
	if _, ok := strategy.AsCostEstimator(s); !ok {
		t.Error("traced strategy hides the cost estimator")
	}

	flat, err := cache.New(1<<20, cache.NewTwoLevelPromote())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wr.store(flat).(cache.TierStatser); ok {
		t.Error("traced flat store claims a cold tier")
	}
	hot, err := cache.New(1<<20, cache.NewTwoLevelPromote())
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := cache.NewTiered(hot, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	st := wr.store(tiered)
	ts, ok := st.(cache.TierStatser)
	if !ok {
		t.Fatal("traced tiered store hides TierStats")
	}

	var l events
	st.SetListener(&l)
	k := cache.Key{GB: g.Lattice().Base(), Num: 0}
	if !st.Insert(k, &chunk.Chunk{GB: k.GB, Num: k.Num}) {
		t.Fatal("insert refused")
	}
	if !st.Evict(k) {
		t.Fatal("evict found nothing")
	}
	if l.inserts != 1 || len(l.reasons) != 1 || l.reasons[0] != cache.Removed {
		t.Errorf("listener saw %d inserts and %v, want 1 insert and [removed]", l.inserts, l.reasons)
	}
	if ts.TierStats() != tiered.TierStats() {
		t.Error("TierStats differs from the wrapped store's")
	}
	if r.calls[spInsert] != 1 {
		t.Error("insert span not recorded")
	}
}

// TestHeapBaselineExcludesEarlierBuilds checks heap_mb's baseline: read
// before the last of several builds, it must hold none of the earlier ones,
// so the live heap above it holds at least the preloaded store.
func TestHeapBaselineExcludesEarlierBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the served system")
	}
	w, err := lookupSpec("rollup-warm")
	if err != nil {
		t.Fatal(err)
	}
	sys, _, base, err := buildServed(w, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	fullGC()
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	grew := int64(now.HeapAlloc) - int64(base.HeapAlloc)
	if used := sys.engine.Cache().Used(); grew < used {
		t.Errorf("live heap grew %d bytes over the baseline, less than the preloaded store's %d", grew, used)
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: quantile must sort
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.001, 1}} {
		got, err := quantile(xs, c.q)
		if err != nil || got != c.want {
			t.Errorf("quantile(1..1000, %v) = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	if _, err := quantile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("quantile of no samples accepted")
	}
}

func TestBlockQuantile(t *testing.T) {
	// Three blocks of 1..1000; a burst of 20 slow samples in the middle one
	// moves that block's p99 but not the median over blocks.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i%1000 + 1)
	}
	for i := 1000; i < 1020; i++ {
		xs[i] = 1e6
	}
	got, k, err := blockQuantile(xs, 0.99)
	if err != nil || k != 3 || got != 990 {
		t.Errorf("blockQuantile = %v, %d blocks, %v; want 990 over 3", got, k, err)
	}
	// 2999 samples make two blocks of at least 1000, not a short third.
	if _, k, err := blockQuantile(xs[:2999], 0.99); err != nil || k != 2 {
		t.Errorf("2999 samples: %d blocks, %v; want 2", k, err)
	}
	if _, _, err := blockQuantile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
}

func TestFingerprintFlagsOneWrongCell(t *testing.T) {
	var cells []mtier.Cell
	for i := 0; i < 500; i++ {
		sum := 10 + float64(i%37)*1.25
		cells = append(cells, mtier.Cell{Members: []int32{int32(i % 20), int32(i / 20), 3}, Value: sum, Sum: sum, Count: int64(1 + i%5)})
	}
	fp := func(cs []mtier.Cell) fingerprint { return fingerprintResponse(&mtier.Response{Cells: cs}) }
	want := fp(cells)
	perturbed := func(f func(cs []mtier.Cell) []mtier.Cell) []mtier.Cell {
		cs := make([]mtier.Cell, len(cells))
		for i, c := range cells {
			c.Members = append([]int32(nil), c.Members...)
			cs[i] = c
		}
		return f(cs)
	}

	reordered := perturbed(func(cs []mtier.Cell) []mtier.Cell {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Sum > cs[j].Sum })
		return cs
	})
	rounded := perturbed(func(cs []mtier.Cell) []mtier.Cell {
		cs[7].Sum *= 1 + 1e-14
		cs[7].Value = cs[7].Sum
		return cs
	})
	for name, cs := range map[string][]mtier.Cell{"reordered": reordered, "rounding": rounded} {
		if !want.matches(fp(cs)) {
			t.Errorf("%s answer rejected", name)
		}
	}

	wrong := map[string][]mtier.Cell{
		"sum": perturbed(func(cs []mtier.Cell) []mtier.Cell {
			cs[123].Sum += 0.01
			cs[123].Value = cs[123].Sum
			return cs
		}),
		"count":   perturbed(func(cs []mtier.Cell) []mtier.Cell { cs[5].Count++; return cs }),
		"member":  perturbed(func(cs []mtier.Cell) []mtier.Cell { cs[42].Members[1]++; return cs }),
		"value":   perturbed(func(cs []mtier.Cell) []mtier.Cell { cs[9].Value++; return cs }),
		"missing": perturbed(func(cs []mtier.Cell) []mtier.Cell { return cs[1:] }),
		"swapped sums": perturbed(func(cs []mtier.Cell) []mtier.Cell {
			cs[0].Sum, cs[1].Sum = cs[1].Sum, cs[0].Sum
			cs[0].Value, cs[1].Value = cs[0].Sum, cs[1].Sum
			return cs
		}),
	}
	for name, cs := range wrong {
		if want.matches(fp(cs)) {
			t.Errorf("answer with a wrong %s accepted", name)
		}
	}
	if want.matches(fingerprint{failed: true}) {
		t.Error("failed query accepted")
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestRunsMatchBenchmarkFile runs a short untraced and traced run of the
// cheapest workload and checks that they are correct and report exactly the
// metrics, with the units, that BENCHMARK.json declares.
func TestRunsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the served system")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, err := lookupSpec(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(specs) {
		t.Errorf("BENCHMARK.json names %v, the benchmark has %d workloads", names, len(specs))
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	check := func(kind string, got []metric, want map[string]string) {
		t.Helper()
		seen := make(map[string]bool)
		for _, m := range got {
			if !valid.MatchString(m.Name) || len(m.Name) > 64 {
				t.Errorf("%s metric name %q is not a valid name", kind, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("%s metric %q reported twice", kind, m.Name)
			}
			seen[m.Name] = true
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %q in %s: not declared with that unit (declared %q)", kind, m.Name, m.Unit, u)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s metric %q = %v", kind, m.Name, m.Value)
			}
		}
		for n := range want {
			if !seen[n] {
				t.Errorf("%s metric %q declared but not reported", kind, n)
			}
		}
	}

	w, err := lookupSpec("dashboard-repeat")
	if err != nil {
		t.Fatal(err)
	}
	// The window must hold 1000 queries for p99_ms.
	window := time.Second
	if raceEnabled {
		window = 10 * time.Second
	}
	dir := t.TempDir()
	var e2e record
	if err := measure(w, 1, window, &e2e); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, m := range bf.EndToEnd {
		want[m.Name] = m.Unit
	}
	check("end-to-end", e2e.Metrics, want)

	var layer record
	if err := traced(w, 1, time.Second, dir, &layer); err != nil {
		t.Fatal(err)
	}
	want = make(map[string]string)
	for _, m := range bf.PerLayer {
		want[m.Name] = m.Unit
	}
	check("per-layer", layer.Metrics, want)

	for _, r := range []record{e2e, layer} {
		if !r.Correct || r.Counts.Failed+r.Counts.Wrong != 0 {
			t.Errorf("trace %d run not correct: %+v %v", r.Trace, r.Counts, r.Notes)
		}
	}
}
