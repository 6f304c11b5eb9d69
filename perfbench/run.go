package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/strategy"
)

// setupRuns is how many times the untraced run builds the system; setup_s
// is the median, and the last build serves the measured window.
const setupRuns = 9

// fullGC collects twice: sync.Pool contents survive one collection in the
// pools' victim caches, and pooled scratch is not the program's live state.
func fullGC() {
	runtime.GC()
	runtime.GC()
}

// newGrid builds a chunk grid for the benchmark's own use (stream
// generation, compiling, the oracle), independent of the served system's.
func newGrid() (*chunk.Grid, error) {
	cfg := apb.New(scale)
	return chunk.NewGrid(cfg.Schema, cfg.ChunkCounts)
}

// buildServed builds the served system runs times and returns the last build,
// every build's set-up time and the live heap just before the last build.
// Each build starts from a collected heap in which no earlier build is
// reachable, so the baseline holds the benchmark's own state and nothing of
// the served system.
func buildServed(w spec, seed int64, runs int) (*system, []float64, runtime.MemStats, error) {
	var sys *system
	var base runtime.MemStats
	setups := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		if sys != nil {
			err := sys.close()
			sys = nil
			if err != nil {
				return nil, nil, base, err
			}
		}
		fullGC()
		runtime.ReadMemStats(&base)
		s, d, err := newSystem(w, seed, wrappers{})
		if err != nil {
			return nil, nil, base, fmt.Errorf("setup: %w", err)
		}
		sys = s
		setups = append(setups, d.Seconds())
	}
	return sys, setups, base, nil
}

// roundTrip is one window query's round-trip time and when it completed.
type roundTrip struct{ at, rtt time.Duration }

// measure is the untraced run: the end-to-end metrics of the workload.
func measure(w spec, seed int64, window time.Duration, rec *record) error {
	grid, err := newGrid()
	if err != nil {
		return err
	}
	mk, err := w.streams(grid, seed)
	if err != nil {
		return err
	}
	n := w.numSessions()
	streams, err := sessionStreams(mk, n)
	if err != nil {
		return err
	}
	logs := newSessionLogs(n)

	sys, setups, base, err := buildServed(w, seed, setupRuns)
	if err != nil {
		return err
	}

	// The heap is read after the warm-up, a fixed number of queries, not at
	// the end of the window: the program's memory grows with the queries it
	// has served, and a faster build serves more of them in the window.
	var st0, st1 core.Stats
	var warm runtime.MemStats
	l := loop{
		addr: sys.addr, streams: streams, logs: logs,
		warmup: w.warmup, window: window,
		atStart: func() {
			fullGC()
			runtime.ReadMemStats(&warm)
			st0 = sys.engine.Stats()
		},
		atEnd: func() { st1 = sys.engine.Stats() },
	}
	res, err := l.run()
	if err != nil {
		sys.close()
		return err
	}
	if err := sys.close(); err != nil {
		return err
	}

	var trips []roundTrip
	var fpTime time.Duration
	for _, log := range logs {
		for i, d := range log.rtt {
			trips = append(trips, roundTrip{at: log.at[i], rtt: d})
		}
		fpTime += log.fpTime
	}
	sort.Slice(trips, func(i, j int) bool { return trips[i].at < trips[j].at })
	rtts := make([]float64, len(trips))
	for i, t := range trips {
		rtts[i] = ms(t.rtt)
	}
	p50, err := quantile(rtts, 0.50)
	if err != nil {
		return err
	}
	p99, blocks, err := blockQuantile(rtts, 0.99)
	if err != nil {
		return fmt.Errorf("measured window too short: %w", err)
	}
	o, err := buildOracle(seed)
	if err != nil {
		return err
	}
	failed, wrong, err := verify(o, mk, logs)
	if err != nil {
		return err
	}

	q := float64(res.queries)
	rec.Metrics = []metric{
		{"qps", res.medianQPS(), "queries/s"},
		{"p50_ms", p50, "ms"},
		{"p99_ms", p99, "ms"},
		{"cpu_ms_per_query", res.medianCPUPerQuery(), "ms"},
		{"heap_mb", float64(int64(warm.HeapAlloc)-int64(base.HeapAlloc)) / mib, "MiB"},
		{"setup_s", median(setups), "s"},
	}
	attempted := countAnswers(logs)
	rec.Extra = []metric{
		{"error_rate", float64(failed+wrong) / float64(attempted), "ratio"},
		{"window_qps", q / res.wall.Seconds(), "queries/s"},
		{"window_cpu_ms_per_query", ms(res.cpu) / q, "ms"},
		{"backend_tuples_per_query", float64(st1.BackendTuples-st0.BackendTuples) / q, "tuples"},
		{"fingerprint_us_per_query", us(fpTime) / q, "us"},
		{"fingerprint_cpu_share", ratio(float64(fpTime), float64(res.cpu)), "ratio"},
	}
	for _, sl := range res.slices {
		rec.SliceQPS = append(rec.SliceQPS, float64(sl.queries)/sl.dur.Seconds())
	}
	rec.Sizes = systemSizes(sys)
	rec.Sizes.WorkingSetBytes = o.workingSet()
	rec.Counts = counts{
		Sessions: n, WarmupQueries: n * w.warmup, WindowQueries: res.queries,
		Attempted: attempted, Failed: failed, Wrong: wrong,
	}
	rec.Notes = append(rec.Notes,
		fmt.Sprintf("qps and cpu_ms_per_query are medians over %d one-second slices; p50_ms is over %d round trips; p99_ms is the median of the p99s of %d consecutive blocks of them; setup_s is the median of %d builds",
			len(res.slices), len(rtts), blocks, len(setups)))
	rec.Correct = failed == 0 && wrong == 0
	return nil
}

// tracedWindow is the traced run's window: half the run length, so the
// traced window and its untraced replay together take about as long as an
// untraced run.
func tracedWindow(window time.Duration) time.Duration {
	return max(window/2, sliceLen)
}

// snapshot is the engine's public counters at one moment.
type snapshot struct {
	st   core.Stats
	tier cache.TierStats
	mt   strategy.Maint
}

func snap(s *system) snapshot {
	t, _ := s.engine.TierStats()
	return snapshot{s.engine.Stats(), t, s.engine.Strategy().Maintenance()}
}

// tracedPass is what the traced window leaves once its system is closed.
type tracedPass struct {
	res     loopResult
	logs    []*sessionLog
	s0, s1  snapshot
	hotUsed int64
	sizes   sizes
}

// runTraced serves the traced window: one session over decorated layers.
// It returns with the traced system closed and unreachable, so what follows
// runs in a heap that holds none of it.
func runTraced(w spec, seed int64, window time.Duration, mk streamFactory, r *recorder) (tracedPass, error) {
	var p tracedPass
	sys, _, err := newSystem(w, seed, r.wrappers())
	if err != nil {
		return p, fmt.Errorf("setup: %w", err)
	}
	streams, err := sessionStreams(mk, 1)
	if err != nil {
		sys.close()
		return p, err
	}
	p.logs = newSessionLogs(1)
	l := loop{
		addr: sys.addr, streams: streams, logs: p.logs,
		warmup: w.warmup, window: tracedWindow(window), rec: r,
		atStart: func() { p.s0 = snap(sys); r.on.Store(true) },
		atEnd:   func() { r.on.Store(false); p.s1 = snap(sys) },
	}
	if p.res, err = l.run(); err != nil {
		sys.close()
		return p, err
	}
	p.hotUsed = sys.engine.Cache().Used() - p.s1.tier.ColdUsed
	p.sizes = systemSizes(sys)
	return p, sys.close()
}

// traced is the traced run: one session over decorated layers, then an
// untraced replay of exactly the same queries.
func traced(w spec, seed int64, window time.Duration, out string, rec *record) error {
	grid, err := newGrid()
	if err != nil {
		return err
	}
	mk, err := w.streams(grid, seed)
	if err != nil {
		return err
	}
	r := newRecorder(grid)
	p, err := runTraced(w, seed, window, mk, r)
	if err != nil {
		return err
	}
	res, s0, s1 := p.res, p.s0, p.s1

	// Write the spans and reduce Find's durations to their tail now, then
	// release both, so the replay's heap holds neither.
	if err := r.writeSpans(filepath.Join(out, "spans-"+w.name+".tsv")); err != nil {
		return err
	}
	findP99, findErr := quantile(r.findNS, 0.99)
	written := len(r.spans)
	r.spans, r.findNS = nil, nil

	// The untraced replay: a fresh system, the same warm-up and exactly the
	// traced window's query count.
	fullGC()
	replay, _, err := newSystem(w, seed, wrappers{})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	streams2, err := sessionStreams(mk, 1)
	if err != nil {
		replay.close()
		return err
	}
	logs2 := newSessionLogs(1)
	var m0, m1 runtime.MemStats
	l2 := loop{
		addr: replay.addr, streams: streams2, logs: logs2,
		warmup: w.warmup, limit: res.queries,
		atStart: func() { runtime.ReadMemStats(&m0) },
		atEnd:   func() { runtime.ReadMemStats(&m1) },
	}
	res2, err := l2.run()
	if err != nil {
		replay.close()
		return err
	}
	s2 := snap(replay)
	if err := replay.close(); err != nil {
		return err
	}

	o, err := buildOracle(seed)
	if err != nil {
		return err
	}
	failed, wrong, err := verify(o, mk, p.logs)
	if err != nil {
		return err
	}
	failed2, wrong2, err := verify(o, mk, logs2)
	if err != nil {
		return err
	}

	mismatch := fidelity(s1.st, s2.st, s1.tier, s2.tier)
	rec.Correct = failed+wrong+failed2+wrong2 == 0
	if len(mismatch) > 0 {
		rec.Notes = append(rec.Notes, fmt.Sprintf("traced and untraced engine counts differ: %v", mismatch))
		if w.name == "drill-churn" {
			// Single-session drill-churn must reproduce exactly, or the
			// decorators changed what the engine did.
			rec.Correct = false
		}
	}

	q := float64(res.queries)
	dq := float64(s1.st.Queries - s0.st.Queries)
	aggTuples := float64(s1.st.AggTuples - s0.st.AggTuples)
	coldHits := float64(s1.tier.ColdHits - s0.tier.ColdHits)
	coldLookups := coldHits + float64(s1.tier.ColdMisses-s0.tier.ColdMisses)
	realPhases := r.phases[0] + r.phases[1] + r.phases[2] + r.phases[3] - r.beSim
	if findErr != nil {
		rec.Notes = append(rec.Notes, "strategy.find_p99_us reported as 0: "+findErr.Error())
	}
	perQuery := func(v float64) float64 { return v / q }
	usPerQuery := func(d time.Duration) float64 { return us(d) / q }
	rec.Metrics = []metric{
		{"mtier.serve_us", usPerQuery(r.rttTotal - realPhases), "us"},
		{"mtier.cells_per_query", ratio(float64(r.cells), float64(r.answers)), "cells"},
		{"mdq.compile_us", usPerQuery(r.self[spCompile]), "us"},
		{"core.lookup_us", usPerQuery(r.phases[0]), "us"},
		{"core.aggregate_us", usPerQuery(r.phases[1]), "us"},
		{"core.update_us", usPerQuery(r.phases[2]), "us"},
		{"core.backend_us", usPerQuery(r.phases[3] - r.beSim), "us"},
		{"core.complete_hit_ratio", ratio(float64(s1.st.CompleteHits-s0.st.CompleteHits), dq), "ratio"},
		{"core.result_cache_hit_ratio", ratio(float64(s1.st.ResultCacheHits-s0.st.ResultCacheHits), dq), "ratio"},
		{"core.agg_tuples_per_query", perQuery(aggTuples), "tuples"},
		{"core.recycled_per_query", perQuery(float64(s1.st.Recycled - s0.st.Recycled)), "chunks"},
		{"core.recycle_rejected_per_query", perQuery(float64(s1.st.RecycleRejected - s0.st.RecycleRejected)), "chunks"},
		{"strategy.find_calls_per_query", perQuery(float64(r.calls[spFind])), "calls"},
		{"strategy.find_us", usPerQuery(r.self[spFind]), "us"},
		{"strategy.find_p99_us", findP99 / 1e3, "us"},
		{"strategy.maint_events_per_query", perQuery(float64(r.calls[spMaint])), "calls"},
		{"strategy.maint_us", usPerQuery(r.self[spMaint]), "us"},
		{"strategy.lattice_updates_per_query", perQuery(float64(s1.mt.Updates - s0.mt.Updates)), "updates"},
	}
	for _, c := range []struct {
		name string
		span uint8
	}{{"get", spGet}, {"pin", spPin}, {"insert", spInsert}, {"reinforce", spReinforce}} {
		rec.Metrics = append(rec.Metrics,
			metric{"cache." + c.name + "_calls_per_query", perQuery(float64(r.calls[c.span])), "calls"},
			metric{"cache." + c.name + "_us", usPerQuery(r.self[c.span]), "us"})
	}
	rec.Metrics = append(rec.Metrics, []metric{
		{"cache.insert_refused_per_query", perQuery(float64(r.insertRefused)), "calls"},
		{"cache.evictions_per_query", perQuery(float64(r.evicted)), "chunks"},
		{"cache.demotes_per_query", perQuery(float64(r.demoted)), "chunks"},
		{"cache.promotes_per_query", perQuery(float64(r.promoted)), "chunks"},
		{"cache.cold_hit_ratio", ratio(coldHits, coldLookups), "ratio"},
		{"cache.compression_ratio", ratio(float64(s1.tier.ColdRawBytes), float64(s1.tier.ColdUsed)), "ratio"},
		{"cache.hot_used_mb", float64(p.hotUsed) / mib, "MiB"},
		{"cache.cold_used_mb", float64(s1.tier.ColdUsed) / mib, "MiB"},
		{"chunk.agg_tuples_per_ms", ratio(aggTuples, ms(r.phases[1])), "tuples/ms"},
		{"backend.requests_per_query", perQuery(float64(r.beRequests)), "requests"},
		{"backend.tuples_per_request", ratio(float64(r.beTuples), float64(r.beRequests)), "tuples"},
		{"backend.tuples_per_query", perQuery(float64(r.beTuples)), "tuples"},
		{"backend.compute_us", usPerQuery(r.beWall), "us"},
		{"backend.sim_us", usPerQuery(r.beSim), "us"},
		{"runtime.alloc_kb_per_query", float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / q, "KiB"},
		{"runtime.gc_cycles_per_kquery", float64(m1.NumGC-m0.NumGC) * 1000 / q, "cycles"},
		{"runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"},
		{"trace.unattributed_share", 1 - ratio(float64(r.rttCovered), float64(r.rttTotal)), "ratio"},
		{"trace.overhead", 1 - res2.wall.Seconds()/res.wall.Seconds(), "ratio"},
		{"trace.stats_mismatch", float64(len(mismatch)), "counters"},
	}...)
	rec.Extra = []metric{
		{"traced_qps", q / res.wall.Seconds(), "queries/s"},
		{"untraced_qps", q / res2.wall.Seconds(), "queries/s"},
		{"spans", float64(r.total), "spans"},
		{"spans_written", float64(written), "spans"},
	}
	attempted := countAnswers(p.logs) + countAnswers(logs2)
	rec.Sizes = p.sizes
	rec.Sizes.WorkingSetBytes = o.workingSet()
	rec.Counts = counts{
		Sessions: 1, WarmupQueries: w.warmup, WindowQueries: res.queries,
		Attempted: attempted, Failed: failed + failed2, Wrong: wrong + wrong2,
	}
	rec.Notes = append(rec.Notes, "runtime.* metrics come from the untraced replay; _us metrics are self time per query")
	return nil
}

// fidelity lists the engine counters on which two runs of the same queries
// disagree.
func fidelity(a, b core.Stats, ta, tb cache.TierStats) []string {
	var diff []string
	check := func(name string, x, y int64) {
		if x != y {
			diff = append(diff, fmt.Sprintf("%s %d vs %d", name, x, y))
		}
	}
	check("queries", a.Queries, b.Queries)
	check("complete_hits", a.CompleteHits, b.CompleteHits)
	check("backend_queries", a.BackendQueries, b.BackendQueries)
	check("backend_tuples", a.BackendTuples, b.BackendTuples)
	check("agg_tuples", a.AggTuples, b.AggTuples)
	check("result_cache_hits", a.ResultCacheHits, b.ResultCacheHits)
	check("recycled", a.Recycled, b.Recycled)
	check("recycle_rejected", a.RecycleRejected, b.RecycleRejected)
	check("demotes", ta.Demotes, tb.Demotes)
	check("promotes", ta.Promotes, tb.Promotes)
	check("cold_hits", ta.ColdHits, tb.ColdHits)
	return diff
}

func sessionStreams(mk streamFactory, n int) ([]stream, error) {
	out := make([]stream, n)
	for i := range out {
		s, err := mk(i, n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func countAnswers(logs []*sessionLog) int {
	n := 0
	for _, l := range logs {
		n += len(l.fps)
	}
	return n
}

// systemSizes is the system's part of the record's sizes; the working set
// comes from the oracle.
func systemSizes(s *system) sizes {
	return sizes{
		Scale: scale.String(), Rows: s.rows, BaseBytes: s.baseBytes,
		HotBytes: s.hotBytes, ColdBytes: s.coldBytes, Preloaded: s.preloaded,
	}
}

// verify checks every logged answer against the oracle: it replays each
// session's stream to recover the queries, answers each distinct one, and
// compares fingerprints.
func verify(o *oracle, mk streamFactory, logs []*sessionLog) (failed, wrong int, err error) {
	texts := make([][]string, len(logs))
	distinct := make(map[string]core.Query)
	var order []string
	for s, log := range logs {
		st, err := mk(s, len(logs))
		if err != nil {
			return 0, 0, err
		}
		for range log.fps {
			text, q := st.next()
			texts[s] = append(texts[s], text)
			if _, ok := distinct[text]; !ok {
				distinct[text] = q
				order = append(order, text)
			}
		}
	}
	// Answer the distinct queries on every CPU; the oracle memoizes them.
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(order) || err != nil {
					mu.Unlock()
					return
				}
				text := order[next]
				next++
				mu.Unlock()
				if _, aerr := o.answer(text, distinct[text]); aerr != nil {
					mu.Lock()
					err = aerr
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return 0, 0, err
	}
	for s, log := range logs {
		for k, fp := range log.fps {
			if fp.failed {
				failed++
				continue
			}
			if !o.memo[texts[s][k]].matches(fp) {
				wrong++
			}
		}
	}
	return failed, wrong, nil
}

// buildOracle generates the seed's fact table again and loads it into a
// backend engine of its own.
func buildOracle(seed int64) (*oracle, error) {
	g, tab, err := apb.New(scale).Build(dataSeed(seed))
	if err != nil {
		return nil, err
	}
	be, err := backend.NewEngine(g, tab, backend.DefaultLatency)
	if err != nil {
		return nil, err
	}
	return newOracle(g, be), nil
}
