package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/metrics"
	"aggcache/internal/obs"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// options collects the engine tunables; construct through the With…
// functional options on New.
type options struct {
	backendPenalty    float64
	connectCostUnits  float64
	recycle           bool
	recycleMinBenefit float64
	resultEntries     int
	disableReinforce  bool
	costBypass        bool
	metrics           *obs.EngineMetrics
}

// Option tunes the engine at construction time. Options are applied in
// order; later options win.
type Option func(*options)

// WithBackendPenalty scales backend tuples into benefit cost units relative
// to in-cache aggregation — the paper measured backend computation to be
// about 8× slower (§7.1). The default is 8; non-positive values keep it.
func WithBackendPenalty(p float64) Option {
	return func(o *options) {
		if p > 0 {
			o.backendPenalty = p
		}
	}
}

// WithConnectCost sets the per-backend-request fixed benefit surcharge in
// cost units (tuples-equivalent). The default is 4000; non-positive values
// keep it.
func WithConnectCost(units float64) Option {
	return func(o *options) {
		if units > 0 {
			o.connectCostUnits = units
		}
	}
}

// DefaultRecycleMinBenefit is the admission threshold for recycled
// intermediates, in recompute-cost units (tuples scanned) saved per byte
// retained. A chunk's footprint is ≈24 bytes per cell, so the default admits
// interior nodes that fold ≥24 input cells into each output cell. That bar is
// deliberately high: a recycled chunk displaces its own size in resident
// chunks, and a typical non-speculative computed resident is worth on the
// order of one cost unit per byte (it was derived by scanning a few times its
// own cells), so only intermediates at least that valuable should speculate.
// Sweeping the threshold on ad-hoc multi-level streams (bench "recycle")
// shows response time improving monotonically from 0.125 up to ≈1.0 and
// plateauing there — permissive thresholds admit copy-through nodes whose
// displacement of proven residents costs more than their reuse saves.
const DefaultRecycleMinBenefit = 1.0

// WithRecycling(true) enables benefit-driven recycling of intermediate
// aggregates: every interior plan node materialized during in-cache
// aggregation — and every lattice roll-up fully covered by an arriving
// backend batch — is scored in O(1) via the strategy's CostEstimate and
// admitted to the cache as a computed-class chunk when the recompute cost it
// saves per byte clears the threshold (WithRecycleMinBenefit). Off by
// default: the paper's engine caches only the newly computed result chunk.
func WithRecycling(on bool) Option {
	return func(o *options) { o.recycle = on }
}

// WithRecycleMinBenefit sets the recycler's admission threshold in saved
// recompute cost (tuples) per byte. Non-positive values keep the default.
func WithRecycleMinBenefit(perByte float64) Option {
	return func(o *options) {
		if perByte > 0 {
			o.recycleMinBenefit = perByte
		}
	}
}

// WithResultCache bounds the semantic result cache above the chunk cache at
// the given number of entries (0, the default, disables it). Canonicalized
// (group-by, chunk-range) rectangles map to their assembled chunk sets;
// repeated or contained queries are answered without planning, aggregation
// or backend work. Entries are dropped as soon as any contributing chunk is
// evicted from the store.
func WithResultCache(entries int) Option {
	return func(o *options) {
		if entries >= 0 {
			o.resultEntries = entries
		}
	}
}

// WithReinforce(false) turns off group reinforcement (§6.3 second bullet);
// used by the ablation experiments. On by default.
func WithReinforce(on bool) Option {
	return func(o *options) { o.disableReinforce = !on }
}

// WithCostBypass enables the cost-based optimizer hook of §5.2: when a plan
// carries an in-cache aggregation cost (VCMC and ESMC plans do) that exceeds
// the backend's estimated cost in the same units, the chunk is fetched from
// the backend instead. Useful when the backend holds materialized aggregates
// (backend.Engine.Materialize) that make it cheaper than a long in-cache
// aggregation.
func WithCostBypass(on bool) Option {
	return func(o *options) { o.costBypass = on }
}

// WithMetrics attaches the live-metrics bundle at construction time,
// replacing a later SetMetrics call.
func WithMetrics(m obs.EngineMetrics) Option {
	return func(o *options) { o.metrics = &m }
}

// ErrBackendUnavailable is the typed error a query fails fast with when it
// needs the backend but the backend is unreachable — the circuit breaker is
// open, or the remote client exhausted its redial/retry budget. Queries
// answerable from the cache alone (complete hits and in-cache aggregation)
// still succeed in that state: the engine's cache-only degraded mode.
// Match with errors.Is.
var ErrBackendUnavailable = backend.ErrUnavailable

// Stats accumulates engine activity across queries.
type Stats struct {
	Queries        int64
	CompleteHits   int64
	BackendQueries int64
	BackendTuples  int64
	AggTuples      int64
	BudgetMisses   int64
	Bypassed       int64
	// PeerChunks counts missing chunks served by a cluster peer instead of
	// the backend.
	PeerChunks int64
	// DegradedHits counts queries answered from the cache alone while the
	// backend circuit breaker was not closed.
	DegradedHits int64
	// Unavailable counts queries that failed with ErrBackendUnavailable.
	Unavailable int64
	// Recycled counts intermediate aggregates the benefit heuristic admitted
	// to the cache; RecycleRejected counts the interior nodes it declined.
	Recycled        int64
	RecycleRejected int64
	// ResultCacheHits counts queries answered entirely from the semantic
	// result cache (exact or by containment subsumption).
	ResultCacheHits int64
	Breakdown       metrics.Breakdown
}

// engineStats is the engine's internal, atomically updated counterpart of
// Stats, so concurrent queries can account without contending on a lock.
type engineStats struct {
	queries        atomic.Int64
	completeHits   atomic.Int64
	backendQueries atomic.Int64
	backendTuples  atomic.Int64
	aggTuples      atomic.Int64
	budgetMisses   atomic.Int64
	bypassed       atomic.Int64
	peerChunks     atomic.Int64
	degradedHits   atomic.Int64
	unavailable    atomic.Int64
	recycled       atomic.Int64
	recycleRejects atomic.Int64
	resultHits     atomic.Int64

	lookupNS  atomic.Int64
	aggNS     atomic.Int64
	updateNS  atomic.Int64
	backendNS atomic.Int64
}

func (s *engineStats) snapshot() Stats {
	return Stats{
		Queries:         s.queries.Load(),
		CompleteHits:    s.completeHits.Load(),
		BackendQueries:  s.backendQueries.Load(),
		BackendTuples:   s.backendTuples.Load(),
		AggTuples:       s.aggTuples.Load(),
		BudgetMisses:    s.budgetMisses.Load(),
		Bypassed:        s.bypassed.Load(),
		PeerChunks:      s.peerChunks.Load(),
		DegradedHits:    s.degradedHits.Load(),
		Unavailable:     s.unavailable.Load(),
		Recycled:        s.recycled.Load(),
		RecycleRejected: s.recycleRejects.Load(),
		ResultCacheHits: s.resultHits.Load(),
		Breakdown: metrics.Breakdown{
			Lookup:    time.Duration(s.lookupNS.Load()),
			Aggregate: time.Duration(s.aggNS.Load()),
			Update:    time.Duration(s.updateNS.Load()),
			Backend:   time.Duration(s.backendNS.Load()),
		},
	}
}

// Engine is the aggregate aware cache manager. It is safe for concurrent
// use, and queries genuinely overlap: the engine itself holds no lock — the
// cache store and the lookup strategy each synchronize internally (a sharded
// store stripes its locking per shard, so concurrent queries touching
// different shards never contend). The backend round trip and the in-cache
// aggregation run with the plan's leaves pinned so the replacement policy
// cannot evict an input mid-flight. Identical concurrent backend chunk
// fetches are deduplicated through flights, and independent planned chunks
// of one query aggregate in parallel across a GOMAXPROCS-bounded worker
// pool.
type Engine struct {
	grid  *chunk.Grid
	lat   *lattice.Lattice
	back  backend.Backend
	sizes sizer.Sizer
	opts  options

	cache cache.Store
	strat strategy.Strategy

	flights flightGroup
	stats   engineStats
	// met is the optional live-metrics bundle; its zero value records
	// nothing. All handles are atomics, so recording needs no lock and an
	// ops scraper can read concurrently with queries in flight.
	met obs.EngineMetrics
	// avail reports the backend circuit breaker's state when the backend
	// (or a wrapper in its chain) carries one; nil otherwise. Used for
	// degraded-mode accounting and health reporting.
	avail interface{ State() backend.BreakerState }
	// peers is the cache store's cluster tier when the store provides one
	// (cache.Peered); nil otherwise. Missing chunks are offered to the
	// key's ring owner before the backend fetch.
	peers PeerFiller
	// est is the strategy's O(1) benefit API when it offers one (VCMC, also
	// through decorators); nil otherwise. The recycler falls back to the
	// node's exact subtree scan count without it.
	est strategy.CostEstimator
	// rcache is the semantic result cache; nil when disabled.
	rcache *resultCache
	// recycleSeen is the recycler's one-shot admission ghost set (see
	// recycleTry); guarded by recycleMu, nil unless recycling is on.
	recycleMu   sync.Mutex
	recycleSeen map[cache.Key]struct{}
}

// PeerFiller is the optional cluster tier a cache store can expose:
// PeerFill asks the chunk key's ring owner for the payload, installing it in
// the local tier on success. false means fall through to the backend.
// cache.Peered implements it; the engine detects it on the store at New and
// calls it only as the leader of that chunk's flight, so implementations
// need no coalescing of their own.
type PeerFiller interface {
	PeerFill(ctx context.Context, k cache.Key) (*chunk.Chunk, bool)
}

// New wires a cache store, a lookup strategy and a backend into an engine,
// tuned by functional options (WithCostBypass, WithReinforce, …). The
// strategy is registered as the store's listener; the store must be empty
// (or have been populated through the same strategy).
func New(g *chunk.Grid, c cache.Store, s strategy.Strategy, b backend.Backend, sizes sizer.Sizer, opts ...Option) (*Engine, error) {
	if g == nil || c == nil || s == nil || b == nil || sizes == nil {
		return nil, errors.New("core: all of grid, cache, strategy, backend and sizer are required")
	}
	o := options{backendPenalty: 8, connectCostUnits: 4000, recycleMinBenefit: DefaultRecycleMinBenefit}
	for _, opt := range opts {
		opt(&o)
	}
	e := &Engine{
		grid:    g,
		lat:     g.Lattice(),
		cache:   c,
		strat:   s,
		back:    b,
		sizes:   sizes,
		opts:    o,
		flights: flightGroup{m: make(map[flightKey]*flightCall)},
	}
	if o.resultEntries > 0 {
		// Budget the result cache's retained bytes at a quarter of the chunk
		// cache so subsumption entries never rival the store itself.
		e.rcache = newResultCache(o.resultEntries, c.Capacity()/4)
		// Both the strategy and the result cache need eviction callbacks; the
		// store takes a single listener, so tee them. Callbacks run under the
		// shard lock — the tee fans out, it never calls back into the store.
		c.SetListener(listenerTee{s, e.rcache})
	} else {
		c.SetListener(s)
	}
	if o.metrics != nil {
		e.met = *o.metrics
	}
	if a, ok := b.(interface{ State() backend.BreakerState }); ok {
		e.avail = a
	}
	if p, ok := c.(PeerFiller); ok {
		e.peers = p
	}
	if est, ok := strategy.AsCostEstimator(s); ok {
		e.est = est
	}
	if o.recycle {
		e.recycleSeen = make(map[cache.Key]struct{})
	}
	return e, nil
}

// Grid returns the engine's chunk grid.
func (e *Engine) Grid() *chunk.Grid { return e.grid }

// Cache returns the underlying cache store (for inspection; treat as
// read-only).
func (e *Engine) Cache() cache.Store { return e.cache }

// Strategy returns the lookup strategy.
func (e *Engine) Strategy() strategy.Strategy { return e.strat }

// Stats returns a copy of the cumulative counters.
func (e *Engine) Stats() Stats { return e.stats.snapshot() }

// TierStats returns the cache store's tier counters (cold-tier hits,
// promotions, demotions, compression footprint) when the store — directly or
// behind a Peered wrapper — is tiered; ok=false for a flat store. Promote
// cost shows up in plans as cache hits whose bytes were paid once at
// promotion time, so these counters are what attributes that cost.
func (e *Engine) TierStats() (cache.TierStats, bool) {
	st := e.cache
	for {
		if ts, ok := st.(cache.TierStatser); ok {
			return ts.TierStats(), true
		}
		u, ok := st.(interface{ Local() cache.Store })
		if !ok {
			return cache.TierStats{}, false
		}
		st = u.Local()
	}
}

// Degraded reports whether the engine is in cache-only degraded mode: its
// backend carries a circuit breaker and the breaker is not closed. In that
// state cache-computable queries still succeed and backend-requiring
// queries fail fast with ErrBackendUnavailable.
func (e *Engine) Degraded() bool {
	return e.avail != nil && e.avail.State() != backend.BreakerClosed
}

// planned is one chunk of the query answerable from the cache, with the
// pinned cache keys of its plan's leaves.
type planned struct {
	idx    int
	plan   *strategy.Plan
	leaves []cache.Key
}

// computed is an interior plan result the recycler admitted, destined for
// the cache. benefit is the recompute cost the copy saves (tuples scanned),
// which the replacement policy turns into a clock weight.
type computed struct {
	key     cache.Key
	data    *chunk.Chunk
	tuples  int64
	benefit float64
}

// aggOut is the result of materializing one plan outside the cache lock.
type aggOut struct {
	data     *chunk.Chunk
	tuples   int64
	inter    []computed
	rejected int64 // interior nodes the recycler declined
	err      error
}

// Execute answers one query: probe the cache per chunk, batch the misses to
// the backend, aggregate the computable chunks in the cache, and assemble
// the answer. Concurrent calls overlap; see the Engine doc for the locking
// structure.
//
// The backend phase (and follower waits on shared flights) aborts promptly
// when ctx is cancelled or its deadline passes, so a hung backend hangs no
// query past its budget. Cache-only work is not interrupted — it completes
// in microseconds and an answer already paid for is worth returning.
func (e *Engine) Execute(ctx context.Context, q Query) (*Result, error) {
	res, err := e.execute(ctx, q)
	if err != nil {
		e.met.QueryErrors.Inc()
		switch {
		case errors.Is(err, ErrBackendUnavailable):
			e.stats.unavailable.Add(1)
			e.met.BackendUnavailable.Inc()
		case errors.Is(err, context.DeadlineExceeded):
			e.met.DeadlineExceeded.Inc()
		}
	}
	return res, err
}

// execute is Execute without the error accounting wrapper.
func (e *Engine) execute(ctx context.Context, q Query) (*Result, error) {
	nq, err := q.normalize(e.grid)
	if err != nil {
		return nil, err
	}
	nums := nq.chunkNumbers(e.grid)

	// Phase 0 — semantic result cache: an identical or containing rectangle
	// answered before skips planning, aggregation and the backend outright.
	if e.rcache != nil {
		if chunks, keys, benefit, ok := e.rcache.get(nq); ok {
			res := &Result{Query: nq, Chunks: chunks, CompleteHit: true, HitChunks: len(chunks), FromResultCache: true}
			if !e.opts.disableReinforce {
				// The contributing chunks just proved useful again; the
				// promote-on-reuse policy moves recycled ones to the
				// protected ring here.
				e.cache.Reinforce(keys, benefit)
			}
			e.stats.resultHits.Add(1)
			e.met.ResultCacheHits.Inc()
			return e.finishQuery(nq, res), nil
		}
	}

	res := &Result{Query: nq, Chunks: make([]*chunk.Chunk, len(nums))}

	var plans []*planned  // answerable from cache; leaves pinned
	var bypass []*planned // pinned, pending a §5.2 backend cost estimate
	var missing []int
	var missingIdx []int

	// Whatever happens below, release every pin still held on exit.
	defer func() {
		for _, p := range plans {
			e.unpinAll(p.leaves)
		}
		for _, p := range bypass {
			e.unpinAll(p.leaves)
		}
	}()

	// Phase 1 — lookup: one strategy probe per chunk (the paper's cache
	// lookup problem), pinning each plan's leaves so later insertions —
	// ours or a concurrent query's — cannot evict an input.
	lookupStart := time.Now()
	var lookupErr error
	for i, num := range nums {
		plan, found, err := e.strat.Find(nq.GB, num)
		switch {
		case errors.Is(err, strategy.ErrBudget):
			res.BudgetExceeded = true
			e.stats.budgetMisses.Add(1)
			e.met.BudgetMisses.Inc()
			found = false
		case err != nil:
			lookupErr = fmt.Errorf("core: lookup: %w", err)
		}
		if lookupErr != nil {
			break
		}
		if !found {
			missing = append(missing, num)
			missingIdx = append(missingIdx, i)
			continue
		}
		p := &planned{idx: i, plan: plan, leaves: plan.Leaves(nil)}
		if !e.pinAll(p.leaves) {
			// A leaf the strategy believed resident was evicted between the
			// lookup and the pin (the strategy's summary state and the cache
			// are updated under different locks, so a brief window exists).
			// Fall back to fetching the chunk, not failing the query.
			missing = append(missing, num)
			missingIdx = append(missingIdx, i)
			continue
		}
		if e.opts.costBypass && plan.Cost > int64(e.opts.connectCostUnits) {
			// §5.2 optimizer: only worth a backend estimate when the plan
			// is at least as expensive as a backend round trip. The
			// estimate itself is a backend call, so it runs after the
			// lookup loop.
			bypass = append(bypass, p)
		} else {
			plans = append(plans, p)
		}
	}
	if lookupErr != nil {
		return nil, lookupErr
	}

	// Phase 1b — resolve bypass candidates against the backend's estimated
	// cost; demoted chunks join the miss list. All candidates ship as one
	// batched EstimateScans round trip — the per-chunk estimates come back
	// in request order — so the probe costs one exchange however many
	// chunks the optimizer wants priced. An estimate failure keeps every
	// candidate on its cache plan: the bypass is an optimization, never a
	// correctness dependency.
	if len(bypass) > 0 {
		var demoted []*planned
		bnums := make([]int, len(bypass))
		for i, p := range bypass {
			bnums[i] = nums[p.idx]
		}
		ests, eerr := e.back.EstimateScans(ctx, nq.GB, bnums)
		if eerr != nil || len(ests) != len(bypass) {
			ests = nil
		}
		for i, p := range bypass {
			if ests != nil && float64(p.plan.Cost) > float64(ests[i])*e.opts.backendPenalty+e.opts.connectCostUnits {
				demoted = append(demoted, p)
			} else {
				plans = append(plans, p)
			}
		}
		bypass = nil
		if len(demoted) > 0 {
			for _, p := range demoted {
				e.unpinAll(p.leaves)
				p.leaves = nil
				missing = append(missing, nums[p.idx])
				missingIdx = append(missingIdx, p.idx)
			}
			res.Bypassed += len(demoted)
			e.stats.bypassed.Add(int64(len(demoted)))
			e.met.Bypassed.Add(int64(len(demoted)))
		}
	}
	res.Breakdown.Lookup = time.Since(lookupStart)
	res.HitChunks = len(plans)
	res.MissChunks = len(missing)
	res.CompleteHit = len(missing) == 0
	for _, p := range plans {
		if !p.plan.Present {
			res.AggChunks++
		}
	}

	// Phase 2 — backend: one batched request for all missing chunks (the
	// paper issues one SQL statement for the missing chunk numbers),
	// deduplicated against identical in-flight fetches.
	if len(missing) > 0 {
		if err := e.fetchMissing(ctx, nq.GB, missing, missingIdx, res, 0); err != nil {
			return nil, err
		}
	}

	// Phase 3 — aggregate computable chunks. 3a snapshots the pinned leaf
	// payloads (chunk payloads are immutable, so the pointers stay valid
	// after each Get returns); 3b aggregates across a bounded worker pool;
	// 3c installs the computed chunks and reinforces their input groups.
	if len(plans) > 0 {
		leafData := make(map[cache.Key]*chunk.Chunk)
		var snapErr error
		for _, p := range plans {
			if snapErr = e.snapshotLeaves(p.plan, leafData); snapErr != nil {
				break
			}
		}
		if snapErr != nil {
			return nil, snapErr
		}

		aggStart := time.Now()
		outs := make([]aggOut, len(plans))
		if workers := min(len(plans), runtime.GOMAXPROCS(0)); workers > 1 {
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(cursor.Add(1)) - 1
						if i >= len(plans) {
							return
						}
						outs[i] = e.runPlan(plans[i].plan, leafData)
					}
				}()
			}
			wg.Wait()
		} else {
			for i, p := range plans {
				outs[i] = e.runPlan(p.plan, leafData)
			}
		}
		res.Breakdown.Aggregate = time.Since(aggStart)
		for _, out := range outs {
			if out.err != nil {
				return nil, out.err
			}
		}

		m0 := e.strat.Maintenance()
		var rejected int64
		for i, out := range outs {
			p := plans[i]
			res.Chunks[p.idx] = out.data
			res.AggregatedTuples += out.tuples
			if p.plan.Present {
				continue
			}
			rejected += out.rejected
			for _, ic := range out.inter {
				// Recycled intermediates enter as computed-class residents
				// with the Recycled mark: they can never displace the
				// backend-class hot set, a Peered store never replicates
				// them to ring owners, and strategies maintain them with
				// presence-only (O(1)) bookkeeping.
				if e.cache.Insert(ic.key, ic.data, cache.AsRecycled(ic.benefit)) {
					res.RecycledChunks++
					e.stats.recycled.Add(1)
					e.met.RecycledChunks.Inc()
				}
			}
			benefit := float64(out.tuples)
			rootKey := cache.Key{GB: nq.GB, Num: int32(p.plan.Num)}
			e.cache.Insert(rootKey, out.data, cache.AsComputed(benefit))
			if !e.opts.disableReinforce {
				// The root served the query that created it, so it counts as
				// reused on arrival: reinforcing it alongside the leaves lifts
				// it out of the promote policy's probationary tier, leaving
				// only speculative recycled intermediates probationary.
				e.cache.Reinforce(append(p.leaves, rootKey), benefit)
			}
		}
		if rejected > 0 {
			e.stats.recycleRejects.Add(rejected)
			e.met.RecycleRejected.Add(rejected)
		}
		m1 := e.strat.Maintenance()
		// The delta attributes this query's insert maintenance (Figure 10's
		// "update" component). With other queries inserting concurrently the
		// window can include some of their work, so under concurrency the
		// attribution is approximate; the cumulative engine totals stay
		// exact.
		res.Breakdown.Update += m1.Sub(m0).Time
	}

	// Remember the untrimmed, chunk-aligned answer for repeated or contained
	// rectangles — but only answers that did real work (aggregation or a
	// backend trip); pure present-chunk hits are already as cheap as the
	// result cache would make them.
	if e.rcache != nil && len(nums) > 0 && (res.AggChunks > 0 || res.MissChunks > 0) && !res.BudgetExceeded {
		e.rememberResult(nq, nums, res)
	}

	return e.finishQuery(nq, res), nil
}

// rememberResult registers a finished answer with the semantic result cache
// and re-verifies, after registration, that every contributing chunk is
// still resident — an eviction racing the put would otherwise leave a
// registered entry the listener never saw. The order matters: register
// first, then check, so a concurrent eviction either fires the listener on
// the registered entry or is caught by the re-check.
func (e *Engine) rememberResult(nq Query, nums []int, res *Result) {
	keys := make([]cache.Key, len(nums))
	for i, num := range nums {
		keys[i] = cache.Key{GB: nq.GB, Num: int32(num)}
	}
	benefit := float64(res.AggregatedTuples)
	if benefit == 0 {
		benefit = float64(res.BackendTuples) * e.opts.backendPenalty
	}
	entry := e.rcache.put(nq, append([]*chunk.Chunk(nil), res.Chunks...), keys, benefit)
	if entry == nil {
		return
	}
	for _, k := range keys {
		if !e.cache.Contains(k) {
			e.rcache.drop(entry)
			return
		}
	}
}

// finishQuery applies member trimming and the per-query accounting shared by
// the regular path and the result-cache fast path.
func (e *Engine) finishQuery(nq Query, res *Result) *Result {
	if nq.MemberRanges != nil {
		for i, c := range res.Chunks {
			res.Chunks[i] = e.grid.Slice(c, nq.MemberRanges)
		}
	}

	e.stats.queries.Add(1)
	if res.CompleteHit {
		e.stats.completeHits.Add(1)
		if e.Degraded() {
			// The backend is unreachable but the cache answered anyway —
			// the availability win degraded mode exists for.
			res.Degraded = true
			e.stats.degradedHits.Add(1)
			e.met.DegradedAnswers.Inc()
		}
	}
	e.stats.aggTuples.Add(res.AggregatedTuples)
	e.stats.peerChunks.Add(int64(res.PeerChunks))
	e.stats.lookupNS.Add(int64(res.Breakdown.Lookup))
	e.stats.aggNS.Add(int64(res.Breakdown.Aggregate))
	e.stats.updateNS.Add(int64(res.Breakdown.Update))
	e.stats.backendNS.Add(int64(res.Breakdown.Backend))
	e.observe(res)
	return res
}

// observe publishes one answered query to the live metrics. Every handle is
// a preallocated atomic, so the whole call is branch-and-add when metrics
// are attached and pure nil checks when they are not; phase histograms only
// record phases the query actually ran, so quantiles are not diluted by
// zeros.
func (e *Engine) observe(res *Result) {
	e.met.Queries.Inc()
	if res.CompleteHit {
		e.met.CompleteHits.Inc()
	}
	e.met.ChunksHit.Add(int64(res.HitChunks - res.AggChunks))
	e.met.ChunksAggregated.Add(int64(res.AggChunks))
	e.met.ChunksFetched.Add(int64(res.MissChunks - res.PeerChunks))
	e.met.ChunksPeerFilled.Add(int64(res.PeerChunks))
	e.met.AggregatedTuples.Add(res.AggregatedTuples)
	e.met.Lookup.Observe(res.Breakdown.Lookup)
	if res.HitChunks > 0 {
		e.met.Aggregate.Observe(res.Breakdown.Aggregate)
	}
	if res.Breakdown.Update > 0 {
		e.met.Update.Observe(res.Breakdown.Update)
	}
	if res.MissChunks > 0 {
		e.met.Backend.Observe(res.Breakdown.Backend)
	}
	e.met.Query.Observe(res.Breakdown.Total())
}

// pinAll pins every key, rolling back already-taken pins on the first
// failure.
func (e *Engine) pinAll(keys []cache.Key) bool {
	for i, k := range keys {
		if !e.cache.Pin(k) {
			for _, u := range keys[:i] {
				e.cache.Unpin(u)
			}
			return false
		}
	}
	return true
}

// unpinAll releases one pin per key.
func (e *Engine) unpinAll(keys []cache.Key) {
	for _, k := range keys {
		e.cache.Unpin(k)
	}
}

// snapshotLeaves records the payload of every present leaf of the plan,
// counting one cache hit per leaf occurrence as the serial engine did. The
// leaves are pinned, so a missing one is a bug.
func (e *Engine) snapshotLeaves(p *strategy.Plan, m map[cache.Key]*chunk.Chunk) error {
	if p.Present {
		k := cache.Key{GB: p.GB, Num: int32(p.Num)}
		data, ok := e.cache.Get(k)
		if !ok {
			return fmt.Errorf("core: plan leaf %v vanished from the cache", k)
		}
		m[k] = data
		return nil
	}
	for _, in := range p.Inputs {
		if err := e.snapshotLeaves(in, m); err != nil {
			return err
		}
	}
	return nil
}

// runPlan materializes one plan from snapshotted leaf payloads.
func (e *Engine) runPlan(p *strategy.Plan, leafData map[cache.Key]*chunk.Chunk) aggOut {
	var out aggOut
	out.data, out.tuples, _, out.err = e.aggregate(p, leafData, &out, true)
	return out
}

// aggregate executes a plan bottom-up from the snapshotted leaf payloads —
// pure computation over immutable chunks, touching no shared state.
// Interior results the recycler admits are collected (bottom-up) into
// out.inter for insertion under the lock.
//
// Accumulators come from the chunk package's pool, and interior results that
// nothing retains (root==false, recycler declined) are built into pooled
// scratch chunks released as soon as the parent roll-up consumes them; the
// returned pooled flag tells the caller it owns such a release. Chunks that
// outlive the plan run — the root result, which lands in the Result and the
// cache, and admitted intermediates — are always built fresh.
func (e *Engine) aggregate(p *strategy.Plan, leafData map[cache.Key]*chunk.Chunk, out *aggOut, root bool) (data *chunk.Chunk, tuples int64, pooled bool, err error) {
	k := cache.Key{GB: p.GB, Num: int32(p.Num)}
	if p.Present {
		data, ok := leafData[k]
		if !ok {
			return nil, 0, false, fmt.Errorf("core: plan leaf %v vanished from the cache", k)
		}
		return data, 0, false, nil
	}
	cm := e.grid.GetCellMap(p.GB, p.Num)
	defer chunk.PutCellMap(cm)
	for _, in := range p.Inputs {
		sub, subTuples, subPooled, err := e.aggregate(in, leafData, out, false)
		if err != nil {
			return nil, 0, false, err
		}
		tuples += subTuples
		scanned, err := e.grid.RollUpInto(cm, p.GB, p.Num, sub)
		if subPooled {
			chunk.PutScratchChunk(sub)
		}
		if err != nil {
			return nil, 0, false, fmt.Errorf("core: aggregation: %w", err)
		}
		tuples += int64(scanned)
	}
	if root {
		return cm.Build(p.GB, p.Num), tuples, false, nil
	}
	if admit, benefit := e.recycleScore(p.GB, p.Num, tuples, cm.Len()); admit {
		data = cm.Build(p.GB, p.Num)
		out.inter = append(out.inter, computed{key: k, data: data, tuples: tuples, benefit: benefit})
		return data, tuples, false, nil
	}
	if e.opts.recycle {
		out.rejected++
	}
	return cm.BuildInto(p.GB, p.Num, chunk.GetScratchChunk()), tuples, true, nil
}
