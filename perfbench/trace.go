package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/mdq"
	"aggcache/internal/mtier"
	"aggcache/internal/strategy"
)

// Span names. The traced run records one span per call into a wrapped
// layer, nested under the query's round-trip span.
const (
	spQuery uint8 = iota // the benchmark's own compile plus the round trip
	spCompile
	spRTT
	spFind
	spMaint
	spGet
	spPin
	spUnpin
	spInsert
	spReinforce
	spContains
	spCompute
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"query", "mdq.compile", "client.rtt", "strategy.find", "strategy.maint",
	"cache.get", "cache.pin", "cache.unpin", "cache.insert", "cache.reinforce",
	"cache.contains", "backend.compute",
}

// span is one recorded call. Times are nanoseconds since the recorder's
// epoch; parent indexes the enclosing span (-1 for a query's root).
type span struct {
	name       uint8
	query      int32
	parent     int32
	start, end int64
}

// maxSpans bounds the spans kept for the span file (about 8 MiB); the
// per-layer metrics aggregate every span whether it is kept or not.
const maxSpans = 1 << 18

// open is a span in progress.
type open struct {
	seq   int64 // identifies the span to end
	kept  int32 // index in spans, or -1 when past maxSpans
	name  uint8
	start int64
	child int64 // time covered by finished child spans
}

// recorder keeps the traced run's spans and their aggregates in memory. The
// traced run has a single session, so at most one query is in flight and
// every wrapped call belongs to it; calls nest on one stack.
type recorder struct {
	on    atomic.Bool
	grid  *chunk.Grid
	epoch time.Time

	mu    sync.Mutex
	seq   int64
	query int32
	spans []span
	stack []open
	total int64 // spans recorded, kept or not
	root  int64 // the open query span
	rtt   int64 // the open round-trip span

	// Per-name aggregates: calls and self time (duration minus the time of
	// child spans); every Find duration, for its tail; round-trip time and
	// the part of it inside some wrapped call.
	calls                [numSpanNames]int64
	self                 [numSpanNames]time.Duration
	findNS               []float64
	rttTotal, rttCovered time.Duration

	// Counted while on, under mu.
	insertRefused              int64
	evicted, demoted, promoted int64
	beRequests, beTuples       int64
	beSim, beWall              time.Duration
	phases                     [4]time.Duration // lookup, aggregate, update, backend
	cells, answers             int64
}

func newRecorder(g *chunk.Grid) *recorder {
	return &recorder{grid: g, epoch: time.Now(), root: -1, rtt: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id, or -1 while recording is off.
func (r *recorder) begin(name uint8) int64 {
	if !r.on.Load() {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	o := open{seq: r.seq, kept: -1, name: name, start: t}
	if len(r.spans) < maxSpans {
		parent := int32(-1)
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1].kept
		}
		o.kept = int32(len(r.spans))
		r.spans = append(r.spans, span{name: name, query: r.query, parent: parent, start: t, end: -1})
	}
	r.stack = append(r.stack, o)
	return o.seq
}

// end closes the span begin returned and folds it into the aggregates.
func (r *recorder) end(id int64) {
	if id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	k := len(r.stack) - 1
	for k >= 0 && r.stack[k].seq != id {
		k--
	}
	if k < 0 {
		return
	}
	o := r.stack[k]
	r.stack = append(r.stack[:k], r.stack[k+1:]...)
	d := t - o.start
	if k > 0 {
		r.stack[k-1].child += d
	}
	if o.kept >= 0 {
		r.spans[o.kept].end = t
	}
	r.total++
	r.calls[o.name]++
	r.self[o.name] += time.Duration(d - o.child)
	switch o.name {
	case spRTT:
		r.rttTotal += time.Duration(d)
		r.rttCovered += time.Duration(o.child)
	case spFind:
		r.findNS = append(r.findNS, float64(d))
	}
}

// count adds to a counter while recording is on.
func (r *recorder) count(fn func()) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	fn()
	r.mu.Unlock()
}

// before opens the query span, times the benchmark's own mdq.Compile of
// the text, then opens the round-trip span.
func (r *recorder) before(text string) {
	if !r.on.Load() {
		return
	}
	r.root = r.begin(spQuery)
	c := r.begin(spCompile)
	_, _, _ = mdq.Compile(text, r.grid) // the server compiles it again; only the time matters here
	r.end(c)
	r.rtt = r.begin(spRTT)
}

// after closes the query's spans and adds the answer's engine phases and
// size.
func (r *recorder) after(resp *mtier.Response) {
	if !r.on.Load() {
		return
	}
	r.end(r.rtt)
	r.end(r.root)
	r.mu.Lock()
	if resp != nil {
		r.answers++
		r.cells += int64(len(resp.Cells))
		r.phases[0] += time.Duration(resp.Lookup)
		r.phases[1] += time.Duration(resp.Aggregate)
		r.phases[2] += time.Duration(resp.Update)
		r.phases[3] += time.Duration(resp.Backend)
	}
	r.query++
	r.mu.Unlock()
}

func (r *recorder) wrappers() wrappers {
	return wrappers{
		backend:  func(b backend.Backend) backend.Backend { return &tracedBackend{Backend: b, r: r} },
		strategy: func(s strategy.Strategy) strategy.Strategy { return &tracedStrategy{Strategy: s, r: r} },
		store:    func(s cache.Store) cache.Store { return wrapStore(s, r) },
	}
}

// tracedStrategy times Find and the listener-driven maintenance. Unwrap
// keeps strategy.AsCostEstimator (and so the recycler's pricing) working.
type tracedStrategy struct {
	strategy.Strategy
	r *recorder
}

func (s *tracedStrategy) Unwrap() strategy.Strategy { return s.Strategy }

func (s *tracedStrategy) Find(gb lattice.ID, num int) (*strategy.Plan, bool, error) {
	i := s.r.begin(spFind)
	p, ok, err := s.Strategy.Find(gb, num)
	s.r.end(i)
	return p, ok, err
}

func (s *tracedStrategy) OnInsert(e *cache.Entry) {
	i := s.r.begin(spMaint)
	s.Strategy.OnInsert(e)
	s.r.end(i)
}

func (s *tracedStrategy) OnEvent(ev cache.Event) {
	i := s.r.begin(spMaint)
	s.Strategy.OnEvent(ev)
	s.r.end(i)
}

// tracedStore times the store calls the engine makes and counts residency
// events through a listener it interposes in SetListener. Calls the engine
// does not make in this configuration (Evict, Peek, Range, …) pass through
// untimed.
type tracedStore struct {
	cache.Store
	r *recorder
}

// tieredStore is a tracedStore over a store with a cold tier; only it
// forwards TierStats, so core.Engine.TierStats reports a tier exactly when
// the undecorated store has one.
type tieredStore struct {
	*tracedStore
}

func (s tieredStore) TierStats() cache.TierStats {
	return s.Store.(cache.TierStatser).TierStats()
}

func wrapStore(s cache.Store, r *recorder) cache.Store {
	t := &tracedStore{Store: s, r: r}
	if _, ok := s.(cache.TierStatser); ok {
		return tieredStore{t}
	}
	return t
}

func (s *tracedStore) Get(k cache.Key) (*chunk.Chunk, bool) {
	i := s.r.begin(spGet)
	c, ok := s.Store.Get(k)
	s.r.end(i)
	return c, ok
}

func (s *tracedStore) Pin(k cache.Key) bool {
	i := s.r.begin(spPin)
	ok := s.Store.Pin(k)
	s.r.end(i)
	return ok
}

func (s *tracedStore) Unpin(k cache.Key) {
	i := s.r.begin(spUnpin)
	s.Store.Unpin(k)
	s.r.end(i)
}

func (s *tracedStore) Insert(k cache.Key, data *chunk.Chunk, opts ...cache.InsertOption) bool {
	i := s.r.begin(spInsert)
	ok := s.Store.Insert(k, data, opts...)
	s.r.end(i)
	if !ok {
		s.r.count(func() { s.r.insertRefused++ })
	}
	return ok
}

func (s *tracedStore) Reinforce(keys []cache.Key, benefit float64) {
	i := s.r.begin(spReinforce)
	s.Store.Reinforce(keys, benefit)
	s.r.end(i)
}

func (s *tracedStore) Contains(k cache.Key) bool {
	i := s.r.begin(spContains)
	ok := s.Store.Contains(k)
	s.r.end(i)
	return ok
}

func (s *tracedStore) SetListener(l cache.Listener) {
	if l == nil {
		s.Store.SetListener(nil)
		return
	}
	s.Store.SetListener(&countingListener{Listener: l, r: s.r})
}

// countingListener counts residency events on their way to the engine's
// listener (the strategy, teed with the result cache); inserts pass
// straight through.
type countingListener struct {
	cache.Listener
	r *recorder
}

func (l *countingListener) OnEvent(ev cache.Event) {
	l.r.count(func() {
		switch ev.Reason {
		case cache.Evicted:
			l.r.evicted++
		case cache.Demoted:
			l.r.demoted++
		case cache.Promoted:
			l.r.promoted++
		}
	})
	l.Listener.OnEvent(ev)
}

// tracedBackend times backend requests and keeps the real compute time and
// the latency model's simulated time apart. The scan estimates pass through
// untimed: only the cost-based bypass, which is off, asks for them.
type tracedBackend struct {
	backend.Backend
	r *recorder
}

func (b *tracedBackend) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, backend.Stats, error) {
	i := b.r.begin(spCompute)
	t0 := time.Now()
	chunks, st, err := b.Backend.ComputeChunks(ctx, gb, nums)
	wall := time.Since(t0)
	b.r.end(i)
	b.r.count(func() {
		b.r.beRequests++
		b.r.beTuples += st.TuplesScanned
		b.r.beSim += st.Sim
		b.r.beWall += wall
	})
	return chunks, st, err
}

// writeSpans writes the kept spans, one tab-separated line each: query,
// span id, parent id, name, start and end in nanoseconds since the run's
// epoch. A span still open when the run ended has end -1.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "query\tid\tparent\tname\tstart_ns\tend_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.query, i, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
