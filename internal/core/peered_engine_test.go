package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// storePeer serves cache.Peer exchanges straight from a sibling node's local
// store — the in-process equivalent of the mtier peer protocol, so the
// engine's peer-fill path can be exercised without TCP. Replicas take
// computed-class residency exactly as the wire handler stores them.
type storePeer struct{ st cache.Store }

func (p *storePeer) Get(ctx context.Context, k cache.Key) (*chunk.Chunk, cache.Class, float64, bool, error) {
	d, cl, b, f := p.st.GetInfo(k)
	return d, cl, b, f, nil
}

func (p *storePeer) Put(ctx context.Context, k cache.Key, data *chunk.Chunk, cl cache.Class, benefit float64) error {
	p.st.Insert(k, data, cache.AsComputed(benefit))
	return nil
}

func (p *storePeer) Close() error { return nil }

// recordingPeer wraps storePeer and records every replication Put with its
// class, so tests can assert what the Peered store ships to ring owners.
type recordingPeer struct {
	storePeer
	mu   sync.Mutex
	puts map[cache.Key]cache.Class
}

func (p *recordingPeer) Put(ctx context.Context, k cache.Key, data *chunk.Chunk, cl cache.Class, benefit float64) error {
	p.mu.Lock()
	p.puts[k] = cl
	p.mu.Unlock()
	return p.storePeer.Put(ctx, k, data, cl, benefit)
}

// TestRecycledIntermediatesPeered: intermediates the recycler admits on a
// clustered node take computed-class residency in the local tier and are
// never enqueued for owner replication — only backend-class fills ship.
func TestRecycledIntermediatesPeered(t *testing.T) {
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(21)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	lat := g.Lattice()

	local, err := cache.New(1<<20, cache.NewTwoLevelPromote())
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	remote, _ := cache.New(1<<20, cache.NewTwoLevelPromote())
	peer := &recordingPeer{storePeer: storePeer{st: remote}, puts: make(map[cache.Key]cache.Class)}
	pc, err := cache.NewPeered(local, cache.PeeredConfig{
		Self:    "a",
		Members: []string{"a", "b"},
		Dial:    func(string) cache.Peer { return peer },
	})
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	t.Cleanup(func() { pc.Close() })

	eng, err := New(g, pc, strategy.NewVCMC(g, sz), be, sz,
		WithRecycling(true), WithRecycleMinBenefit(1e-9), WithResultCache(32))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}

	if _, err := eng.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("warm: %v", err)
	}
	res, err := eng.Execute(context.Background(), WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if res.RecycledChunks == 0 {
		t.Fatalf("no intermediates recycled")
	}
	time.Sleep(100 * time.Millisecond) // drain the async replication queue

	// Every recycled (non-base, non-top) resident carries computed class.
	recycled := map[cache.Key]bool{}
	local.Range(func(k cache.Key, _ *chunk.Chunk, cl cache.Class, _ float64, _ bool) {
		if k.GB == lat.Base() || k.GB == lat.Top() {
			return
		}
		recycled[k] = true
		if cl != cache.ClassComputed {
			t.Errorf("recycled chunk %v has class %v, want ClassComputed", k, cl)
		}
	})
	if len(recycled) == 0 {
		t.Fatalf("no recycled intermediates resident")
	}

	// Replication shipped backend-class fills only; no recycled key ever
	// reached the peer.
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if len(peer.puts) == 0 {
		t.Fatalf("no backend-class replication observed; the check below proves nothing")
	}
	for k, cl := range peer.puts {
		if cl != cache.ClassBackend {
			t.Errorf("peer received a %v-class put for %v", cl, k)
		}
		if recycled[k] {
			t.Errorf("recycled intermediate %v was replicated to its ring owner", k)
		}
	}
}

// TestEnginePeerFillServesRemoteChunks is the engine-level cluster property:
// a node whose neighbor already holds the working set answers part of its
// misses by peer fill instead of the backend, and every answer still equals
// direct backend computation.
func TestEnginePeerFillServesRemoteChunks(t *testing.T) {
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(21)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	const capacity = 1 << 19

	names := []string{"a", "b"}
	locals := make([]cache.Store, 2)
	for i := range locals {
		if locals[i], err = cache.New(capacity, cache.NewTwoLevel()); err != nil {
			t.Fatalf("cache.New: %v", err)
		}
	}
	engines := make([]*Engine, 2)
	for i := range engines {
		other := locals[1-i]
		pc, err := cache.NewPeered(locals[i], cache.PeeredConfig{
			Self:    names[i],
			Members: names,
			Dial:    func(string) cache.Peer { return &storePeer{st: other} },
		})
		if err != nil {
			t.Fatalf("NewPeered: %v", err)
		}
		t.Cleanup(func() { pc.Close() })
		if engines[i], err = New(g, pc, strategy.NewVCMC(g, sz), be, sz); err != nil {
			t.Fatalf("core.New: %v", err)
		}
	}

	rng := rand.New(rand.NewSource(17))
	queries := make([]Query, 60)
	for i := range queries {
		queries[i] = randomQuery(rng, g)
	}

	// Warm node A with the whole stream, then let its asynchronous
	// replication install B-owned chunks at B.
	for _, q := range queries {
		if _, err := engines[0].Execute(context.Background(), q); err != nil {
			t.Fatalf("warm: %v", err)
		}
	}
	time.Sleep(100 * time.Millisecond)

	// A cold standalone engine replaying the same stream is the baseline for
	// how much backend traffic the peer tier saves.
	solo := build(t, "VCMC", cache.NewTwoLevel(), capacity)
	var soloBackend int64
	for _, q := range queries {
		res, err := solo.engine.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("solo: %v", err)
		}
		soloBackend += int64(res.MissChunks - res.PeerChunks)
	}

	oracle := &fixture{grid: g, engine: engines[1], oracle: be}
	var peerChunks, backendChunks int64
	for _, q := range queries {
		res, err := engines[1].Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		peerChunks += int64(res.PeerChunks)
		backendChunks += int64(res.MissChunks - res.PeerChunks)
		assertMatchesOracle(t, oracle, q, res)
	}
	if peerChunks == 0 {
		t.Fatalf("no chunks were peer-filled from the warmed neighbor")
	}
	if backendChunks >= soloBackend {
		t.Fatalf("peer tier saved nothing: %d backend chunks with a warm neighbor, %d standalone",
			backendChunks, soloBackend)
	}
	t.Logf("peer fills: %d chunks; backend chunks %d (standalone %d)", peerChunks, backendChunks, soloBackend)
}

// gatedPeer serves gets from a sibling store only once gate closes, counting
// exchanges per key, so a test can hold every peer fill in flight.
type gatedPeer struct {
	storePeer
	gate chan struct{}
	mu   sync.Mutex
	gets map[cache.Key]int
}

func (p *gatedPeer) Get(ctx context.Context, k cache.Key) (*chunk.Chunk, cache.Class, float64, bool, error) {
	p.mu.Lock()
	p.gets[k]++
	p.mu.Unlock()
	select {
	case <-p.gate:
	case <-ctx.Done():
		return nil, 0, 0, false, ctx.Err()
	}
	return p.storePeer.Get(ctx, k)
}

// TestEnginePeerFillCoalescesConcurrentQueries: the engine's flight group is
// the peer tier's only singleflight. Identical concurrent queries whose
// missing chunks a remote peer owns make exactly one peer exchange per
// chunk, and every answer equals the backend oracle.
func TestEnginePeerFillCoalescesConcurrentQueries(t *testing.T) {
	cfg := apb.New(apb.ScaleTiny)
	g, tab, err := cfg.Build(21)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	be, err := backend.NewEngine(g, tab, backend.LatencyModel{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	sz := sizer.NewEstimate(g, int64(tab.Len()))
	ctx := context.Background()

	// A whole group-by of a few chunks, all of them resident at the owner.
	var q Query
	var nums []int
	for id := 0; id < g.Lattice().NumNodes() && len(nums) < 3; id++ {
		q = WholeGroupBy(lattice.ID(id))
		nq, err := q.normalize(g)
		if err != nil {
			t.Fatalf("normalize: %v", err)
		}
		nums = nq.chunkNumbers(g)
	}
	if len(nums) < 3 {
		t.Fatalf("no group-by with 3+ chunks")
	}
	remote, err := cache.New(1<<22, cache.NewTwoLevel())
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	chunks, _, err := be.ComputeChunks(ctx, q.GB, nums)
	if err != nil {
		t.Fatalf("ComputeChunks: %v", err)
	}
	for i, c := range chunks {
		remote.Insert(cache.Key{GB: q.GB, Num: int32(nums[i])}, c, cache.AsBackend(1))
	}
	peer := &gatedPeer{storePeer: storePeer{st: remote}, gate: make(chan struct{}), gets: make(map[cache.Key]int)}

	// Self is not a member, so the one remote member owns every key.
	local, err := cache.New(1<<22, cache.NewTwoLevel())
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	pc, err := cache.NewPeered(local, cache.PeeredConfig{
		Members:    []string{"b"},
		Dial:       func(string) cache.Peer { return peer },
		GetTimeout: time.Minute,
	})
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	t.Cleanup(func() { pc.Close() })
	met := obs.NewEngineMetrics(obs.NewRegistry())
	eng, err := New(g, pc, strategy.NewVCMC(g, sz), be, sz, WithMetrics(met))
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}

	const queries = 6
	results := make([]*Result, queries)
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Execute(ctx, q)
		}(i)
	}
	// Release the peer once one query leads every chunk and the others wait
	// on its flights.
	want := int64((queries - 1) * len(nums))
	deadline := time.Now().Add(10 * time.Second)
	for met.FlightFollowerChunks.Value() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(peer.gate)
	wg.Wait()
	if got := met.FlightFollowerChunks.Value(); got != want {
		t.Fatalf("follower chunks = %d, want %d", got, want)
	}

	oracle := &fixture{grid: g, engine: eng, oracle: be}
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if res.PeerChunks != len(nums) {
			t.Errorf("query %d: %d peer chunks, want %d", i, res.PeerChunks, len(nums))
		}
		assertMatchesOracle(t, oracle, q, res)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if len(peer.gets) != len(nums) {
		t.Fatalf("peer saw %d distinct keys, want %d", len(peer.gets), len(nums))
	}
	for k, n := range peer.gets {
		if n != 1 {
			t.Errorf("chunk %v: %d peer exchanges, want 1", k, n)
		}
	}
	if st := eng.Stats(); st.BackendQueries != 0 {
		t.Errorf("backend queries = %d, want 0", st.BackendQueries)
	}
}
