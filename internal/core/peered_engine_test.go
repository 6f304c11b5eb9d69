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
