package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/chunk"
	"aggcache/internal/wire"
)

// errPeerDown is what mtier.PeerClient returns for a dead connection: a
// transient failure, which the shared breaker taxonomy counts as an outage.
var errPeerDown = backend.MarkTransient(errors.New("fake peer down"))

// fakePeer is an in-process Peer with a scriptable store and failure switch.
// Like mtier.PeerClient it fails an exchange whose context is already done.
type fakePeer struct {
	name string

	mu     sync.Mutex
	chunks map[Key]*chunk.Chunk
	puts   []Key
	err    error // every exchange fails with it while set
	gets   atomic.Int64
	closed atomic.Bool

	block chan struct{} // when set, Get parks until it closes
}

func newFakePeer(name string) *fakePeer {
	return &fakePeer{name: name, chunks: make(map[Key]*chunk.Chunk)}
}

func (f *fakePeer) seed(k Key, c *chunk.Chunk) {
	f.mu.Lock()
	f.chunks[k] = c
	f.mu.Unlock()
}

func (f *fakePeer) setErr(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

func (f *fakePeer) setFail(v bool) {
	if v {
		f.setErr(errPeerDown)
	} else {
		f.setErr(nil)
	}
}

func (f *fakePeer) Get(ctx context.Context, k Key) (*chunk.Chunk, Class, float64, bool, error) {
	f.gets.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, false, err
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, 0, 0, false, ctx.Err()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return nil, 0, 0, false, f.err
	}
	if c, ok := f.chunks[k]; ok {
		return c, ClassBackend, 42, true, nil
	}
	return nil, 0, 0, false, nil
}

func (f *fakePeer) Put(ctx context.Context, k Key, data *chunk.Chunk, cl Class, benefit float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	f.chunks[k] = data
	f.puts = append(f.puts, k)
	return nil
}

func (f *fakePeer) Close() error { f.closed.Store(true); return nil }

// newPeeredPair returns a Peered whose every remote key is owned by one fake
// peer ("self" plus one remote on the ring would split ownership, so for
// deterministic tests Self is empty: all owners are remote).
func newPeeredPair(t *testing.T, cfg PeeredConfig) (*Peered, *fakePeer) {
	t.Helper()
	local, err := New(1<<20, NewTwoLevel())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	peer := newFakePeer("remote")
	cfg.Members = []string{"remote"}
	cfg.Dial = func(addr string) Peer {
		if addr != "remote" {
			t.Errorf("dialed unexpected member %q", addr)
		}
		return peer
	}
	p, err := NewPeered(local, cfg)
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p, peer
}

func TestPeeredFillInstallsLocally(t *testing.T) {
	p, peer := newPeeredPair(t, PeeredConfig{})
	k := key(7)
	peer.seed(k, mkChunk(0, 7, 5))

	data, ok := p.PeerFill(context.Background(), k)
	if !ok || data == nil {
		t.Fatalf("PeerFill = %v, %v", data, ok)
	}
	// The fill is resident locally now, under computed-class residency.
	if _, cl, _, ok := p.GetInfo(k); !ok || cl != ClassComputed {
		t.Fatalf("local GetInfo after fill = class %v, found %v; want computed-class hit", cl, ok)
	}
	st := p.PeerStats()
	if st.Fills != 1 || st.FillMisses != 0 || st.FillErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A second Get is a pure local hit: no new peer exchange.
	if _, ok := p.Get(k); !ok {
		t.Fatalf("Get after fill missed")
	}
	if got := peer.gets.Load(); got != 1 {
		t.Fatalf("peer gets = %d, want 1", got)
	}
}

func TestPeeredFillMissFallsThrough(t *testing.T) {
	p, _ := newPeeredPair(t, PeeredConfig{})
	if _, ok := p.PeerFill(context.Background(), key(3)); ok {
		t.Fatalf("fill of unseeded key succeeded")
	}
	if st := p.PeerStats(); st.FillMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeeredSelfOwnedKeysSkipPeers(t *testing.T) {
	local, err := New(1<<20, NewTwoLevel())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p, err := NewPeered(local, PeeredConfig{Self: "solo", Members: []string{"solo"}})
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	defer p.Close()
	if _, ok := p.PeerFill(context.Background(), key(1)); ok {
		t.Fatalf("self-owned fill should report false")
	}
	// Inserts of self-owned chunks must not replicate anywhere.
	p.Insert(key(1), mkChunk(0, 1, 3), AsBackend(10))
	if st := p.PeerStats(); st.Puts != 0 && st.PutDrops != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeeredReplicatesBackendClassOnly(t *testing.T) {
	p, peer := newPeeredPair(t, PeeredConfig{})
	p.Insert(key(1), mkChunk(0, 1, 3), AsBackend(10))
	p.Insert(key(2), mkChunk(0, 2, 3), AsComputed(10))

	deadline := time.Now().Add(2 * time.Second)
	for {
		peer.mu.Lock()
		n := len(peer.puts)
		peer.mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if len(peer.puts) != 1 || peer.puts[0] != key(1) {
		t.Fatalf("replicated keys = %v, want [key(1)] only", peer.puts)
	}
}

func TestPeeredBreakerOpensAndRecovers(t *testing.T) {
	p, peer := newPeeredPair(t, PeeredConfig{
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	peer.setFail(true)
	k := key(9)
	peer.seed(k, mkChunk(0, 9, 4))

	for i := 0; i < 2; i++ {
		if _, ok := p.PeerFill(context.Background(), k); ok {
			t.Fatalf("fill %d succeeded against failing peer", i)
		}
	}
	// Breaker is open: the next fill is skipped without touching the peer.
	before := peer.gets.Load()
	if _, ok := p.PeerFill(context.Background(), k); ok {
		t.Fatalf("fill succeeded while breaker open")
	}
	if got := peer.gets.Load(); got != before {
		t.Fatalf("breaker-open fill reached the peer (%d → %d gets)", before, got)
	}
	st := p.PeerStats()
	if st.FillErrors != 2 || st.FillSkips != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// After the cooldown the peer heals; one probe closes the breaker.
	peer.setFail(false)
	time.Sleep(60 * time.Millisecond)
	if _, ok := p.PeerFill(context.Background(), k); !ok {
		t.Fatalf("probe fill failed after peer recovered")
	}
	if st := p.PeerStats(); st.Fills != 1 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

// TestPeeredBreakerIgnoresCancellationAndBusy: a peer's breaker reads
// exchange outcomes with the backend's taxonomy. The caller's own
// cancellation and a shedding (Busy) peer never advance it, so a healthy
// peer is still asked afterwards; an exchange that outlives GetTimeout does.
func TestPeeredBreakerIgnoresCancellationAndBusy(t *testing.T) {
	p, peer := newPeeredPair(t, PeeredConfig{BreakerThreshold: 3, GetTimeout: 20 * time.Millisecond})
	k := key(13)
	peer.seed(k, mkChunk(0, 13, 4))

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		if _, ok := p.PeerFill(cancelled, k); ok {
			t.Fatalf("fill %d succeeded under a cancelled context", i)
		}
	}
	peer.setErr(&wire.BusyError{RetryAfter: time.Millisecond, Reason: "queue_full"})
	for i := 0; i < 3; i++ {
		if _, ok := p.PeerFill(context.Background(), k); ok {
			t.Fatalf("fill %d succeeded against a shedding peer", i)
		}
	}
	peer.setErr(nil)
	if _, ok := p.PeerFill(context.Background(), k); !ok {
		t.Fatalf("live fill against a healthy peer failed: %+v", p.PeerStats())
	}
	if st := p.PeerStats(); st.FillSkips != 0 || st.Fills != 1 {
		t.Fatalf("stats = %+v, want no skips and one fill", st)
	}

	// The GetTimeout deadline is an outage: three expiries open the breaker.
	peer.block = make(chan struct{})
	defer close(peer.block)
	for i := 0; i < 3; i++ {
		if _, ok := p.PeerFill(context.Background(), k); ok {
			t.Fatalf("fill %d succeeded against a hung peer", i)
		}
	}
	before := peer.gets.Load()
	if _, ok := p.PeerFill(context.Background(), k); ok {
		t.Fatalf("fill succeeded while breaker open")
	}
	if got := peer.gets.Load(); got != before {
		t.Fatalf("breaker-open fill reached the peer (%d → %d gets)", before, got)
	}
	if st := p.PeerStats(); st.FillSkips != 1 {
		t.Fatalf("stats = %+v, want one skip after three timeouts", st)
	}
}

func TestPeeredRebuildSwapsMembership(t *testing.T) {
	local, err := New(1<<20, NewTwoLevel())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	peers := map[string]*fakePeer{}
	var mu sync.Mutex
	dial := func(addr string) Peer {
		mu.Lock()
		defer mu.Unlock()
		f := newFakePeer(addr)
		peers[addr] = f
		return f
	}
	p, err := NewPeered(local, PeeredConfig{Self: "a", Members: []string{"a", "b"}, Dial: dial})
	if err != nil {
		t.Fatalf("NewPeered: %v", err)
	}
	defer p.Close()
	if got := p.Ring().Size(); got != 2 {
		t.Fatalf("ring size = %d", got)
	}

	if err := p.Rebuild([]string{"a", "c", "d"}); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if got := p.Ring().Size(); got != 3 {
		t.Fatalf("ring size after rebuild = %d", got)
	}
	mu.Lock()
	b, hasC, hasD := peers["b"], peers["c"] != nil, peers["d"] != nil
	mu.Unlock()
	if b == nil || !b.closed.Load() {
		t.Fatalf("removed member b was not closed")
	}
	if !hasC || !hasD {
		t.Fatalf("new members not dialed: c=%v d=%v", hasC, hasD)
	}
	// Self never gets a peer handle.
	if p.peer("a") != nil {
		t.Fatalf("self has a peer handle")
	}
}

func TestPeeredCloseIsIdempotentAndStopsFills(t *testing.T) {
	p, peer := newPeeredPair(t, PeeredConfig{})
	peer.seed(key(5), mkChunk(0, 5, 3))
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if !peer.closed.Load() {
		t.Fatalf("peer connection not closed")
	}
	if _, ok := p.PeerFill(context.Background(), key(5)); ok {
		t.Fatalf("fill succeeded after Close")
	}
}

// TestPeeredGetLocalMissNeverReachesPeer: Get is local-only; peer traffic
// goes through PeerFill alone.
func TestPeeredGetLocalMissNeverReachesPeer(t *testing.T) {
	p, peer := newPeeredPair(t, PeeredConfig{})
	k := key(21)
	peer.seed(k, mkChunk(0, 21, 6))
	if _, ok := p.Get(k); ok {
		t.Fatalf("Get of a key held only by the peer hit")
	}
	if got := peer.gets.Load(); got != 0 {
		t.Fatalf("local miss in Get made %d peer exchanges, want 0", got)
	}
	if st := p.PeerStats(); st != (PeerStats{}) {
		t.Fatalf("stats = %+v, want zero", st)
	}
}
