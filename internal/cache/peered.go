package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// Peer is one remote cache node the Peered store can consult: a thin
// chunk-granularity get/put surface over the peer wire protocol (the mtier
// package provides the TCP implementation; tests substitute in-process
// ones). Implementations must be safe for concurrent use and must honor the
// context's deadline — a Peered store never waits on a peer longer than its
// configured timeouts.
type Peer interface {
	// Get asks the peer for k. found=false with a nil error is an
	// authoritative miss (the peer answered; it does not hold the chunk).
	Get(ctx context.Context, k Key) (data *chunk.Chunk, cl Class, benefit float64, found bool, err error)
	// Put hands the peer a chunk it owns on the ring, with the replacement
	// attributes the local tier stored it under.
	Put(ctx context.Context, k Key, data *chunk.Chunk, cl Class, benefit float64) error
	// Close releases the peer's connection.
	Close() error
}

// PeerDialer produces the Peer handle for a member address. Dialing must be
// lazy or non-blocking: the Peered store calls it at construction and on
// membership rebuild, before peers are necessarily reachable.
type PeerDialer func(addr string) Peer

// PeeredConfig configures NewPeered.
type PeeredConfig struct {
	// Self is this node's own address as it appears in Members. Keys the
	// ring assigns to Self are served locally (miss → backend). Empty means
	// this process is not a cluster member (e.g. olapcli routing into an
	// aggcached group): every owner is remote.
	Self string
	// Members is the full static cluster membership, including Self when
	// this node serves peers. Order does not matter — ring ownership is
	// name-determined, so every member (and every client) agrees.
	Members []string
	// Vnodes is the virtual nodes per member (DefaultVnodes when <= 0).
	Vnodes int
	// Dial produces peer handles; required when Members names anyone but
	// Self.
	Dial PeerDialer
	// GetTimeout bounds one peer-fill exchange (default 250ms): past it the
	// fill degrades to the backend path rather than stalling the query.
	GetTimeout time.Duration
	// PutTimeout bounds one asynchronous replication put (default 2s).
	PutTimeout time.Duration
	// BreakerThreshold is the run of consecutive outage-class exchange
	// failures (backend.Circuit's taxonomy) that opens a peer's breaker
	// (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open peer breaker rejects traffic
	// before its half-open probe (default 2s).
	BreakerCooldown time.Duration
	// PutQueue bounds the asynchronous replication queue (default 256);
	// puts beyond it are dropped and counted, never blocking an insert.
	PutQueue int
	// PutWorkers is the number of replication workers (default 2).
	PutWorkers int
	// Metrics, when set, supplies the per-peer observability bundle for
	// each member address.
	Metrics func(peer string) obs.PeerMetrics
}

func (c PeeredConfig) withDefaults() PeeredConfig {
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.GetTimeout <= 0 {
		c.GetTimeout = 250 * time.Millisecond
	}
	if c.PutTimeout <= 0 {
		c.PutTimeout = 2 * time.Second
	}
	if c.PutQueue <= 0 {
		c.PutQueue = 256
	}
	if c.PutWorkers <= 0 {
		c.PutWorkers = 2
	}
	return c
}

// PeerStats counts the cluster tier's activity, aggregated over all peers.
type PeerStats struct {
	// Fills counts chunks obtained from a peer (peer-fill hits).
	Fills int64
	// FillMisses counts peer exchanges that answered authoritatively
	// without the chunk.
	FillMisses int64
	// FillErrors counts failed peer exchanges, whatever the cause; only
	// outage-class ones (timeout, connection failure) count toward the
	// peer's breaker.
	FillErrors int64
	// FillSkips counts fills suppressed by an open per-peer breaker.
	FillSkips int64
	// Puts counts successful replication puts to owner peers.
	Puts int64
	// PutDrops counts puts dropped because the replication queue was full
	// or the owner's breaker was open.
	PutDrops int64
	// PutErrors counts failed replication puts.
	PutErrors int64
}

// peerState is one remote member: its connection handle plus its circuit
// breaker, the same state machine that guards the backend. An open breaker
// rejects both fills and puts until the cooldown passes, then one probe
// exchange decides whether it closes again. A dead peer therefore costs the
// steady state nothing — keys it owns degrade to local+backend.
type peerState struct {
	peer    Peer
	met     obs.PeerMetrics
	breaker *backend.Circuit
}

// peerPut is one queued replication put.
type peerPut struct {
	owner   string
	key     Key
	data    *chunk.Chunk
	cl      Class
	benefit float64
}

// Peered is a Store composing a local store (the hot tier — typically a
// Sharded) with a consistent-hash ring of remote peers (the cluster tier):
//
//   - PeerFill asks a missing key's ring owner before the caller falls
//     through to the backend. The engine calls it only as the leader of its
//     per-chunk flight, so concurrent fills of one key are already one
//     exchange; the store does no coalescing of its own.
//   - Insert stores locally and, for backend-class chunks whose ring owner
//     is a remote peer, replicates asynchronously (best-effort, bounded
//     queue) so the whole group can reuse this node's backend fills.
//   - Each peer has a backend.Circuit breaker under the backend's error
//     taxonomy, which degrades a dead peer to local+backend service without
//     blocking; caller cancellation and Busy sheds never open it.
//
// Everything else, Get included, delegates to the local store, so
// snapshots, strategies and reports see exactly the local tier.
type Peered struct {
	local Store
	cfg   PeeredConfig

	ring atomic.Pointer[Ring]

	mu    sync.Mutex // guards peers (membership rebuilds)
	peers map[string]*peerState

	puts   chan peerPut
	closed atomic.Bool
	wg     sync.WaitGroup

	fills      atomic.Int64
	fillMisses atomic.Int64
	fillErrors atomic.Int64
	fillSkips  atomic.Int64
	putOKs     atomic.Int64
	putDrops   atomic.Int64
	putErrors  atomic.Int64
}

// NewPeered wraps local with the cluster tier described by cfg.
func NewPeered(local Store, cfg PeeredConfig) (*Peered, error) {
	if local == nil {
		return nil, errors.New("cache: peered: local store is required")
	}
	cfg = cfg.withDefaults()
	p := &Peered{
		local: local,
		cfg:   cfg,
		peers: make(map[string]*peerState),
		puts:  make(chan peerPut, cfg.PutQueue),
	}
	if err := p.Rebuild(cfg.Members); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.PutWorkers; i++ {
		p.wg.Add(1)
		go p.putLoop()
	}
	return p, nil
}

// Local returns the hot tier. Peer-serving endpoints answer PeerGet from it
// so a chunk resident nowhere can never bounce between peers.
func (p *Peered) Local() Store { return p.local }

// Ring returns the current ring (for diagnostics and tests).
func (p *Peered) Ring() *Ring { return p.ring.Load() }

// Self returns the configured own-address.
func (p *Peered) Self() string { return p.cfg.Self }

// PeerStats returns the cluster tier's aggregate activity counters.
func (p *Peered) PeerStats() PeerStats {
	return PeerStats{
		Fills:      p.fills.Load(),
		FillMisses: p.fillMisses.Load(),
		FillErrors: p.fillErrors.Load(),
		FillSkips:  p.fillSkips.Load(),
		Puts:       p.putOKs.Load(),
		PutDrops:   p.putDrops.Load(),
		PutErrors:  p.putErrors.Load(),
	}
}

// Rebuild replaces the ring membership: the new ring is swapped in
// atomically, peers leaving the membership are closed, and new members get
// lazily-dialed handles. Safe to call while traffic is in flight — fills
// route by whichever ring they load first, which is exactly the transient a
// static-membership reload (SIGHUP) implies.
func (p *Peered) Rebuild(members []string) error {
	ring := NewRing(members, p.cfg.Vnodes)
	remote := make([]string, 0, ring.Size())
	for _, m := range ring.Members() {
		if m != p.cfg.Self {
			remote = append(remote, m)
		}
	}
	if len(remote) > 0 && p.cfg.Dial == nil {
		return fmt.Errorf("cache: peered: %d remote member(s) but no dialer", len(remote))
	}
	keep := make(map[string]bool, len(remote))
	for _, m := range remote {
		keep[m] = true
	}
	p.mu.Lock()
	var stale []*peerState
	for name, st := range p.peers {
		if !keep[name] {
			stale = append(stale, st)
			delete(p.peers, name)
		}
	}
	for _, m := range remote {
		if _, ok := p.peers[m]; ok {
			continue
		}
		st := &peerState{peer: p.cfg.Dial(m)}
		if p.cfg.Metrics != nil {
			st.met = p.cfg.Metrics(m)
		}
		st.breaker = backend.NewCircuit(
			backend.BreakerConfig{FailureThreshold: p.cfg.BreakerThreshold, Cooldown: p.cfg.BreakerCooldown},
			obs.BreakerMetrics{State: st.met.BreakerState})
		p.peers[m] = st
	}
	p.mu.Unlock()
	p.ring.Store(ring)
	for _, st := range stale {
		st.peer.Close()
	}
	return nil
}

// peer returns the state for a member name, nil for self/unknown members.
func (p *Peered) peer(name string) *peerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peers[name]
}

// Close stops the replication workers and closes every peer connection. The
// local store is left untouched (the caller owns it).
func (p *Peered) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	close(p.puts)
	p.wg.Wait()
	p.mu.Lock()
	peers := make([]*peerState, 0, len(p.peers))
	for _, st := range p.peers {
		peers = append(peers, st)
	}
	p.peers = make(map[string]*peerState)
	p.mu.Unlock()
	for _, st := range peers {
		st.peer.Close()
	}
	return nil
}

// PeerFill asks the key's ring owner for a chunk the local tier does not
// hold, inserting it locally on success. It is the engine's pre-backend
// hook: false means the caller should fall through to the backend, and a
// self-owned key or a breaker-open owner returns false at once. The caller
// coalesces fills of one key; each call is one breaker-guarded exchange.
func (p *Peered) PeerFill(ctx context.Context, k Key) (*chunk.Chunk, bool) {
	if p.closed.Load() {
		return nil, false
	}
	st := p.peer(p.ring.Load().Owner(k))
	if st == nil {
		return nil, false
	}
	probe, err := st.breaker.Admit()
	if err != nil {
		p.fillSkips.Add(1)
		st.met.Skips.Inc()
		return nil, false
	}
	ctx, cancel := context.WithTimeout(ctx, p.cfg.GetTimeout)
	defer cancel()
	start := time.Now()
	data, _, benefit, found, err := st.peer.Get(ctx, k)
	st.met.Latency.Observe(time.Since(start))
	st.breaker.Done(probe, err)
	if err != nil {
		p.fillErrors.Add(1)
		st.met.Errors.Inc()
		return nil, false
	}
	if !found {
		p.fillMisses.Add(1)
		st.met.Misses.Inc()
		return nil, false
	}
	p.fills.Add(1)
	st.met.Hits.Inc()
	// Install in the hot tier as a computed-class entry regardless of how
	// the owner classes it: a peer-filled chunk is cheap to re-obtain (one
	// wire exchange, not a backend scan), so it gets the weak residency of
	// a recomputable chunk. Without this, every node's hot tier converges
	// on duplicates of the same hot set and the group's distinct capacity
	// stops growing with membership. The insert goes straight to the local
	// store — a fill must never re-enter the replication path it came from.
	p.local.Insert(k, data, AsComputed(benefit))
	return data, true
}

// replicate queues a best-effort put of a freshly backend-fetched chunk to
// its ring owner.
func (p *Peered) replicate(k Key, data *chunk.Chunk, cl Class, benefit float64) {
	owner := p.ring.Load().Owner(k)
	if owner == "" || owner == p.cfg.Self || p.closed.Load() {
		return
	}
	select {
	case p.puts <- peerPut{owner: owner, key: k, data: data, cl: cl, benefit: benefit}:
	default:
		p.putDrops.Add(1)
		if st := p.peer(owner); st != nil {
			st.met.PutDrops.Inc()
		}
	}
}

// putLoop drains the replication queue.
func (p *Peered) putLoop() {
	defer p.wg.Done()
	for req := range p.puts {
		st := p.peer(req.owner)
		if st == nil {
			continue
		}
		probe, err := st.breaker.Admit()
		if err != nil {
			p.putDrops.Add(1)
			st.met.PutDrops.Inc()
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.cfg.PutTimeout)
		err = st.peer.Put(ctx, req.key, req.data, req.cl, req.benefit)
		cancel()
		st.breaker.Done(probe, err)
		if err != nil {
			p.putErrors.Add(1)
			st.met.PutErrors.Inc()
			continue
		}
		p.putOKs.Add(1)
		st.met.Puts.Inc()
	}
}

// --- Store delegation -----------------------------------------------------

// Get implements Store (local tier only): a miss never reaches a peer.
// Peer traffic belongs to PeerFill, which the engine calls under its
// per-chunk flight with the query's context.
func (p *Peered) Get(k Key) (*chunk.Chunk, bool) { return p.local.Get(k) }

// Peek implements Store (local tier only).
func (p *Peered) Peek(k Key) (*chunk.Chunk, bool) { return p.local.Peek(k) }

// GetInfo serves from the local tier only: it is the PeerGet answer path, and
// answering one peer's lookup from another peer would let a chunk resident
// nowhere bounce around the ring.
func (p *Peered) GetInfo(k Key) (*chunk.Chunk, Class, float64, bool) {
	return p.local.GetInfo(k)
}

// Insert implements Store: the chunk becomes resident locally, and backend
// fills whose ring owner is a remote peer replicate asynchronously so the
// group can reuse them. Computed, recycled and promoted chunks stay local —
// they are cheap to rebuild (or already replicated when first fetched), so
// shipping them would turn in-cache work into wire traffic.
func (p *Peered) Insert(k Key, data *chunk.Chunk, opts ...InsertOption) bool {
	spec := applyInsertOptions(opts)
	ok := p.local.Insert(k, data, opts...)
	if ok && spec.class == ClassBackend && !spec.recycled && !spec.promoted {
		p.replicate(k, data, spec.class, spec.benefit)
	}
	return ok
}

// Evict implements Store (local tier only).
func (p *Peered) Evict(k Key) bool { return p.local.Evict(k) }

// Pin implements Store.
func (p *Peered) Pin(k Key) bool { return p.local.Pin(k) }

// Unpin implements Store.
func (p *Peered) Unpin(k Key) { p.local.Unpin(k) }

// Reinforce implements Store.
func (p *Peered) Reinforce(keys []Key, benefit float64) { p.local.Reinforce(keys, benefit) }

// Contains implements Store.
func (p *Peered) Contains(k Key) bool { return p.local.Contains(k) }

// Keys implements Store.
func (p *Peered) Keys(dst []Key) []Key { return p.local.Keys(dst) }

// Range implements Store.
func (p *Peered) Range(fn func(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool)) {
	p.local.Range(fn)
}

// Stats implements Store.
func (p *Peered) Stats() Stats { return p.local.Stats() }

// Capacity implements Store.
func (p *Peered) Capacity() int64 { return p.local.Capacity() }

// Used implements Store.
func (p *Peered) Used() int64 { return p.local.Used() }

// Len implements Store.
func (p *Peered) Len() int { return p.local.Len() }

// SetListener implements Store.
func (p *Peered) SetListener(l Listener) { p.local.SetListener(l) }

// SetMetrics implements Store.
func (p *Peered) SetMetrics(m obs.CacheMetrics) { p.local.SetMetrics(m) }

// Policy implements Store.
func (p *Peered) Policy() Policy { return p.local.Policy() }

// Shards implements Store, reporting the local tier's stripe count.
func (p *Peered) Shards() int { return p.local.Shards() }
