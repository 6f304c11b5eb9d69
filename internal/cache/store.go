package cache

import (
	"fmt"
	"math/bits"
	"runtime"

	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// Store is the chunk-cache contract the rest of the system programs against.
// It captures the full surface the engine, the lookup strategies, snapshots
// and the daemons need. [Sharded] is the one implementation that holds
// chunks; [Tiered] and [Peered] compose over it.
//
// Locking contract: implementations synchronize internally; callers never
// wrap Store calls in an external lock. Listener and Policy callbacks fire
// synchronously while the store holds the internal lock covering the affected
// key, so they must be fast and must not call back into the same Store (that
// would self-deadlock). Chunk payloads (*chunk.Chunk) are immutable, so a
// payload pointer returned by Get/Peek/Range may be read after the call
// returns; pin the key first if the payload must stay resident while you use
// it.
type Store interface {
	// Get returns the chunk payload for k, updating replacement state and
	// hit/miss counters.
	Get(k Key) (*chunk.Chunk, bool)
	// GetInfo is Get plus the entry's class and benefit; the peer tier
	// answers PeerGet from it.
	GetInfo(k Key) (*chunk.Chunk, Class, float64, bool)
	// Peek returns the chunk payload without touching replacement state or
	// hit/miss counters.
	Peek(k Key) (*chunk.Chunk, bool)
	// Insert makes data resident under k, evicting per the policy as needed,
	// and reports whether the chunk was admitted. The options select the
	// residency variant (backend-class with zero benefit by default); see
	// InsertOption. See Sharded.Insert for the replacement semantics every
	// implementation follows.
	Insert(k Key, data *chunk.Chunk, opts ...InsertOption) bool
	// Evict removes k if resident (administrative removal, not a policy
	// eviction).
	Evict(k Key) bool
	// Pin marks k in use so the policy will not evict it; it must be
	// balanced by Unpin. Pinning a non-resident key returns false.
	Pin(k Key) bool
	// Unpin releases one pin on k.
	Unpin(k Key)
	// Reinforce bumps the replacement weight of every listed resident chunk
	// by benefit (two-level policy group maintenance, §6.3).
	Reinforce(keys []Key, benefit float64)
	// Contains reports residence without touching replacement state.
	Contains(k Key) bool
	// Keys appends all resident keys to dst; order is unspecified.
	Keys(dst []Key) []Key
	// Range calls fn for every resident entry (order unspecified) with its
	// residency attributes. fn runs under the store's internal lock(s) and
	// must not call back into the store.
	Range(fn func(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool))
	// Stats returns a consistent copy of the activity counters.
	Stats() Stats
	// Capacity returns the byte bound.
	Capacity() int64
	// Used returns the bytes currently charged.
	Used() int64
	// Len returns the number of resident chunks.
	Len() int
	// Shards reports the stripe count of the underlying Sharded store.
	Shards() int
	// SetListener registers the strategy callback; pass nil to clear. Call
	// it before the store serves traffic.
	SetListener(l Listener)
	// SetMetrics attaches live observability metrics; call it before the
	// store serves traffic.
	SetMetrics(m obs.CacheMetrics)
	// Policy exposes a replacement policy for reporting (Name). On a
	// sharded store this is one representative shard's instance.
	Policy() Policy
}

// insertSpec is the resolved residency of one Insert call.
type insertSpec struct {
	class    Class
	benefit  float64
	recycled bool
	promoted bool
}

// InsertOption selects the residency variant of one Insert. The store used
// to expose three entry points (Insert with a class, InsertRecycled, and an
// implicit promote path) whose semantics differed subtly; the options fold
// them into one method so a composed store (Peered over Tiered over Sharded)
// can inspect a single spec instead of mirroring three signatures.
type InsertOption func(*insertSpec)

// applyInsertOptions resolves opts over the default spec: a backend-class
// resident with zero benefit.
func applyInsertOptions(opts []InsertOption) insertSpec {
	var s insertSpec
	for _, o := range opts {
		o(&s)
	}
	return s
}

// AsBackend marks the chunk as fetched from the backend database with the
// given recomputation benefit. This is the default class; the option exists
// to carry the benefit.
func AsBackend(benefit float64) InsertOption {
	return func(s *insertSpec) { s.class, s.benefit, s.recycled = ClassBackend, benefit, false }
}

// AsComputed marks the chunk as aggregated from cached chunks; the two-level
// policy keeps such entries replaceable ahead of backend ones (§6.3).
func AsComputed(benefit float64) InsertOption {
	return func(s *insertSpec) { s.class, s.benefit, s.recycled = ClassComputed, benefit, false }
}

// AsRecycled admits a speculative intermediate aggregate as a computed-class
// resident whose Entry carries the Recycled mark, so listener strategies
// apply presence-only (O(1)) maintenance instead of full count/cost
// propagation. Peered stores never replicate such chunks.
func AsRecycled(benefit float64) InsertOption {
	return func(s *insertSpec) { s.class, s.benefit, s.recycled = ClassComputed, benefit, true }
}

// AsPromoted marks the insert as a tier promotion: the chunk is re-entering
// the hot tier from a colder one, so it was never gone. The policy admits it
// straight into the protected ring, and the listener receives an OnEvent
// with Reason Promoted instead of OnInsert — insert-side strategy
// bookkeeping (counts, costs) survived the demotion and must not run twice.
// Compose it after a class option (AsBackend/AsComputed/AsRecycled) to
// restore the entry's pre-demotion residency.
func AsPromoted() InsertOption {
	return func(s *insertSpec) { s.promoted = true }
}

// MaxShards bounds the shard count; 64 keeps Reinforce's shard grouping a
// single uint64 bitmask and is far beyond the core counts this tier runs on.
const MaxShards = 64

// config collects New's options.
type config struct {
	shards   int // 0 = one shard (the default); -1 = auto (GOMAXPROCS rounded up)
	listener Listener
	metrics  *obs.CacheMetrics
}

// Option configures New. Options are applied in order; later options win.
type Option func(*config)

// WithShards sets the stripe count to n, rounded up to a power of two and
// capped at MaxShards. n = 1 (the default) is one shard behind one lock.
// n = 0 means "auto": GOMAXPROCS rounded up to a power of two.
func WithShards(n int) Option {
	return func(c *config) {
		if n == 0 {
			c.shards = -1
			return
		}
		c.shards = n
	}
}

// WithListener registers the insert/evict listener at construction time,
// replacing a later SetListener call.
func WithListener(l Listener) Option {
	return func(c *config) { c.listener = l }
}

// WithMetrics attaches the live-metrics bundle at construction time,
// replacing a later SetMetrics call.
func WithMetrics(m obs.CacheMetrics) Option {
	return func(c *config) { c.metrics = &m }
}

// New creates a chunk store bounded to capacity bytes using the given
// replacement policy: a lock-striped Sharded store with one shard unless
// WithShards asks for more. The policy serves shard 0; every further shard
// runs its own Fork of it.
func New(capacity int64, policy Policy, opts ...Option) (Store, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacity)
	}
	if policy == nil {
		return nil, fmt.Errorf("cache: policy must not be nil")
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	n := cfg.shards
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = min(nextPow2(n), MaxShards)
	s, err := newSharded(capacity, n, policy)
	if err != nil {
		return nil, err
	}
	if cfg.listener != nil {
		s.SetListener(cfg.listener)
	}
	if cfg.metrics != nil {
		s.SetMetrics(*cfg.metrics)
	}
	return s, nil
}

// nextPow2 rounds n up to the next power of two.
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
