package cache

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// Sharded is the chunk store: keys are spread across a power-of-two number
// of shards by a cheap hash of (GB, Num), and each shard is an independent
// map + policy instance guarded by its own mutex. With one shard (the
// default) it is a single-lock store; with more, concurrent queries touching
// different shards never contend.
//
// Locking contract: every method synchronizes internally. Listener and
// Policy callbacks fire synchronously under the lock of the shard owning the
// affected key — they must not call back into the store. Chunk payloads
// (*chunk.Chunk) are immutable, so a payload pointer obtained from Get/Peek
// may be read after the call returns, provided the entry stays pinned so the
// policy cannot evict it while readers hold the pointer.
//
// Capacity is partitioned per shard with a borrow margin: each shard may
// charge up to capacity/N plus half again (so a hot shard can steal headroom
// from idle ones), while a global atomic reservation keeps the sum of all
// shards within the configured capacity. When the global bound binds, the
// inserting shard evicts locally until its reservation fits — so a saturated
// store converges to roughly capacity/N per active shard without any
// cross-shard locking.
//
// Stats, Keys, Range and Len aggregate by visiting shards one at a time —
// there is no stop-the-world lock, so the result is a consistent-per-shard
// (not globally atomic) snapshot, which is all the callers (reports,
// snapshots, gauges) need. The obs occupancy gauges are fed from the global
// atomics and are therefore exact.
type Sharded struct {
	capacity int64
	limit    int64  // per-shard byte cap: capacity/N + borrow margin
	mask     uint64 // len(shards) - 1
	used     atomic.Int64
	resident atomic.Int64
	shards   []shard
	// listener, hook and met are set before the store serves traffic (see
	// the Store contract) and are read-only afterwards.
	listener Listener
	hook     tierHook
	met      obs.CacheMetrics
}

// shard is one stripe: an independent map + policy under its own lock. The
// padding keeps neighbouring shards' mutexes off the same cache line.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*Entry
	policy  Policy
	used    int64
	stats   Stats
	_       [40]byte
}

// newSharded builds an n-shard store; n must be a power of two in
// [1, MaxShards]. The seed policy serves shard 0 and is forked for the rest.
// Callers go through New.
func newSharded(capacity int64, n int, seed Policy) (*Sharded, error) {
	if n < 1 || n > MaxShards || n&(n-1) != 0 {
		return nil, fmt.Errorf("cache: shard count must be a power of two in [1, %d], got %d", MaxShards, n)
	}
	base := capacity / int64(n)
	limit := base + base/2
	if limit <= 0 || limit > capacity {
		// One shard, or a degenerate capacity (fewer bytes than shards):
		// the global bound is the only bound.
		limit = capacity
	}
	c := &Sharded{capacity: capacity, limit: limit, mask: uint64(n - 1), shards: make([]shard, n)}
	for i := range c.shards {
		p := seed
		if i > 0 {
			p = seed.Fork()
		}
		c.shards[i].entries = make(map[Key]*Entry)
		c.shards[i].policy = p
	}
	return c, nil
}

// shardIndex hashes k onto a stripe. The splitmix64 finalizer spreads the
// low-entropy (GB, Num) pairs APB workloads produce evenly over the mask.
func (c *Sharded) shardIndex(k Key) uint64 {
	h := uint64(uint32(k.GB))<<32 | uint64(uint32(k.Num))
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h & c.mask
}

func (c *Sharded) shard(k Key) *shard { return &c.shards[c.shardIndex(k)] }

// reserve charges delta bytes against the global capacity, failing without
// side effects when it would overflow.
func (c *Sharded) reserve(delta int64) bool {
	for {
		u := c.used.Load()
		if u+delta > c.capacity {
			return false
		}
		if c.used.CompareAndSwap(u, u+delta) {
			return true
		}
	}
}

// syncGauges publishes occupancy from the global atomics; callers may hold a
// shard lock but never more than one.
func (c *Sharded) syncGauges() {
	c.met.OccupancyBytes.Set(c.used.Load())
	c.met.ResidentChunks.Set(c.resident.Load())
}

// Shards implements Store.
func (c *Sharded) Shards() int { return len(c.shards) }

// SetListener implements Store.
func (c *Sharded) SetListener(l Listener) { c.listener = l }

// setTierHook installs the Tiered wrapper's seam.
func (c *Sharded) setTierHook(h tierHook) { c.hook = h }

// SetMetrics implements Store.
func (c *Sharded) SetMetrics(m obs.CacheMetrics) {
	c.met = m
	c.met.CapacityBytes.Set(c.capacity)
	c.syncGauges()
}

// Capacity implements Store.
func (c *Sharded) Capacity() int64 { return c.capacity }

// Used implements Store.
func (c *Sharded) Used() int64 { return c.used.Load() }

// Len implements Store.
func (c *Sharded) Len() int { return int(c.resident.Load()) }

// Policy implements Store; the sharded store reports shard 0's instance (all
// shards run the same kind).
func (c *Sharded) Policy() Policy { return c.shards[0].policy }

// Stats implements Store: the sum over all shards, each read consistently
// under its own lock.
func (c *Sharded) Stats() Stats {
	var t Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		t.Hits += s.stats.Hits
		t.Misses += s.stats.Misses
		t.Inserts += s.stats.Inserts
		t.Evictions += s.stats.Evictions
		t.Removals += s.stats.Removals
		t.Denied += s.stats.Denied
		s.mu.Unlock()
	}
	return t
}

// Contains implements Store.
func (c *Sharded) Contains(k Key) bool {
	s := c.shard(k)
	s.mu.Lock()
	_, ok := s.entries[k]
	s.mu.Unlock()
	return ok
}

// Get implements Store.
func (c *Sharded) Get(k Key) (*chunk.Chunk, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		c.met.Misses.Inc()
		return nil, false
	}
	s.stats.Hits++
	s.policy.Accessed(e)
	data := e.Data
	s.mu.Unlock()
	c.met.Hits.Inc()
	return data, true
}

// GetInfo is Get plus the entry's replacement attributes: the peer tier
// serves PeerGet from it so a fill carries the owner's class and benefit
// across the wire. Serving a peer counts as an access — a chunk the group
// keeps asking for should stay resident on its owner.
func (c *Sharded) GetInfo(k Key) (*chunk.Chunk, Class, float64, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		c.met.Misses.Inc()
		return nil, 0, 0, false
	}
	s.stats.Hits++
	s.policy.Accessed(e)
	data, cl, benefit := e.Data, e.Class, e.Benefit
	s.mu.Unlock()
	c.met.Hits.Inc()
	return data, cl, benefit, true
}

// Peek implements Store.
func (c *Sharded) Peek(k Key) (*chunk.Chunk, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	var data *chunk.Chunk
	if ok {
		data = e.Data
	}
	s.mu.Unlock()
	return data, ok
}

// Insert implements Store: it makes data resident under k, evicting per the
// policy as needed, and reports whether the chunk was admitted. With no
// options the chunk enters as a backend-class resident with zero benefit;
// see InsertOption for the residency variants. Re-inserting a resident key
// replaces the payload, re-charges the byte delta (evicting if the store
// overflows), refreshes class/benefit and counts as an access; presence is
// unchanged, so no listener event fires. A chunk larger than the shard limit
// is not admitted, and an oversized replacement leaves the old entry
// resident.
//
// Admission is bounded by both the shard limit (local evictions make room)
// and the global capacity (reserved atomically, evicting locally until the
// reservation fits).
func (c *Sharded) Insert(k Key, data *chunk.Chunk, opts ...InsertOption) bool {
	return c.insert(k, data, applyInsertOptions(opts))
}

func (c *Sharded) insert(k Key, data *chunk.Chunk, spec insertSpec) bool {
	need := data.Bytes()
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if need > c.capacity || need > c.limit {
		s.stats.Denied++
		c.met.Denied.Inc()
		return false
	}
	if e, ok := s.entries[k]; ok {
		delta := need - e.Bytes()
		if delta > 0 {
			// Shield the entry being replaced from the victim scan.
			e.pins++
			if !c.makeRoomLocked(s, delta, spec.class) {
				e.pins--
				s.stats.Denied++
				c.met.Denied.Inc()
				return false
			}
			e.pins--
		} else {
			c.used.Add(delta)
		}
		s.used += delta
		e.Data = data
		if e.Class != spec.class {
			// Migrate to the ring matching the new class.
			s.policy.Removed(e)
			e.Class = spec.class
			s.policy.Added(e)
		}
		e.Benefit = spec.benefit
		// e.Recycled keeps its insert-time value: replacement fires no
		// listener events, and the strategy's eviction dual must match
		// whatever maintenance OnInsert performed for this residency.
		s.policy.Accessed(e)
		c.met.Replacements.Inc()
		c.syncGauges()
		return true
	}
	if c.hook != nil {
		// A cold-resident key makes this insert a promotion: the chunk never
		// stopped being answerable, so its preserved residency attributes
		// override the caller's and no OnInsert fires. Decided under the
		// shard lock that serializes this key's tier transitions.
		if ps, wasCold := c.hook.peekCold(k); wasCold {
			spec = ps
		}
	}
	if !c.makeRoomLocked(s, need, spec.class) {
		s.stats.Denied++
		c.met.Denied.Inc()
		return false
	}
	if spec.promoted && c.hook != nil {
		c.hook.claimCold(k)
	}
	e := &Entry{Key: k, Data: data, Class: spec.class, Benefit: spec.benefit, Recycled: spec.recycled, Promoted: spec.promoted}
	s.entries[k] = e
	s.used += need
	c.resident.Add(1)
	s.stats.Inserts++
	c.met.Inserts.Inc()
	s.policy.Added(e)
	c.syncGauges()
	if c.listener != nil {
		if spec.promoted {
			c.listener.OnEvent(Event{Key: k, Reason: Promoted, Entry: e})
		} else {
			c.listener.OnInsert(e)
		}
	}
	return true
}

// makeRoomLocked evicts from s (whose lock the caller holds) until delta more
// bytes fit under both the shard limit and the global capacity, reserving the
// global bytes on success. It reports false — with the reservation released —
// when the policy refuses to yield a victim.
func (c *Sharded) makeRoomLocked(s *shard, delta int64, cl Class) bool {
	for s.used+delta > c.limit {
		v := s.policy.NextVictim(cl)
		if v == nil {
			return false
		}
		c.removeLocked(s, v, true)
	}
	for !c.reserve(delta) {
		v := s.policy.NextVictim(cl)
		if v == nil {
			return false
		}
		c.removeLocked(s, v, true)
	}
	return true
}

// Evict implements Store.
func (c *Sharded) Evict(k Key) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		return false
	}
	c.removeLocked(s, e, false)
	return true
}

// removeLocked drops e from s (whose lock the caller holds), releasing its
// global reservation. policyEvict distinguishes policy-driven victim
// eviction (counted as Evictions) from administrative removal (counted as
// Removals); the listener is notified either way so strategies stay
// consistent with residence.
func (c *Sharded) removeLocked(s *shard, e *Entry, policyEvict bool) {
	delete(s.entries, e.Key)
	s.used -= e.Bytes()
	c.used.Add(-e.Bytes())
	c.resident.Add(-1)
	if policyEvict {
		s.stats.Evictions++
		c.met.EvictionsPolicy.Inc()
	} else {
		s.stats.Removals++
		c.met.EvictionsAdmin.Inc()
	}
	c.syncGauges()
	s.policy.Removed(e)
	reason := Removed
	if policyEvict {
		reason = Evicted
		if c.hook != nil && c.hook.demote(e) {
			reason = Demoted
		}
	}
	if c.listener != nil {
		c.listener.OnEvent(Event{Key: e.Key, Reason: reason, Entry: e})
	}
}

// Pin implements Store.
func (c *Sharded) Pin(k Key) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		c.met.PinFailures.Inc()
		return false
	}
	e.pins++
	return true
}

// Unpin implements Store.
func (c *Sharded) Unpin(k Key) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok && e.pins > 0 {
		e.pins--
	}
}

// Reinforce implements Store. Keys are grouped by shard via a bitmask
// (MaxShards ≤ 64 keeps it one word) so each involved shard's lock is taken
// exactly once regardless of group size.
func (c *Sharded) Reinforce(keys []Key, benefit float64) {
	var mask uint64
	for _, k := range keys {
		mask |= 1 << c.shardIndex(k)
	}
	for mask != 0 {
		i := uint64(bits.TrailingZeros64(mask))
		mask &^= 1 << i
		s := &c.shards[i]
		s.mu.Lock()
		for _, k := range keys {
			if c.shardIndex(k) != i {
				continue
			}
			if e, ok := s.entries[k]; ok {
				s.policy.Reinforced(e, benefit)
			}
		}
		s.mu.Unlock()
	}
}

// Keys implements Store, visiting shards one at a time.
func (c *Sharded) Keys(dst []Key) []Key {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.entries {
			dst = append(dst, k)
		}
		s.mu.Unlock()
	}
	return dst
}

// Range implements Store, visiting shards one at a time; fn runs under the
// owning shard's lock and must not call back into the store.
func (c *Sharded) Range(fn func(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			fn(k, e.Data, e.Class, e.Benefit, e.Recycled)
		}
		s.mu.Unlock()
	}
}
