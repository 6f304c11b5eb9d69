package cache

import (
	"fmt"
	"sync/atomic"

	"aggcache/internal/chunk"
	"aggcache/internal/obs"
)

// TierStats is the cold-tier activity and occupancy snapshot a Tiered store
// reports: the promote/demote traffic between tiers, cold-tier hit/miss
// counts, and the compressed vs raw byte footprint (their ratio is the
// effective compression).
type TierStats struct {
	ColdHits     int64 // hot-tier misses answered by decompressing a cold resident
	ColdMisses   int64 // misses in both tiers
	Promotes     int64 // chunks decompressed back into the hot tier
	Demotes      int64 // hot-tier victims re-admitted compressed
	DemoteDenied int64 // victims the cold tier refused (oversized or disabled)
	ColdEvicts   int64 // cold residents dropped for cold-tier space

	ColdCapacity int64 // cold-tier byte bound
	ColdUsed     int64 // compressed bytes charged
	ColdRawBytes int64 // uncompressed footprint of the same residents
	ColdChunks   int64 // cold residents
}

// TierStatser is implemented by stores that maintain a compressed cold tier;
// the daemons and the engine's stats surface it without knowing the concrete
// store composition.
type TierStatser interface {
	TierStats() TierStats
}

// tierHook is the package-internal seam between the hot Sharded store and
// the Tiered wrapper. Every per-key tier transition must be decided
// under the lock that serializes that key's hot-store mutations (the shard
// lock), or two racing goroutines can leave a chunk resident in both tiers —
// and a later cold eviction would then fire a spurious Evicted while the
// chunk still answers, corrupting strategy counts. All three methods are
// invoked with that lock held; implementations may take the cold tier's
// lock (lock order is always hot shard → cold, never the reverse) and must
// not call back into the hot store.
type tierHook interface {
	// peekCold reports whether k is cold-resident and, if so, its preserved
	// residency attributes; the fresh-insert path calls it to turn the
	// insert into a promotion. The cold copy is not removed yet.
	peekCold(k Key) (spec insertSpec, wasCold bool)
	// claimCold drops k's cold copy after the hot insert was admitted; the
	// key has just moved cold → hot.
	claimCold(k Key)
	// demote offers a policy-evicted hot entry to the cold tier and reports
	// whether it was admitted (in which case the eviction becomes a
	// Demoted event).
	demote(e *Entry) bool
}

// Tiered composes a hot Store with a compressed in-RAM cold tier. Hot-tier
// victims are delta/varint-encoded and demoted to the cold tier instead of
// dropped; a miss that finds its chunk cold decompresses it back into the
// hot tier, where the two-level policy admits it straight into the
// protected ring (protect on promote). Listeners registered on the Tiered
// store observe the full event taxonomy: Demoted when a victim stays
// answerable compressed, Promoted when it returns to the hot tier, Evicted
// only when a chunk truly leaves the store.
//
// Residency invariant: a key is resident in at most one tier. Transitions
// are decided under the hot store's per-key lock (see tierHook), so the
// invariant holds under arbitrary concurrency.
type Tiered struct {
	hot  *Sharded
	cold *coldTier
	// outer is the listener registered via SetListener; hot-store events are
	// forwarded to it, with cold-pressure evictions synthesized here. Set
	// before the store serves traffic, read-only afterwards.
	outer    Listener
	promotes atomic.Int64
	tmet     obs.TierMetrics
}

// NewTiered wraps hot with a compressed cold tier of coldBytes capacity.
// The hot store must be a Sharded store built by New — not Peered or another
// Tiered, which own their composition. Register listeners on the returned
// store, not on hot.
func NewTiered(hot Store, coldBytes int64) (*Tiered, error) {
	if coldBytes <= 0 {
		return nil, fmt.Errorf("cache: cold tier capacity must be positive, got %d", coldBytes)
	}
	h, ok := hot.(*Sharded)
	if !ok {
		return nil, fmt.Errorf("cache: %T cannot host a cold tier", hot)
	}
	t := &Tiered{hot: h, cold: newColdTier(coldBytes)}
	h.setTierHook(t)
	h.SetListener(forwardListener{t})
	return t, nil
}

// forwardListener relays hot-store events to the Tiered store's outer
// listener. It is a separate type (not Tiered itself) so SetListener on the
// wrapper cannot be confused with the hot store's listener slot.
type forwardListener struct{ t *Tiered }

func (f forwardListener) OnInsert(e *Entry) {
	if f.t.outer != nil {
		f.t.outer.OnInsert(e)
	}
}

func (f forwardListener) OnEvent(ev Event) {
	if ev.Reason == Promoted {
		f.t.promotes.Add(1)
		f.t.tmet.Promotes.Inc()
	}
	if f.t.outer != nil {
		f.t.outer.OnEvent(ev)
	}
}

// peekCold implements tierHook.
func (t *Tiered) peekCold(k Key) (insertSpec, bool) {
	t.cold.mu.Lock()
	defer t.cold.mu.Unlock()
	e, ok := t.cold.entries[k]
	if !ok {
		return insertSpec{}, false
	}
	return insertSpec{class: e.class, benefit: e.benefit, recycled: e.recycled, promoted: true}, true
}

// claimCold implements tierHook.
func (t *Tiered) claimCold(k Key) {
	t.cold.remove(k)
}

// demote implements tierHook: encode the victim and admit it to the cold
// tier; chunks the cold tier displaces in turn are gone for good, so their
// Evicted events fire here (the displaced keys are cold-resident and
// therefore — by the residency invariant — not hot-resident).
func (t *Tiered) demote(e *Entry) bool {
	victims, ok := t.cold.add(e.Key, e.Data, e.Class, e.Benefit, e.Recycled)
	if ok {
		t.tmet.Demotes.Inc()
	} else {
		t.tmet.DemoteDenied.Inc()
	}
	for _, v := range victims {
		t.tmet.ColdEvictions.Inc()
		if t.outer != nil {
			t.outer.OnEvent(Event{
				Key:    v.key,
				Reason: Evicted,
				Entry:  &Entry{Key: v.key, Class: v.class, Benefit: v.benefit, Recycled: v.recycled},
			})
		}
	}
	t.syncTierGauges()
	return ok
}

// promote decompresses k's cold copy into the hot tier and returns the
// payload with its preserved attributes. The hot insert re-consults the
// cold tier under the shard lock (peekCold), so the promotion spec
// (preserved class/benefit/recycled, protected-ring admission) and the
// Promoted event are applied atomically with the insert — the AsPromoted
// flag is never trusted from out here, where it could race a concurrent
// claim. The promotion charges the hot budget exactly once, through the
// ordinary insert path.
func (t *Tiered) promote(k Key) (*chunk.Chunk, Class, float64, bool) {
	ce, ok := t.cold.peek(k)
	if !ok {
		return nil, 0, 0, false
	}
	data, err := chunk.DecodePayload(k.GB, k.Num, ce.enc)
	if err != nil {
		// An undecodable cold resident is unusable; drop it so it stops
		// occupying cold bytes. This cannot happen short of memory
		// corruption — the tier only stores its own encodings.
		t.cold.remove(k)
		return nil, 0, 0, false
	}
	opt := AsBackend(ce.benefit)
	if ce.recycled {
		opt = AsRecycled(ce.benefit)
	} else if ce.class == ClassComputed {
		opt = AsComputed(ce.benefit)
	}
	t.hot.Insert(k, data, opt)
	t.syncTierGauges()
	// Serve the decoded payload even if the hot tier refused admission (all
	// entries pinned, say): the cold copy is still resident in that case, so
	// the chunk remains answerable.
	return data, ce.class, ce.benefit, true
}

// syncTierGauges publishes cold-tier occupancy.
func (t *Tiered) syncTierGauges() {
	t.cold.mu.Lock()
	used, raw, n := t.cold.used, t.cold.raw, int64(len(t.cold.entries))
	t.cold.mu.Unlock()
	t.tmet.ColdOccupancyBytes.Set(used)
	t.tmet.ColdRawBytes.Set(raw)
	t.tmet.ColdChunks.Set(n)
}

// Get implements Store: a hot hit is served as usual; a hot miss consults
// the cold tier and, on a cold hit, promotes the chunk back into the hot
// tier before returning it.
func (t *Tiered) Get(k Key) (*chunk.Chunk, bool) {
	if data, ok := t.hot.Get(k); ok {
		return data, true
	}
	if data, _, _, ok := t.promote(k); ok {
		t.cold.hit()
		t.tmet.ColdHits.Inc()
		return data, true
	}
	t.cold.miss()
	t.tmet.ColdMisses.Inc()
	return nil, false
}

// GetInfo implements Store: Get plus replacement attributes, for the peer
// tier.
func (t *Tiered) GetInfo(k Key) (*chunk.Chunk, Class, float64, bool) {
	if data, cl, benefit, found := t.hot.GetInfo(k); found {
		return data, cl, benefit, true
	}
	if data, cl, benefit, ok := t.promote(k); ok {
		t.cold.hit()
		t.tmet.ColdHits.Inc()
		return data, cl, benefit, true
	}
	t.cold.miss()
	t.tmet.ColdMisses.Inc()
	return nil, 0, 0, false
}

// Peek implements Store: hot first, then a cold decode — without promoting,
// touching recency, or counting hits/misses.
func (t *Tiered) Peek(k Key) (*chunk.Chunk, bool) {
	if data, ok := t.hot.Peek(k); ok {
		return data, true
	}
	ce, ok := t.cold.peek(k)
	if !ok {
		return nil, false
	}
	data, err := chunk.DecodePayload(k.GB, k.Num, ce.enc)
	if err != nil {
		return nil, false
	}
	return data, true
}

// Insert implements Store, delegating to the hot tier. If the key is
// cold-resident the insert is turned into a promotion under the shard lock
// (the cold copy is superseded; no OnInsert fires because the chunk never
// stopped being answerable).
func (t *Tiered) Insert(k Key, data *chunk.Chunk, opts ...InsertOption) bool {
	ok := t.hot.Insert(k, data, opts...)
	t.syncTierGauges()
	return ok
}

// Evict implements Store: an administrative removal drops the key from
// whichever tier holds it. A cold-side removal fires Removed here (the hot
// store cannot — it never saw the key).
func (t *Tiered) Evict(k Key) bool {
	if t.hot.Evict(k) {
		return true
	}
	e, ok := t.cold.remove(k)
	if !ok {
		return false
	}
	t.syncTierGauges()
	if t.outer != nil {
		t.outer.OnEvent(Event{
			Key:    k,
			Reason: Removed,
			Entry:  &Entry{Key: k, Class: e.class, Benefit: e.benefit, Recycled: e.recycled},
		})
	}
	return true
}

// Pin implements Store. Pinning a cold-resident key promotes it first — a
// pin means an aggregation is about to read the payload, which requires it
// decoded and protected from eviction.
func (t *Tiered) Pin(k Key) bool {
	if t.hot.Pin(k) {
		return true
	}
	if _, _, _, ok := t.promote(k); !ok {
		return false
	}
	t.cold.hit()
	t.tmet.ColdHits.Inc()
	return t.hot.Pin(k)
}

// Unpin implements Store.
func (t *Tiered) Unpin(k Key) { t.hot.Unpin(k) }

// Reinforce implements Store. Only hot residents carry replacement clocks;
// a promoted-from-cold chunk is reinforced exactly like any other hot
// entry — its bytes were charged once, at promotion, through the ordinary
// insert path, so reinforcement never touches byte accounting.
func (t *Tiered) Reinforce(keys []Key, benefit float64) { t.hot.Reinforce(keys, benefit) }

// Contains implements Store: resident in either tier.
func (t *Tiered) Contains(k Key) bool {
	return t.hot.Contains(k) || t.cold.contains(k)
}

// Keys implements Store over both tiers.
func (t *Tiered) Keys(dst []Key) []Key {
	dst = t.hot.Keys(dst)
	for _, e := range t.cold.snapshot() {
		dst = append(dst, e.key)
	}
	return dst
}

// Range implements Store over both tiers; cold residents are decoded per
// call (Range is a snapshot/diagnostic path, not a hot path). fn runs
// outside the cold tier's lock for cold entries.
func (t *Tiered) Range(fn func(k Key, data *chunk.Chunk, cl Class, benefit float64, recycled bool)) {
	t.hot.Range(fn)
	for _, e := range t.cold.snapshot() {
		data, err := chunk.DecodePayload(e.key.GB, e.key.Num, e.enc)
		if err != nil {
			continue
		}
		fn(e.key, data, e.class, e.benefit, e.recycled)
	}
}

// Stats implements Store: the hot tier's counters with cold hits folded in
// (a cold hit was counted as a hot miss on the way through).
func (t *Tiered) Stats() Stats {
	s := t.hot.Stats()
	ts := t.TierStats()
	s.Hits += ts.ColdHits
	s.Misses -= ts.ColdHits
	return s
}

// TierStats implements TierStatser.
func (t *Tiered) TierStats() TierStats {
	ts := t.cold.tierStats()
	ts.Promotes = t.promotes.Load()
	return ts
}

// Capacity implements Store: the combined byte bound of both tiers.
func (t *Tiered) Capacity() int64 { return t.hot.Capacity() + t.cold.capacity }

// HotCapacity returns the hot tier's byte bound alone.
func (t *Tiered) HotCapacity() int64 { return t.hot.Capacity() }

// Used implements Store: hot bytes plus compressed cold bytes.
func (t *Tiered) Used() int64 { return t.hot.Used() + t.cold.usedBytes() }

// Len implements Store: residents across both tiers.
func (t *Tiered) Len() int { return t.hot.Len() + t.cold.len() }

// SetListener implements Store; the listener observes both tiers' events.
func (t *Tiered) SetListener(l Listener) { t.outer = l }

// SetMetrics implements Store, forwarding the hot-tier bundle.
func (t *Tiered) SetMetrics(m obs.CacheMetrics) { t.hot.SetMetrics(m) }

// SetTierMetrics attaches the cold-tier bundle; call before serving traffic.
func (t *Tiered) SetTierMetrics(m obs.TierMetrics) {
	t.tmet = m
	t.tmet.ColdCapacityBytes.Set(t.cold.capacity)
	t.syncTierGauges()
}

// Policy implements Store, reporting the hot tier's policy.
func (t *Tiered) Policy() Policy { return t.hot.Policy() }

// Hot returns the wrapped hot store (tests and diagnostics).
func (t *Tiered) Hot() Store { return t.hot }

// Shards implements Store, reporting the hot tier's stripe count.
func (t *Tiered) Shards() int { return t.hot.Shards() }
