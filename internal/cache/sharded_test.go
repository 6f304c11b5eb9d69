package cache

import (
	"math/rand"
	"sync"
	"testing"

	"aggcache/internal/apb"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
)

func newSharded4(t *testing.T, capacity int64) *Sharded {
	t.Helper()
	s, err := New(capacity, NewTwoLevel(), WithShards(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s.(*Sharded)
}

// shardKey returns the i-th key num (starting the probe at from) that hashes
// onto the given shard, so tests can aim inserts at one stripe.
func shardKey(c *Sharded, want uint64, from int) Key {
	for num := from; ; num++ {
		if k := key(num); c.shardIndex(k) == want {
			return k
		}
	}
}

func TestNewShardSelection(t *testing.T) {
	// Default and n=1 build one shard whose limit is the whole capacity.
	for _, opts := range [][]Option{nil, {WithShards(1)}} {
		s, err := New(1000, NewLRU(), opts...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		sh, ok := s.(*Sharded)
		if !ok {
			t.Fatalf("expected *Sharded, got %T", s)
		}
		if sh.Shards() != 1 || sh.limit != sh.capacity {
			t.Fatalf("%d options: %d shards with limit %d, want 1 shard with limit %d", len(opts), sh.Shards(), sh.limit, sh.capacity)
		}
	}
	// Requested counts round up to a power of two and cap at MaxShards.
	for _, tc := range []struct{ ask, want int }{{2, 2}, {3, 4}, {16, 16}, {33, 64}, {1000, MaxShards}} {
		s, err := New(1_000_000, NewLRU(), WithShards(tc.ask))
		if err != nil {
			t.Fatalf("WithShards(%d): %v", tc.ask, err)
		}
		sh, ok := s.(*Sharded)
		if !ok {
			t.Fatalf("WithShards(%d): got %T", tc.ask, s)
		}
		if sh.Shards() != tc.want {
			t.Fatalf("WithShards(%d) = %d shards, want %d", tc.ask, sh.Shards(), tc.want)
		}
	}
	// Auto (n = 0) must build a valid store whatever GOMAXPROCS is.
	s, err := New(1000, NewLRU(), WithShards(0))
	if err != nil {
		t.Fatalf("WithShards(0): %v", err)
	}
	if n := s.Shards(); n < 1 || n > MaxShards || n&(n-1) != 0 {
		t.Fatalf("auto store has %d shards", n)
	}
	// Every shard runs its own policy instance.
	s4, err := New(1000, NewLRU(), WithShards(4))
	if err != nil {
		t.Fatalf("WithShards(4): %v", err)
	}
	sh4 := s4.(*Sharded)
	for i := 1; i < len(sh4.shards); i++ {
		if sh4.shards[i].policy == sh4.shards[0].policy {
			t.Fatalf("shard %d shares shard 0's policy instance", i)
		}
	}
	// Invalid direct constructions are rejected.
	for _, n := range []int{0, 3, 2 * MaxShards} {
		if _, err := newSharded(1000, n, NewLRU()); err == nil {
			t.Fatalf("newSharded accepted shard count %d", n)
		}
	}
}

// TestShardDistributionUniformity hashes every (group-by, chunk) key an APB-1
// grid can produce and checks the spread over 16 shards: no stripe may be
// pathologically hot or cold, or the striped lock would degrade back to a
// global one.
func TestShardDistributionUniformity(t *testing.T) {
	for _, scale := range []apb.Scale{apb.ScaleTiny, apb.ScaleSmall} {
		cfg := apb.New(scale)
		g, err := chunk.NewGrid(cfg.Schema, cfg.ChunkCounts)
		if err != nil {
			t.Fatalf("NewGrid: %v", err)
		}
		s, err := New(1<<30, NewTwoLevel(), WithShards(16))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		c := s.(*Sharded)
		counts := make([]int, c.Shards())
		total := 0
		lat := g.Lattice()
		for gb := 0; gb < lat.NumNodes(); gb++ {
			for num := 0; num < g.NumChunks(lattice.ID(gb)); num++ {
				counts[c.shardIndex(Key{GB: lattice.ID(gb), Num: int32(num)})]++
				total++
			}
		}
		mean := float64(total) / float64(len(counts))
		for i, n := range counts {
			if float64(n) > 2*mean || float64(n) < mean/4 {
				t.Errorf("%v: shard %d holds %d of %d keys (mean %.1f)", scale, i, n, total, mean)
			}
		}
	}
}

// TestShardedBasics mirrors TestCacheBasics (which runs on the default
// one-shard store) on a 4-shard store: the Store surface must behave
// identically whatever the stripe count.
func TestShardedBasics(t *testing.T) {
	c := newSharded4(t, 100_000)
	for num := 0; num < 8; num++ {
		if !c.Insert(key(num), mkChunk(0, num, 10), AsBackend(100)) {
			t.Fatalf("insert %d denied", num)
		}
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d", c.Len())
	}
	if want := 8 * mkChunk(0, 0, 10).Bytes(); c.Used() != want {
		t.Fatalf("Used = %d, want %d", c.Used(), want)
	}
	if d, ok := c.Get(key(3)); !ok || d.Cells() != 10 {
		t.Fatalf("Get(3) = %v,%v", d, ok)
	}
	if _, ok := c.Get(key(99)); ok {
		t.Fatalf("Get(99) should miss")
	}
	if d, ok := c.Peek(key(5)); !ok || d.Cells() != 10 {
		t.Fatalf("Peek(5) = %v,%v", d, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if ks := c.Keys(nil); len(ks) != 8 {
		t.Fatalf("Keys = %v", ks)
	}
	var sum int64
	c.Range(func(_ Key, data *chunk.Chunk, _ Class, _ float64, _ bool) { sum += data.Bytes() })
	if sum != c.Used() {
		t.Fatalf("Range bytes %d != Used %d", sum, c.Used())
	}
	if !c.Evict(key(3)) || c.Evict(key(3)) {
		t.Fatalf("Evict misbehaved")
	}
	if st := c.Stats(); st.Removals != 1 || st.Evictions != 0 {
		t.Fatalf("admin evict stats = %+v", st)
	}
	if c.Len() != 7 {
		t.Fatalf("Len after evict = %d", c.Len())
	}
}

// TestShardedPinInterleavings exercises pin/evict/insert orderings on a
// 2-shard store, aiming keys at specific stripes.
func TestShardedPinInterleavings(t *testing.T) {
	// Capacity for 4 chunks of 304 bytes; per-shard limit is 912 (3 chunks).
	s, err := New(4*304, NewBenefitClock(), WithShards(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := s.(*Sharded)
	a1 := shardKey(c, 0, 0)
	a2 := shardKey(c, 0, int(a1.Num)+1)
	a3 := shardKey(c, 0, int(a2.Num)+1)
	a4 := shardKey(c, 0, int(a3.Num)+1)
	b1 := shardKey(c, 1, 0)

	mk := func(k Key) *chunk.Chunk { return mkChunk(int(k.GB), int(k.Num), 10) }
	c.Insert(a1, mk(a1), AsBackend(1))
	c.Insert(a2, mk(a2), AsBackend(1))
	c.Insert(a3, mk(a3), AsBackend(1))
	c.Insert(b1, mk(b1), AsBackend(1))
	if !c.Pin(a1) || !c.Pin(a2) || !c.Pin(a3) {
		t.Fatalf("Pin failed")
	}
	// Shard 0 is at its limit with every entry pinned: the insert must be
	// denied rather than evict a pinned chunk or touch shard 1.
	if c.Insert(a4, mk(a4), AsBackend(1)) {
		t.Fatalf("insert admitted with the whole shard pinned")
	}
	if !c.Contains(b1) {
		t.Fatalf("other shard's chunk was evicted")
	}
	c.Unpin(a2)
	if !c.Insert(a4, mk(a4), AsBackend(1)) {
		t.Fatalf("insert denied after unpin")
	}
	if c.Contains(a2) {
		t.Fatalf("unpinned chunk should have been the victim")
	}
	if !c.Contains(a1) || !c.Contains(a3) {
		t.Fatalf("pinned chunk evicted")
	}
	// Pinning a missing key fails; unpinning one is a no-op.
	if c.Pin(a2) {
		t.Fatalf("pinned a missing key")
	}
	c.Unpin(a2)
	// Administrative Evict overrides pins.
	if !c.Evict(a1) {
		t.Fatalf("admin evict of a pinned key failed")
	}
	c.Unpin(a3)
	if c.Used() > c.Capacity() {
		t.Fatalf("Used %d > Capacity %d", c.Used(), c.Capacity())
	}
}

// TestShardedCapacityBorrowing checks the borrow margin: one hot shard may
// charge up to 1.5× its even share, the global bound still holds, and when it
// binds the inserting shard evicts locally.
func TestShardedCapacityBorrowing(t *testing.T) {
	const chunkBytes = 304 // 10 cells
	s, err := New(4*chunkBytes, NewBenefitClock(), WithShards(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := s.(*Sharded)
	// Even share is 2 chunks; the margin lets a hot shard hold 3.
	hot := make([]Key, 4)
	hot[0] = shardKey(c, 0, 0)
	for i := 1; i < 4; i++ {
		hot[i] = shardKey(c, 0, int(hot[i-1].Num)+1)
	}
	for i := 0; i < 3; i++ {
		if !c.Insert(hot[i], mkChunk(0, int(hot[i].Num), 10), AsBackend(1)) {
			t.Fatalf("borrowing insert %d denied", i)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("hot shard could not borrow: Len = %d", c.Len())
	}
	if c.Used() <= c.Capacity()/2 {
		t.Fatalf("borrowing did not exceed the even share: Used = %d", c.Used())
	}
	// A fourth chunk exceeds the shard limit: evict locally, stay at 3.
	if !c.Insert(hot[3], mkChunk(0, int(hot[3].Num), 10), AsBackend(1)) {
		t.Fatalf("insert at the shard limit denied")
	}
	if c.Len() != 3 || !c.Contains(hot[3]) {
		t.Fatalf("local eviction failed: Len = %d", c.Len())
	}

	// Now make the global bound bind: the cold shard takes one chunk fine,
	// but a second forces it to evict locally (3 + 2 chunks > capacity 4).
	cold1 := shardKey(c, 1, 0)
	cold2 := shardKey(c, 1, int(cold1.Num)+1)
	if !c.Insert(cold1, mkChunk(0, int(cold1.Num), 10), AsBackend(1)) {
		t.Fatalf("cold insert denied")
	}
	if c.Used() != c.Capacity() {
		t.Fatalf("Used = %d, want full capacity %d", c.Used(), c.Capacity())
	}
	if !c.Insert(cold2, mkChunk(0, int(cold2.Num), 10), AsBackend(1)) {
		t.Fatalf("insert under a binding global bound denied")
	}
	if !c.Contains(cold2) || c.Contains(cold1) {
		t.Fatalf("global-bound eviction chose a remote victim")
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("Used %d > Capacity %d", c.Used(), c.Capacity())
	}

	// Edge: a chunk larger than the per-shard limit is denied even when the
	// global capacity could hold it — the stripe bound is the admission unit.
	s2, _ := New(1000, NewBenefitClock(), WithShards(2))
	c2 := s2.(*Sharded)
	big := mkChunk(0, 0, 30) // 784 bytes > 750 shard limit
	if c2.Insert(key(0), big, AsBackend(1)) {
		t.Fatalf("chunk above the shard limit admitted")
	}
	if c2.Stats().Denied != 1 {
		t.Fatalf("Denied = %d", c2.Stats().Denied)
	}

	// Degenerate: capacity below the shard count would give a zero per-shard
	// limit; the store falls back to the global bound only.
	s3, _ := New(50, NewBenefitClock(), WithShards(64))
	c3 := s3.(*Sharded)
	if c3.limit != c3.capacity {
		t.Fatalf("degenerate limit = %d, want the full capacity %d", c3.limit, c3.capacity)
	}
}

// TestShardedReinforceKeepsGroup is TestTwoLevelReinforceKeepsGroup aimed at
// one stripe of a sharded store: Reinforce's shard grouping must reach the
// policy instance that owns the keys, and missing keys are ignored.
func TestShardedReinforceKeepsGroup(t *testing.T) {
	s, err := New(4*304, NewTwoLevel(), WithShards(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := s.(*Sharded)
	k1 := shardKey(c, 0, 0)
	k2 := shardKey(c, 0, int(k1.Num)+1)
	k3 := shardKey(c, 0, int(k2.Num)+1)
	other := shardKey(c, 1, 0)
	c.Insert(k1, mkChunk(0, int(k1.Num), 10), AsComputed(1))
	c.Insert(k2, mkChunk(0, int(k2.Num), 10), AsComputed(1))
	c.Insert(k3, mkChunk(0, int(k3.Num), 10), AsComputed(1)) // shard full
	c.Reinforce([]Key{k1, k3, other, {GB: 9, Num: 9}}, 1e9)
	if !c.Insert(shardKey(c, 0, int(k3.Num)+1), mkChunk(0, 99, 10), AsComputed(1)) {
		t.Fatalf("insert denied")
	}
	if !c.Contains(k1) || !c.Contains(k3) {
		t.Fatalf("reinforced chunks were evicted")
	}
	if c.Contains(k2) {
		t.Fatalf("non-reinforced chunk should have been the victim")
	}
}

// storeModel is the reference for TestShardedEquivalence: a map of
// resident chunks plus their byte total, with no replacement policy. The
// replay runs with headroom, so a store under test never evicts and must
// match the model exactly.
type storeModel struct {
	chunks map[Key]*chunk.Chunk
	used   int64
	stats  Stats
}

func (m *storeModel) insert(k Key, data *chunk.Chunk) {
	if old, ok := m.chunks[k]; ok {
		m.used -= old.Bytes()
	} else {
		m.stats.Inserts++
	}
	m.chunks[k] = data
	m.used += data.Bytes()
}

func (m *storeModel) get(k Key) (*chunk.Chunk, bool) {
	d, ok := m.chunks[k]
	if ok {
		m.stats.Hits++
	} else {
		m.stats.Misses++
	}
	return d, ok
}

func (m *storeModel) evict(k Key) bool {
	d, ok := m.chunks[k]
	if ok {
		delete(m.chunks, k)
		m.used -= d.Bytes()
		m.stats.Removals++
	}
	return ok
}

// TestShardedEquivalence replays one deterministic operation sequence
// against the reference model and against 1- and 4-shard stores with
// headroom (no evictions), and requires identical observable state: the
// stripe count may only change victim choice, never residence semantics.
func TestShardedEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, err := New(1<<20, NewTwoLevel(), WithShards(shards))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		m := &storeModel{chunks: map[Key]*chunk.Chunk{}}
		rng := rand.New(rand.NewSource(42))
		for op := 0; op < 2000; op++ {
			num := rng.Intn(200)
			switch rng.Intn(6) {
			case 0, 1, 2:
				n := 1 + rng.Intn(20)
				opt := AsBackend
				if rng.Intn(2) == 1 {
					opt = AsComputed
				}
				if !s.Insert(key(num), mkChunk(0, num, n), opt(float64(rng.Intn(1000)))) {
					t.Fatalf("shards=%d op %d: insert denied with headroom", shards, op)
				}
				m.insert(key(num), mkChunk(0, num, n))
			case 3:
				d1, ok1 := m.get(key(num))
				d2, ok2 := s.Get(key(num))
				if ok1 != ok2 || (ok1 && d1.Cells() != d2.Cells()) {
					t.Fatalf("shards=%d op %d: Get(%d) differs", shards, op, num)
				}
			case 4:
				if m.evict(key(num)) != s.Evict(key(num)) {
					t.Fatalf("shards=%d op %d: Evict verdicts differ", shards, op)
				}
			case 5:
				s.Reinforce([]Key{key(num), key(rng.Intn(200))}, float64(rng.Intn(100)))
			}
		}
		if s.Len() != len(m.chunks) || s.Used() != m.used {
			t.Fatalf("shards=%d: state diverged: len %d/%d used %d/%d",
				shards, s.Len(), len(m.chunks), s.Used(), m.used)
		}
		if st := s.Stats(); st != m.stats {
			t.Fatalf("shards=%d: stats diverged: %+v vs model %+v", shards, st, m.stats)
		}
		for k, want := range m.chunks {
			if d, ok := s.Peek(k); !ok || d.Cells() != want.Cells() {
				t.Fatalf("shards=%d: key %v resident in the model but not the store", shards, k)
			}
		}
	}
}

// TestShardedConcurrentSoak hammers a small sharded store from 8 goroutines
// with every Store operation and checks the byte-accounting invariants at the
// end. Run under -race this is the tentpole's core validation.
func TestShardedConcurrentSoak(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		s, err := New(8_000, NewTwoLevel(), WithShards(shards))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				var pinned []Key
				for op := 0; op < 400; op++ {
					num := rng.Intn(40)
					switch rng.Intn(8) {
					case 0, 1, 2:
						opt := AsBackend
						if rng.Intn(2) == 1 {
							opt = AsComputed
						}
						s.Insert(key(num), mkChunk(0, num, 1+rng.Intn(12)), opt(float64(rng.Intn(1000))))
					case 3:
						s.Get(key(num))
					case 4:
						if s.Pin(key(num)) {
							pinned = append(pinned, key(num))
						}
					case 5:
						if len(pinned) > 0 {
							s.Unpin(pinned[len(pinned)-1])
							pinned = pinned[:len(pinned)-1]
						}
					case 6:
						s.Reinforce([]Key{key(num), key(rng.Intn(40))}, float64(rng.Intn(100)))
					case 7:
						s.Stats()
						s.Len()
						s.Used()
					}
					if u := s.Used(); u > s.Capacity() {
						t.Errorf("Used %d > Capacity %d", u, s.Capacity())
						return
					}
				}
				for _, k := range pinned {
					s.Unpin(k)
				}
			}(w)
		}
		wg.Wait()
		var sum int64
		n := 0
		s.Range(func(_ Key, data *chunk.Chunk, _ Class, _ float64, _ bool) {
			sum += data.Bytes()
			n++
		})
		if sum != s.Used() {
			t.Fatalf("shards=%d: Range bytes %d != Used %d", shards, sum, s.Used())
		}
		if n != s.Len() {
			t.Fatalf("shards=%d: Range count %d != Len %d", shards, n, s.Len())
		}
		if len(s.Keys(nil)) != n {
			t.Fatalf("shards=%d: Keys/Range disagree", shards)
		}
	}
}

// TestStoreStatsConcurrent reads Stats/Len while writers mutate the store, at
// one shard (the default) and at four. Regression for unsynchronized
// Stats()/Len() reads.
func TestStoreStatsConcurrent(t *testing.T) {
	stores := map[string]Store{}
	s1, _ := New(8_000, NewTwoLevel(), WithShards(1))
	s2, _ := New(8_000, NewTwoLevel(), WithShards(4))
	stores["single"], stores["sharded"] = s1, s2
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 500; i++ {
						num := rng.Intn(30)
						s.Insert(key(num), mkChunk(0, num, 1+rng.Intn(10)), AsBackend(1))
						s.Get(key(rng.Intn(30)))
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			// Read the counters from this goroutine while the writers run.
			for alive := true; alive; {
				select {
				case <-done:
					alive = false
				default:
				}
				st := s.Stats()
				if st.Hits < 0 || st.Inserts < 0 || s.Len() < 0 {
					t.Fatalf("impossible counters: %+v", st)
				}
			}
			if st := s.Stats(); st.Inserts == 0 {
				t.Fatalf("no inserts recorded: %+v", st)
			}
		})
	}
}
