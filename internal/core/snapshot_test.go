package core

import (
	"bytes"
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aggcache/internal/cache"
	"aggcache/internal/chunk"
)

func TestSaveLoadCacheWarmRestart(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	if _, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if _, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Top())); err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	var buf bytes.Buffer
	if err := f.engine.SaveCache(&buf); err != nil {
		t.Fatalf("SaveCache: %v", err)
	}
	saved := f.engine.Cache().Len()

	// A fresh engine over the same dataset restarts warm.
	f2 := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	admitted, err := f2.engine.LoadCache(&buf)
	if err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	if admitted != saved {
		t.Fatalf("admitted %d, want %d", admitted, saved)
	}
	// Queries that were complete hits before are complete hits again, with
	// the strategy's counts maintained through the reload.
	res, err := f2.engine.Execute(context.Background(), WholeGroupBy(lat.Top()))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.CompleteHit {
		t.Fatalf("warm restart lost the cache")
	}
	assertMatchesOracle(t, f2, WholeGroupBy(lat.Top()), res)
	// A roll-up not previously materialized is still computable (counts
	// were rebuilt by the listener during reload).
	res, err = f2.engine.Execute(context.Background(), WholeGroupBy(lat.MustID(1, 1, 0)))
	if err != nil || !res.CompleteHit {
		t.Fatalf("derived roll-up missed after restart: %v %+v", err, res)
	}
}

func TestLoadCacheSmallerCache(t *testing.T) {
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	lat := f.grid.Lattice()
	if _, err := f.engine.Execute(context.Background(), WholeGroupBy(lat.Base())); err != nil {
		t.Fatalf("warm: %v", err)
	}
	var buf bytes.Buffer
	if err := f.engine.SaveCache(&buf); err != nil {
		t.Fatalf("SaveCache: %v", err)
	}
	// A much smaller cache admits only part of the snapshot, without error.
	f2 := build(t, "VCMC", cache.NewTwoLevel(), 2_000)
	if _, err := f2.engine.LoadCache(&buf); err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	// Admissions may churn (later inserts evicting earlier ones), but the
	// cache must end up holding fewer chunks than the snapshot and stay
	// within capacity.
	if f2.engine.Cache().Len() >= f.engine.Cache().Len() {
		t.Fatalf("small cache retained everything (%d)", f2.engine.Cache().Len())
	}
	if f2.engine.Cache().Used() > f2.engine.Cache().Capacity() {
		t.Fatalf("over capacity after load")
	}
}

func TestLoadCacheRejectsGarbage(t *testing.T) {
	f := build(t, "VCM", cache.NewTwoLevel(), 1<<20)
	if _, err := f.engine.LoadCache(strings.NewReader("junk")); err == nil {
		t.Fatalf("junk: expected error")
	}
	var buf bytes.Buffer
	if err := f.engine.SaveCache(&buf); err != nil {
		t.Fatalf("SaveCache: %v", err)
	}
	// Valid stream, wrong magic: flip some bytes in the magic region.
	data := buf.Bytes()
	idx := bytes.Index(data, []byte("aggcache-snapshot"))
	if idx < 0 {
		t.Skip("magic not found in gob stream")
	}
	data[idx] = 'x'
	if _, err := f.engine.LoadCache(bytes.NewReader(data)); err == nil {
		t.Fatalf("bad magic: expected error")
	}
}

// TestLoadCacheRejectsKeyPastCapacity feeds both load paths a snapshot whose
// base chunk carries one extra cell past the chunk's capacity. The record
// must be refused: admitted, its value would decode into another chunk's
// cell and be summed into every roll-up of the base.
func TestLoadCacheRejectsKeyPastCapacity(t *testing.T) {
	ctx := context.Background()
	f := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
	base := f.grid.Lattice().Base()
	if _, err := f.engine.Execute(ctx, WholeGroupBy(base)); err != nil {
		t.Fatalf("warm: %v", err)
	}
	k := cache.Key{GB: base, Num: 0}
	good, ok := f.engine.Cache().Peek(k)
	if !ok {
		t.Fatalf("base chunk 0 not cached")
	}
	bad := &chunk.Chunk{
		GB:   good.GB,
		Num:  good.Num,
		Keys: append(slices.Clone(good.Keys), uint64(f.grid.CellCapacity(base, 0))),
		Vals: append(slices.Clone(good.Vals), 1e6),
	}
	if good.Counts != nil {
		bad.Counts = append(slices.Clone(good.Counts), 1)
	}
	src, err := cache.New(1<<20, cache.NewTwoLevel())
	if err != nil {
		t.Fatalf("cache.New: %v", err)
	}
	src.Insert(k, bad, cache.AsBackend(1))
	path := filepath.Join(t.TempDir(), "poisoned.snap")
	if _, err := cache.SaveSnapshotFile(path, src); err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	var buf bytes.Buffer
	if _, err := cache.WriteSnapshot(&buf, src); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	loads := map[string]func(*Engine) (int, error){
		"reader": func(e *Engine) (int, error) { return e.LoadCache(bytes.NewReader(buf.Bytes())) },
		"file":   func(e *Engine) (int, error) { return e.LoadCacheFile(path) },
	}
	for name, load := range loads {
		f2 := build(t, "VCMC", cache.NewTwoLevel(), 1<<20)
		if n, err := load(f2.engine); err == nil {
			t.Fatalf("%s: admitted %d chunks with a cell key past capacity", name, n)
		}
		if f2.engine.Cache().Contains(k) {
			t.Fatalf("%s: poisoned chunk resident after a refused load", name)
		}
		res, err := f2.engine.Execute(ctx, WholeGroupBy(base))
		if err != nil {
			t.Fatalf("%s: Execute: %v", name, err)
		}
		assertMatchesOracle(t, f2, WholeGroupBy(base), res)
	}
}
