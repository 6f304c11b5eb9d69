package main

import (
	"context"
	"fmt"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/mtier"
	"aggcache/internal/sizer"
	"aggcache/internal/strategy"
)

// scale is the dataset every workload runs on.
const scale = apb.ScaleMedium

// system is one served middle tier: the engine behind an mtier.Server on a
// loopback port.
type system struct {
	grid   *chunk.Grid
	engine *core.Engine
	server *mtier.Server
	addr   string
	// baseBytes is the base table's footprint in cache terms; hotBytes and
	// coldBytes are the configured store sizes.
	baseBytes, hotBytes, coldBytes int64
	rows                           int
	preloaded                      string
}

func (s *system) close() error { return s.server.Close() }

// wrappers lets the traced run decorate the layer interfaces core.New
// accepts; nil fields leave a layer undecorated.
type wrappers struct {
	backend  func(backend.Backend) backend.Backend
	strategy func(strategy.Strategy) strategy.Strategy
	store    func(cache.Store) cache.Store
}

// newSystem assembles the middle tier the way cmd/aggcached does with its
// default flags — VCMC, the two-level promote policy, recycling on, a
// 256-entry result cache, a single-lock store, an in-process backend behind
// a circuit breaker — differing only in the workload's store sizes, cold
// tier and preload. The backend's latency model does not sleep, so every
// millisecond measured is CPU the program spent. It returns the elapsed
// set-up time: data generation through the server accepting queries.
func newSystem(w spec, seed int64, wr wrappers) (*system, time.Duration, error) {
	start := time.Now()
	grid, tab, err := apb.New(scale).Build(dataSeed(seed))
	if err != nil {
		return nil, 0, err
	}
	be, err := backend.NewEngine(grid, tab, backend.DefaultLatency)
	if err != nil {
		return nil, 0, err
	}
	var b backend.Backend = be
	if wr.backend != nil {
		b = wr.backend(b)
	}
	// Inside the breaker, so the engine still finds the breaker's State.
	b = backend.NewBreaker(b, backend.BreakerConfig{FailureThreshold: 5, Cooldown: 2 * time.Second})

	sys := &system{grid: grid, rows: tab.Len()}
	sys.baseBytes = int64(tab.Len())*chunk.CellBytes +
		int64(grid.NumChunks(grid.Lattice().Base()))*chunk.OverheadBytes
	sys.hotBytes = int64(w.hotFrac * float64(sys.baseBytes))
	sys.coldBytes = int64(w.coldFrac * float64(sys.baseBytes))

	sz := sizer.NewEstimate(grid, int64(tab.Len()))
	var strat strategy.Strategy = strategy.NewVCMC(grid, sz)
	if wr.strategy != nil {
		strat = wr.strategy(strat)
	}
	st, err := cache.New(sys.hotBytes, cache.NewTwoLevelPromote())
	if err != nil {
		return nil, 0, err
	}
	if sys.coldBytes > 0 {
		if st, err = cache.NewTiered(st, sys.coldBytes); err != nil {
			return nil, 0, err
		}
	}
	if wr.store != nil {
		st = wr.store(st)
	}
	eng, err := core.New(grid, st, strat, b, sz,
		core.WithCostBypass(false),
		core.WithRecycling(true),
		core.WithRecycleMinBenefit(core.DefaultRecycleMinBenefit),
		core.WithResultCache(256),
	)
	if err != nil {
		return nil, 0, err
	}
	if w.preload {
		gb, ok, err := eng.Preload(context.Background())
		if err != nil {
			return nil, 0, err
		}
		if ok {
			sys.preloaded = grid.Lattice().LevelTupleString(gb)
		}
	}
	srv := mtier.NewServer(eng) // mtier.DefaultTimeouts, as aggcached's flag defaults
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	sys.engine, sys.server, sys.addr = eng, srv, addr
	return sys, time.Since(start), nil
}
