package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/obs"
)

// BreakerState is the circuit breaker's current disposition.
type BreakerState int32

// Breaker states. The gauge on /metrics exports these ordinals.
const (
	// BreakerClosed: requests flow to the backend normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooldown elapsed; one probe request is allowed
	// through to test recovery while everything else still fails fast.
	BreakerHalfOpen
	// BreakerOpen: the backend is presumed down; every request fails fast
	// with ErrUnavailable until the cooldown elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// BreakerConfig tunes a circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the run of consecutive outage-class failures
	// (see countsAsOutage) that opens the breaker. Default 5.
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe. Default 2s.
	Cooldown time.Duration

	// now is a test hook; nil means time.Now.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Circuit is the one closed/half-open/open state machine of the system: the
// Breaker below wraps a Backend with it, and the cluster cache tier keeps one
// per peer. A run of outage-class failures opens it, and while open Admit
// fails fast with ErrUnavailable instead of waiting out dial timeouts and
// retry budgets. After the cooldown a single probe is let through; its
// success closes the circuit, its failure re-opens it. Permanent per-request
// errors and Busy sheds (the far side answered) reset the failure run;
// caller cancellation is neutral — only availability failures open it.
type Circuit struct {
	cfg BreakerConfig
	met obs.BreakerMetrics

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewCircuit returns a closed circuit recording into met.
func NewCircuit(cfg BreakerConfig, met obs.BreakerMetrics) *Circuit {
	c := &Circuit{cfg: cfg.withDefaults()}
	c.SetMetrics(met)
	return c
}

// SetMetrics attaches live observability metrics. Call it before the first
// request; it is not synchronized with requests in flight.
func (c *Circuit) SetMetrics(m obs.BreakerMetrics) {
	c.met = m
	c.met.State.Set(int64(c.State()))
}

// State returns the circuit's current state.
func (c *Circuit) State() BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateLocked()
}

// stateLocked folds the cooldown expiry into the reported state so readers
// (health checks, the engine's degraded-mode accounting) see half-open as
// soon as a probe would be admitted.
func (c *Circuit) stateLocked() BreakerState {
	if c.state == BreakerOpen && c.cfg.now().Sub(c.openedAt) >= c.cfg.Cooldown {
		return BreakerHalfOpen
	}
	return c.state
}

// Admit decides one request's fate: proceed (probe reports whether it is
// the half-open probe) or fail fast with ErrUnavailable. Every admitted
// request must report its outcome with Done.
func (c *Circuit) Admit() (probe bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.stateLocked() {
	case BreakerClosed:
		return false, nil
	case BreakerHalfOpen:
		if c.state == BreakerOpen {
			// Cooldown just elapsed: materialize the half-open transition.
			c.state = BreakerHalfOpen
			c.met.State.Set(int64(BreakerHalfOpen))
		}
		if !c.probing {
			c.probing = true
			c.met.Probes.Inc()
			return true, nil
		}
		err = fmt.Errorf("backend: circuit half-open, probe in flight: %w", ErrUnavailable)
	default: // BreakerOpen
		err = fmt.Errorf("backend: circuit open: %w", ErrUnavailable)
	}
	c.met.FastFails.Inc()
	return false, err
}

// Done folds one admitted request's outcome back into the circuit.
func (c *Circuit) Done(probe bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if probe {
		c.probing = false
	}
	if countsAsOutage(err) {
		c.failures++
		if c.state == BreakerHalfOpen || (c.state == BreakerClosed && c.failures >= c.cfg.FailureThreshold) {
			c.state = BreakerOpen
			c.openedAt = c.cfg.now()
			c.probing = false
			c.met.Opens.Inc()
			c.met.State.Set(int64(BreakerOpen))
		} else if c.state == BreakerOpen {
			// A failure while open (a probe raced the cooldown) restarts it.
			c.openedAt = c.cfg.now()
		}
		return
	}
	if err != nil && errors.Is(err, context.Canceled) {
		// The caller gave up; says nothing about availability either way.
		return
	}
	// Success — or a permanent per-request error, which still proves the
	// far side is reachable and answering. One good probe closes the circuit.
	c.failures = 0
	if c.state == BreakerHalfOpen {
		c.state = BreakerClosed
		c.met.State.Set(int64(BreakerClosed))
	}
}

// Breaker wraps a Backend with a Circuit, so an unreachable backend costs a
// fast ErrUnavailable rather than a full retry budget per request.
type Breaker struct {
	*Circuit
	inner Backend
}

// NewBreaker wraps inner with a circuit breaker.
func NewBreaker(inner Backend, cfg BreakerConfig) *Breaker {
	return &Breaker{Circuit: NewCircuit(cfg, obs.BreakerMetrics{}), inner: inner}
}

// ComputeChunks implements Backend through the breaker.
func (b *Breaker) ComputeChunks(ctx context.Context, gb lattice.ID, nums []int) ([]*chunk.Chunk, Stats, error) {
	probe, err := b.Admit()
	if err != nil {
		return nil, Stats{}, err
	}
	chunks, stats, err := b.inner.ComputeChunks(ctx, gb, nums)
	b.Done(probe, err)
	return chunks, stats, err
}

// EstimateScan implements Backend through the breaker.
func (b *Breaker) EstimateScan(ctx context.Context, gb lattice.ID, nums []int) (int64, error) {
	probe, err := b.Admit()
	if err != nil {
		return 0, err
	}
	est, err := b.inner.EstimateScan(ctx, gb, nums)
	b.Done(probe, err)
	return est, err
}

// EstimateScans implements Backend through the breaker.
func (b *Breaker) EstimateScans(ctx context.Context, gb lattice.ID, nums []int) ([]int64, error) {
	probe, err := b.Admit()
	if err != nil {
		return nil, err
	}
	ests, err := b.inner.EstimateScans(ctx, gb, nums)
	b.Done(probe, err)
	return ests, err
}

// Close implements Backend.
func (b *Breaker) Close() error { return b.inner.Close() }
