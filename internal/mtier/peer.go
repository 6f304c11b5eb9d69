package mtier

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/lattice"
	"aggcache/internal/wire"
)

// Frame types of the peer cache protocol. Peers ride the same listener,
// framing layer and mux as client queries — a cluster member is just another
// pipelined client of its neighbor, with two extra request types:
//
//	PeerGet   0x20 → PeerChunk 0xA0   ask the owner for one chunk
//	PeerPut   0x21 → PeerAck   0xA1   replicate a backend fill to the owner
//	                 PeerErr   0xE1   in-band failure for either request
//
// A PeerGet miss is an authoritative answer (found=0), never an error: the
// owner does not consult its own backend on a peer's behalf — only the
// querying node charges a backend trip, so a chunk resident nowhere costs
// the cluster exactly one fetch.
const (
	framePeerGet   uint8 = 0x20
	framePeerPut   uint8 = 0x21
	framePeerChunk uint8 = 0xA0
	framePeerAck   uint8 = 0xA1
	framePeerErr   uint8 = 0xE1
)

// encodePeerGet appends a framePeerGet payload: gb u32 | num u32.
func encodePeerGet(b []byte, k cache.Key) []byte {
	b = wire.AppendU32(b, uint32(k.GB))
	b = wire.AppendU32(b, uint32(k.Num))
	return b
}

// decodePeerGet parses a framePeerGet payload.
func decodePeerGet(p []byte) (cache.Key, error) {
	d := wire.NewDec(p)
	k := cache.Key{GB: lattice.ID(d.U32()), Num: int32(d.U32())}
	if d.Err() != nil || d.Remaining() != 0 {
		return cache.Key{}, errors.New("mtier: malformed peer get payload")
	}
	return k, nil
}

// encodePeerChunk appends a framePeerChunk payload:
// found u8 | class u8 | benefit f64 | chunk slab (present only when found).
func encodePeerChunk(b []byte, data *chunk.Chunk, cl cache.Class, benefit float64, found bool) []byte {
	if !found {
		return wire.AppendU8(b, 0)
	}
	b = wire.AppendU8(b, 1)
	b = wire.AppendU8(b, uint8(cl))
	b = wire.AppendF64(b, benefit)
	return wire.AppendChunk(b, data)
}

// decodePeerChunk parses a framePeerChunk payload.
func decodePeerChunk(p []byte) (data *chunk.Chunk, cl cache.Class, benefit float64, found bool, err error) {
	bad := errors.New("mtier: malformed peer chunk payload")
	d := wire.NewDec(p)
	switch d.U8() {
	case 0:
		if d.Err() != nil || d.Remaining() != 0 {
			return nil, 0, 0, false, bad
		}
		return nil, 0, 0, false, nil
	case 1:
	default:
		return nil, 0, 0, false, bad
	}
	c := d.U8()
	benefit = d.F64()
	data = d.Chunk()
	if data == nil || d.Err() != nil || d.Remaining() != 0 || c > uint8(cache.ClassComputed) {
		return nil, 0, 0, false, bad
	}
	return data, cache.Class(c), benefit, true, nil
}

// encodePeerPut appends a framePeerPut payload:
// gb u32 | num u32 | class u8 | benefit f64 | chunk slab.
func encodePeerPut(b []byte, k cache.Key, data *chunk.Chunk, cl cache.Class, benefit float64) []byte {
	b = wire.AppendU32(b, uint32(k.GB))
	b = wire.AppendU32(b, uint32(k.Num))
	b = wire.AppendU8(b, uint8(cl))
	b = wire.AppendF64(b, benefit)
	return wire.AppendChunk(b, data)
}

// decodePeerPut parses a framePeerPut payload.
func decodePeerPut(p []byte) (k cache.Key, data *chunk.Chunk, cl cache.Class, benefit float64, err error) {
	bad := errors.New("mtier: malformed peer put payload")
	d := wire.NewDec(p)
	k = cache.Key{GB: lattice.ID(d.U32()), Num: int32(d.U32())}
	c := d.U8()
	benefit = d.F64()
	data = d.Chunk()
	if data == nil || d.Err() != nil || d.Remaining() != 0 || c > uint8(cache.ClassComputed) {
		return cache.Key{}, nil, 0, 0, bad
	}
	return k, data, cache.Class(c), benefit, nil
}

// encodePeerAck appends a framePeerAck payload: stored u8.
func encodePeerAck(b []byte, stored bool) []byte {
	v := uint8(0)
	if stored {
		v = 1
	}
	return wire.AppendU8(b, v)
}

// decodePeerAck parses a framePeerAck payload.
func decodePeerAck(p []byte) (stored bool, err error) {
	d := wire.NewDec(p)
	v := d.U8()
	if d.Err() != nil || d.Remaining() != 0 || v > 1 {
		return false, errors.New("mtier: malformed peer ack payload")
	}
	return v == 1, nil
}

// peerErrFrame builds an in-band peer error reply; transient failures carry
// wire.FlagTransient so the caller's breaker taxonomy sees them as such.
func peerErrFrame(msg string, transient bool) wire.Frame {
	fr := wire.Frame{Type: framePeerErr, Payload: wire.AppendString(nil, msg)}
	if transient {
		fr.Flags = wire.FlagTransient
	}
	return fr
}

// peerStore returns the store peer requests should be served from: the local
// hot tier when the engine's store is a Peered (never the peer tier itself —
// answering a peer from another peer would let a chunk resident nowhere
// bounce around the ring), otherwise the store as-is.
func (s *Server) peerStore() cache.Store {
	st := s.engine.Cache()
	if p, ok := st.(interface{ Local() cache.Store }); ok {
		return p.Local()
	}
	return st
}

// handlePeerGet answers a peer's chunk lookup from the local tier.
func (s *Server) handlePeerGet(fr *wire.Frame) wire.Frame {
	k, err := decodePeerGet(fr.Payload)
	if err != nil {
		return peerErrFrame(err.Error(), false)
	}
	// A malformed or hostile key or payload must not poison the cache.
	if err := s.grid.CheckChunk(k.GB, k.Num, nil); err != nil {
		return peerErrFrame("mtier: peer get: "+err.Error(), false)
	}
	data, cl, benefit, found := s.peerStore().GetInfo(k)
	return wire.Frame{Type: framePeerChunk, Payload: encodePeerChunk(nil, data, cl, benefit, found)}
}

// handlePeerPut stores a peer-replicated chunk in the local tier. The
// replica is inserted with computed-class residency whatever class the
// sender fetched it under: it is a second copy the cluster can re-obtain
// cheaply (the origin node has it, and the backend always does), so it must
// never displace the chunks this node's own clients keep hot — the owner
// holds its partition in spare capacity, opportunistically. The benefit
// still travels with the replica, so within the computed ring the most
// expensive chunks survive longest.
func (s *Server) handlePeerPut(fr *wire.Frame) wire.Frame {
	k, data, _, benefit, err := decodePeerPut(fr.Payload)
	if err != nil {
		return peerErrFrame(err.Error(), false)
	}
	if err := s.grid.CheckChunk(k.GB, k.Num, data); err != nil {
		return peerErrFrame("mtier: peer put: "+err.Error(), false)
	}
	stored := s.peerStore().Insert(k, data, cache.AsComputed(benefit))
	return wire.Frame{Type: framePeerAck, Payload: encodePeerAck(nil, stored)}
}

// errPeerClosed is the permanent error after PeerClient.Close.
var errPeerClosed = errors.New("mtier: peer client is closed")

// DefaultPeerIOTimeout bounds one peer exchange when the caller's context
// carries no earlier deadline (the Peered store always supplies one).
const DefaultPeerIOTimeout = 2 * time.Second

// PeerClient is the cache.Peer implementation over the middle-tier wire
// protocol: one lazily-dialed multiplexed connection per peer, shared by
// concurrent fills and puts. There is no retry loop here — the Peered
// store's per-peer breaker owns failure policy, so one failed exchange
// reports immediately (marked transient when a fresh connection might cure
// it) and the broken connection is dropped for the next exchange to redial.
type PeerClient struct {
	addr    string
	maxPay  int
	dialTmo time.Duration

	closed atomic.Bool

	mu  sync.Mutex // guards mux swaps only, never held across I/O
	mux *wire.Mux
}

// NewPeerClient returns a lazily-connecting peer client. maxPayload bounds
// response frames (0 means wire.DefaultMaxPayload); the peer need not be
// reachable yet.
func NewPeerClient(addr string, maxPayload int) *PeerClient {
	return &PeerClient{addr: addr, maxPay: maxPayload, dialTmo: 2 * time.Second}
}

// getMux returns the live multiplexed connection, dialing if needed.
func (c *PeerClient) getMux(ctx context.Context) (*wire.Mux, error) {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return nil, errPeerClosed
	}
	if m := c.mux; m != nil && m.Healthy() {
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.dialTmo}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, backend.MarkTransient(err)
	}
	m := wire.NewMux(conn, c.maxPay, wire.Metrics{})
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		m.Close()
		return nil, errPeerClosed
	}
	if cur := c.mux; cur != nil && cur.Healthy() {
		c.mu.Unlock()
		m.Close()
		return cur, nil
	}
	old := c.mux
	c.mux = m
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return m, nil
}

// dropMux discards a connection whose stream failed, if still current.
func (c *PeerClient) dropMux(m *wire.Mux) {
	c.mu.Lock()
	if c.mux == m {
		c.mux = nil
	}
	c.mu.Unlock()
	m.Close()
}

// exchange performs one peer round trip with the PR-3 error taxonomy:
// wire-level failures are transient (and tear the connection down), in-band
// PeerErr frames become RemoteError transient-or-not per the frame flag.
func (c *PeerClient) exchange(ctx context.Context, typ uint8, payload []byte) (*wire.Frame, error) {
	m, err := c.getMux(ctx)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(DefaultPeerIOTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	fr, err := m.RoundTrip(ctx, typ, 0, payload, deadline)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if errors.Is(err, wire.ErrClosed) {
			return nil, errPeerClosed
		}
		c.dropMux(m)
		return nil, backend.MarkTransient(fmt.Errorf("mtier: peer exchange: %w", err))
	}
	if fr.Type == wire.FrameBusy {
		// A shedding peer is transient, not a protocol violation: the fill
		// falls back to the backend and the put is dropped, both by design.
		return nil, wire.DecodeBusy(fr.Payload)
	}
	if fr.Type == framePeerErr {
		d := wire.NewDec(fr.Payload)
		rerr := &backend.RemoteError{Msg: d.String()}
		if fr.Flags&wire.FlagTransient != 0 {
			return nil, backend.MarkTransient(rerr)
		}
		return nil, rerr
	}
	return &fr, nil
}

// Get implements cache.Peer.
func (c *PeerClient) Get(ctx context.Context, k cache.Key) (*chunk.Chunk, cache.Class, float64, bool, error) {
	fr, err := c.exchange(ctx, framePeerGet, encodePeerGet(nil, k))
	if err != nil {
		return nil, 0, 0, false, err
	}
	if fr.Type != framePeerChunk {
		return nil, 0, 0, false, fmt.Errorf("mtier: peer get: unexpected frame type 0x%02x", fr.Type)
	}
	return decodePeerChunk(fr.Payload)
}

// Put implements cache.Peer.
func (c *PeerClient) Put(ctx context.Context, k cache.Key, data *chunk.Chunk, cl cache.Class, benefit float64) error {
	fr, err := c.exchange(ctx, framePeerPut, encodePeerPut(nil, k, data, cl, benefit))
	if err != nil {
		return err
	}
	if fr.Type != framePeerAck {
		return fmt.Errorf("mtier: peer put: unexpected frame type 0x%02x", fr.Type)
	}
	// A denied insert (owner declined admission) is not a peer failure; the
	// ack only needs to be well-formed.
	_, err = decodePeerAck(fr.Payload)
	return err
}

// Close implements cache.Peer.
func (c *PeerClient) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	m := c.mux
	c.mux = nil
	c.mu.Unlock()
	if m != nil {
		m.Close()
	}
	return nil
}
