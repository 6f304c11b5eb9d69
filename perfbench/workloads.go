package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/workload"
)

// spec is one named workload: the server configuration it runs against and
// the query streams its sessions issue; README.md gives the reasons for
// each. Sizes are fractions of the base table's footprint in cache terms, so
// "fits" and "does not fit" stay true whatever the generated row count.
type spec struct {
	name string
	// hotFrac and coldFrac size the hot store and the compressed cold tier
	// (0 = no cold tier) as multiples of the base table bytes.
	hotFrac, coldFrac float64
	// preload fills the hot store with the best-fitting group-by before
	// serving, as aggcached -preload does.
	preload bool
	// sessions is the number of closed-loop sessions; 0 means one per CPU.
	sessions int
	// warmup is the number of queries each session issues before the
	// measured window opens.
	warmup int
	// mix drives the per-session paper-style walk; zipfPool > 0 replaces it
	// with a shared Zipf(zipfS) draw over zipfPool distinct queries.
	mix      workload.Mix
	zipfPool int
	zipfS    float64
}

// regionWidth bounds generated query regions in chunks per dimension, the
// repository's default (bench.Config.MaxQueryWidth).
const regionWidth = 2

var specs = []spec{
	{
		name:    "rollup-warm",
		hotFrac: 1.5,
		preload: true,
		warmup:  500,
		mix:     workload.DefaultMix,
	},
	{
		name:     "drill-churn",
		hotFrac:  0.15,
		coldFrac: 0.3,
		sessions: 1,
		warmup:   1000,
		mix:      workload.Mix{DrillDown: 0.6, Proximity: 0.1, Random: 0.3},
	},
	{
		name:     "dashboard-repeat",
		hotFrac:  1.0,
		warmup:   1000,
		zipfPool: 128,
		zipfS:    1.1,
	},
}

func lookupSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// numSessions resolves the session count of a multi-session workload.
func (s spec) numSessions() int {
	if s.sessions > 0 {
		return s.sessions
	}
	return runtime.NumCPU()
}

// stream is one session's query sequence. next returns the mdq text the
// server receives and the region it was rendered from, which the oracle
// answers independently of the mdq front end.
type stream interface {
	next() (string, core.Query)
}

// walkStream is a paper-mix random walk through the lattice.
type walkStream struct {
	grid *chunk.Grid
	gen  *workload.Generator
}

func (w *walkStream) next() (string, core.Query) {
	q, _ := w.gen.Next()
	return workload.FormatQuery(w.grid, q), q
}

// zipfDraws is a Zipf popularity sequence over a fixed query pool, drawn
// once from workload.NewZipf so every session shares one pool. Each session
// reads the sequence from its own seed-derived offset, so its stream does not
// depend on timing.
type zipfDraws struct {
	text  []string
	query []core.Query
	seq   []uint16
}

// zipfSeqLen bounds the pre-drawn sequence; sessions wrap around past it.
const zipfSeqLen = 1 << 17

func newZipfDraws(g *chunk.Grid, pool int, s float64, seed int64) (*zipfDraws, error) {
	src, err := workload.NewZipf(g, pool, s, seed)
	if err != nil {
		return nil, err
	}
	z := &zipfDraws{seq: make([]uint16, zipfSeqLen)}
	index := make(map[string]uint16, pool)
	for i := range z.seq {
		q := src.Next()
		text := workload.FormatQuery(g, q)
		idx, ok := index[text]
		if !ok {
			idx = uint16(len(z.text))
			index[text] = idx
			z.text = append(z.text, text)
			z.query = append(z.query, q)
		}
		z.seq[i] = idx
	}
	return z, nil
}

type zipfStream struct {
	z   *zipfDraws
	pos int
}

func (s *zipfStream) next() (string, core.Query) {
	i := s.z.seq[s.pos%len(s.z.seq)]
	s.pos++
	return s.z.text[i], s.z.query[i]
}

// dashboardSeed fixes the dashboard: which 128 queries it holds and how
// popular each is. Which queries are hot decides most of the workload's cost,
// so a seed-drawn pool would make runs incomparable; the run seed varies the
// data and where in the request sequence each session starts.
const dashboardSeed = 1

// sessionSeed derives session i's walk seed from the run seed.
func sessionSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 1 }

// streamFactory builds fresh session streams; calling it twice with the same
// arguments yields identical sequences, which the oracle and the traced
// replay rely on.
type streamFactory func(session, sessions int) (stream, error)

func (s spec) streams(g *chunk.Grid, seed int64) (streamFactory, error) {
	if s.zipfPool > 0 {
		z, err := newZipfDraws(g, s.zipfPool, s.zipfS, dashboardSeed)
		if err != nil {
			return nil, err
		}
		return func(session, _ int) (stream, error) {
			start := rand.New(rand.NewSource(sessionSeed(seed, session))).Intn(len(z.seq))
			return &zipfStream{z: z, pos: start}, nil
		}, nil
	}
	return func(session, _ int) (stream, error) {
		gen, err := workload.NewGenerator(g, s.mix, regionWidth, sessionSeed(seed, session))
		if err != nil {
			return nil, err
		}
		return &walkStream{grid: g, gen: gen}, nil
	}, nil
}

// dataSeed derives the fact-table seed from the run seed, so a seed fixes
// both the data and the query streams.
func dataSeed(seed int64) int64 { return rand.New(rand.NewSource(seed)).Int63() }
