# Standard targets; `make ci` is what the checks run.

GO ?= go

.PHONY: build test vet race perfbench-test bench bench-kernel bench-shards bench-cluster bench-overload bench-recycle bench-tiered soak-shards soak-cluster soak-overload soak-tiered fuzz-wire fuzz-peer fuzz-codec fmt lint cover chaos ci FORCE

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# perfbench-test runs the wall-clock benchmark's self-tests under the race
# detector. perfbench is a module of its own, so `go test ./...` at the root
# never reaches it.
perfbench-test:
	$(GO) -C perfbench test -race ./...

bench:
	$(GO) test -bench . -benchtime 100x -run XXX .

# bench-kernel runs the aggregation-kernel micro-benchmarks with allocation
# reporting and the machine-readable kernel experiment (writes BENCH_4.json).
bench-kernel:
	$(GO) test ./internal/chunk -run XXX -bench 'RollUpInto|CellMapBuild|GridSlice' -benchmem -benchtime 20000x | tee kernel_bench.txt
	$(GO) run ./cmd/aggbench -scale small -exp kernel

# bench-shards measures cache-lock scaling across 1/4/16 shards and
# 1/4/8 concurrent clients (writes BENCH_5.json).
bench-shards:
	$(GO) run ./cmd/aggbench -scale small -exp shards

# bench-cluster sweeps the distributed cache tier from 1 to 4 cooperating
# nodes on the proximity-heavy mix (writes BENCH_7.json).
bench-cluster:
	$(GO) run ./cmd/aggbench -scale small -exp cluster

# bench-overload sweeps offered load past the admission controller's
# measured capacity and demonstrates tenant-quota fairness (writes
# BENCH_8.json; CI gates goodput at 2× overload ≥ 80% of capacity).
bench-overload:
	$(GO) run ./cmd/aggbench -scale tiny -exp overload

# bench-recycle compares benefit-driven recycling of intermediate aggregates
# + the semantic result cache against the plain engine on drill/jump and
# proximity mixes (writes BENCH_9.json; CI gates the drill-mix qps and hit
# rate with recycling on >= off and no proximity regression).
bench-recycle:
	$(GO) run ./cmd/aggbench -scale medium -exp recycle -queries 200

# bench-tiered measures the tiered store against the flat store at equal
# hot-tier RAM, plus the kill/restart warm-recovery ratio (writes
# BENCH_10.json; CI gates tiered hit >= ram hit, recovery >= 80%, qps
# penalty <= 10%).
bench-tiered:
	$(GO) run ./cmd/aggbench -scale small -exp tiered -queries 200

# fuzz-codec smoke-fuzzes the cold-tier/snapshot chunk codec: arbitrary
# bytes must never panic or over-allocate, and whatever decodes must
# re-encode canonically.
fuzz-codec:
	$(GO) test ./internal/chunk -run XXX -fuzz FuzzChunkCodec -fuzztime 10s

# soak-tiered runs the tiered-store concurrency suite (demote/promote/evict
# races, byte-accounting and dual-residency invariants) under the race
# detector.
soak-tiered:
	$(GO) test -race -run 'Tiered|Snapshot' ./internal/cache -count=1

# fuzz-wire smoke-fuzzes the frame and chunk-slab codecs: malformed input
# must never panic or over-allocate.
fuzz-wire:
	$(GO) test ./internal/wire -run XXX -fuzz FuzzFrame -fuzztime 10s
	$(GO) test ./internal/wire -run XXX -fuzz FuzzChunkDecode -fuzztime 10s

# fuzz-peer smoke-fuzzes the peer cache protocol decoders (PeerGet/PeerChunk/
# PeerPut/PeerAck) the same way.
fuzz-peer:
	$(GO) test ./internal/mtier -run XXX -fuzz FuzzPeerFrame -fuzztime 10s

# soak-shards runs the chunk-store concurrency suite under the race
# detector at 1, 2, 4 and 8 shards: the cache-level invariant soak and
# model-equivalence replay plus the engine-level soak whose one-shard and
# 4-shard subjects must match a serialized reference engine.
soak-shards:
	$(GO) test -race -run 'Sharded|ShardDistribution|ShardSelection|StoreStats|ConcurrentSoak|EngineConcurrent' ./internal/cache ./internal/core

# soak-cluster runs the 3-node in-process cluster under the race detector
# with one fault-injected peer: every query must still be served.
soak-cluster:
	$(GO) test -race -run 'ClusterSoak' ./internal/mtier -count=1 -v

# soak-overload storms an under-provisioned server with hostile traffic
# (Zipf convoy, deadline-bound flash crowd, quota-capped scan flood) under
# the race detector: every failure must be an in-band transient shed, no
# query may run past its deadline, and the server must serve again after.
soak-overload:
	$(GO) test -race -run 'OverloadSoak' ./internal/mtier -count=1 -v

# Full aggbench reports are regenerated on demand, never committed:
# `make results_small.txt` (or _medium/_full).
results_%.txt: FORCE
	$(GO) run ./cmd/aggbench -scale $* -exp all | tee $@

FORCE:

# fmt fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint is fmt + vet, plus staticcheck and govulncheck when installed (CI
# installs both; a bare checkout degrades gracefully).
lint: fmt vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping"; fi

# cover writes the profile to a temp path (RUNNER_TEMP on CI) so a stray
# cover.out never lands in the worktree.
COVERFILE ?= $(or $(RUNNER_TEMP),/tmp)/cover.out
cover:
	$(GO) test -coverprofile=$(COVERFILE) ./...
	$(GO) tool cover -func=$(COVERFILE) | tail -1

# chaos runs the fault-injection suite under the race detector and the
# availability experiment end to end.
chaos:
	$(GO) test -race -run 'Chaos|Degraded|Flight|Breaker|Faulty|Remote|Malformed' ./internal/core ./internal/backend ./internal/mtier ./internal/cache
	$(GO) run ./cmd/aggbench -scale tiny -exp chaos

ci: lint race cover
