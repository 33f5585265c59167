GO ?= go

BIN := bin/pvfslint

.PHONY: all build test race lint vet check mutate bench-smoke bench-cache bench-scale bench-hostcost bench-check bench-go trace-smoke metrics-smoke fuzz loc clean

# LINT_BUDGET caps the whole analyzer suite's wall time in lint.
LINT_BUDGET ?= 30s

all: build

build:
	$(GO) build ./...

$(BIN): FORCE
	$(GO) build -o $(BIN) ./cmd/pvfslint

.PHONY: FORCE
FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the project's own analyzers (nopanic, okreason) over every
# package, archives the findings as pvfslint.json and the per-analyzer wall
# time on stderr, and fails on any unsuppressed finding or when the suite
# takes longer than LINT_BUDGET.
lint: $(BIN)
	$(BIN) -json -time -budget $(LINT_BUDGET) ./... > pvfslint.json

# check is the full CI gate: build, vet, pvfslint, the nested benchmark/
# module (the only place an internal API removal it depends on shows up),
# race tests.
check: build vet lint bench-check race

# mutate runs the analyzer suite's ledger (cmd/mutate): every row of
# cmd/mutate/catalogue.json applied to a copy of the module, with the
# build, pvfslint, the mutated package's tests, every package's tests and
# the short pvfsbench hash timed over each, and a per-analyzer verdict
# (DESIGN.md §6.1). It takes about 20 s a row (13 min for the catalogue's
# 38 rows on 2 vCPUs, go1.24.0); not a CI step.
mutate:
	$(GO) run ./cmd/mutate > BENCH_mutation.json
	@echo "wrote BENCH_mutation.json"

# bench-smoke runs the short fault-plane and list-I/O experiments on the
# parallel cell scheduler — with each cell's engine partitioned into 4
# shards, so the sharded event loop is on the CI hot path — and archives
# the tables as BENCH_smoke.json; the trailing -hostmeta record adds
# wall-clock and allocation counts, so CI runs expose both table
# regressions and host-side performance drift. The tables are identical
# at any -shards value; the determinism tests enforce that.
bench-smoke:
	$(GO) run ./cmd/pvfsbench -short -seed 1 -parallel 4 -shards 4 -format json -hostmeta -run faults,fig4,cache > BENCH_smoke.json
	@echo "wrote BENCH_smoke.json"

# bench-scale runs the cell-scaling grid (iods x clients x stripe, with
# knee detection) on a 4-shard engine and archives the table as
# BENCH_scale.json. Deterministic: -shards changes wall clock, never
# output.
bench-scale:
	$(GO) run ./cmd/pvfsbench -seed 1 -parallel 4 -shards 4 -format json -run scale > BENCH_scale.json
	@echo "wrote BENCH_scale.json"

# bench-cache runs the full client-page-cache ablation (reuse x hole
# density x cache size, uncached / write-through / write-behind) and
# archives the table as BENCH_cache.json. Deterministic at a fixed seed.
bench-cache:
	$(GO) run ./cmd/pvfsbench -seed 1 -parallel 4 -format json -run cache > BENCH_cache.json
	@echo "wrote BENCH_cache.json"

# bench-hostcost runs every short experiment and archives what each cost
# the host in exact counts — engine events, process switches, inline wakes,
# bytes copied and cleared, each also per request and per payload byte — as
# BENCH_hostcost.json: the host clock as a committed file, so that a relay
# or a copy put back on a data path shows in a diff (and fails
# TestHostCostFile in tier-1). Deterministic at a fixed -seed and -shards;
# -parallel and GOMAXPROCS change wall clock only.
bench-hostcost:
	$(GO) run ./cmd/pvfsbench -short -seed 1 -parallel 1 -shards 1 -format json -timings=false -run hostcost > BENCH_hostcost.json
	@echo "wrote BENCH_hostcost.json"

# trace-smoke runs the traced breakdown workload (ListIO+ADS, short) and
# archives the Perfetto trace (open in ui.perfetto.dev or chrome://tracing)
# plus the machine-readable stage-breakdown profile. Deterministic: the
# same source tree always writes byte-identical files.
trace-smoke:
	$(GO) run ./cmd/pvfsbench -short -trace TRACE_smoke.json
	@echo "wrote TRACE_smoke.json and TRACE_smoke.json.breakdown.json"

# metrics-smoke runs the checkpoint-burst timeline (metrics plane: sampled
# utilization/queue series with saturation detection) on a 4-shard engine
# and archives the table as BENCH_timeline.json. Deterministic: the series
# are sampled on the virtual clock, so -shards changes wall clock, never a
# byte of output.
metrics-smoke:
	$(GO) run ./cmd/pvfsbench -seed 1 -parallel 4 -shards 4 -format json -run timeline > BENCH_timeline.json
	@echo "wrote BENCH_timeline.json"

# bench-check vets and short-tests the nested benchmark/ module, which
# `go build ./... && go test ./...` at the root cannot see; it compiles
# against the internal packages, so an API change there breaks it silently.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test -short .

# bench-go runs the engine microbenchmarks (event turnover, the process
# switch in its four shapes — self-waking Sleep, mailbox ping-pong,
# contended resource, spawn on a reused carrier — and a callback chain that
# never switches; TestSwitchAllocFree in the package's tests holds all but
# the spawn to 0 allocs/op), one full Figure 3 cell, one message end to end
# (QP.Send, both fabric engines, the adapter's receive handler, QP.Recv: the
# number to read beside BenchmarkMailbox; BenchmarkAlltoallvOwned is the
# two-phase exchange on top of it: four ranks, 64 kB parts handed over and
# released, no payload-sized allocation), the storage under every payload
# byte (AddrSpace accesses, a recycled Malloc/Free, the hole query; localfs
# extent reads, writes and a scratch file's create/remove) and the I/O
# daemon's data path (the sieve over the ledger's 128-access geometry, a
# 1 MiB list read end to end, and BenchmarkListOp, the Multiple I/O unit of
# work: one 3 kB list write and read, 0 allocs/op) with allocation reporting
# — B/op is bookkeeping, never payload — and the AllocFree tests, which
# assert 0 allocs/op in steady state for every data path (DESIGN.md §8.2):
# simnet and QP sends and a sync in their own packages, the engine, RDMA,
# AddrSpace accesses, a cache hit and a list operation from the client's
# entry point to the reply in internal/bench, and no payload-proportional
# allocation on the list path.
bench-go:
	$(GO) test -run NONE -bench . -benchmem ./internal/sim/
	$(GO) test -run NONE -bench . -benchmem ./internal/mem/ ./internal/localfs/
	$(GO) test -run NONE -bench 'BenchmarkFig3Cell|BenchmarkMessagePath|BenchmarkSieve(Read|Write)128|BenchmarkListRead1MiB|BenchmarkListOp' -benchmem ./internal/bench/
	$(GO) test -run NONE -bench BenchmarkAlltoallvOwned -benchmem ./internal/mpi/
	$(GO) test -run 'AllocFree|AllocIndependentOfPayload' -count 1 -v ./internal/bench/ ./internal/simnet/ ./internal/ib/ ./internal/localfs/
	$(GO) test -run TestShardedCellThroughput -count 1 -v ./internal/sim/

fuzz:
	$(GO) test -run=NONE -fuzz=FuzzFlattenDatatype -fuzztime=30s ./internal/mpiio/
	$(GO) test -run=NONE -fuzz=FuzzGroupRegions -fuzztime=30s ./internal/ogr/
	$(GO) test -run=NONE -fuzz=FuzzStrideDetect -fuzztime=30s ./internal/pcache/
	$(GO) test -run=NONE -fuzz=FuzzSieveModel -fuzztime=30s ./internal/sieve/
	$(GO) test -run=NONE -fuzz=FuzzAddrSpaceModel -fuzztime=30s ./internal/mem/
	$(GO) test -run=NONE -fuzz=FuzzFileExtents -fuzztime=30s ./internal/localfs/
	$(GO) test -run=NONE -fuzz=FuzzSplitChunks -fuzztime=30s ./internal/pvfs/

# loc prints the root module's Go lines per top-level package — non-test
# and _test.go apart, a package under internal/ or cmd/ with its
# subpackages — over every .go file outside benchmark/ and testdata/, then
# the totals: the count a simplicity change reports before and after.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -path '*/testdata/*' | sort | awk ' \
		{ f = $$0; sub(/^\.\//, "", f); n = split(f, p, "/"); \
		  pkg = n == 1 ? "." : n == 2 ? p[1] : p[1] "/" p[2]; \
		  c = 0; while ((getline line < $$0) > 0) c++; close($$0); \
		  if (f ~ /_test\.go$$/) { test[pkg] += c; tt += c } else { src[pkg] += c; ts += c } \
		  if (!(pkg in seen)) { seen[pkg] = 1; order[++np] = pkg } } \
		END { printf "%-24s %8s %8s\n", "package", "non-test", "test"; \
		  for (i = 1; i <= np; i++) printf "%-24s %8d %8d\n", order[i], src[order[i]], test[order[i]]; \
		  printf "%-24s %8d %8d\n", "total", ts, tt }'

clean:
	rm -f $(BIN)
