# DDStore-Go build targets.

GO ?= go

.PHONY: all build test race bench bench-allocs bench-check smoke vet fmt loc fuzz cover examples experiments quick-experiments golden-full clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test ./... -race

bench:
	$(GO) test -bench=. -benchmem ./...

# Allocation budget gate, one budget per stage. A served sample after it
# arrives: header validation (graph.DecodeSizes: the Lazy), full
# materialization (graph.MaterializeSizes: Lazy + Graph + one tensor slab)
# and batch assembly, from Graphs (graph.NewBatch128: Batch + float slab +
# index slab + IDs) and from the same 128 samples' wire bytes, as both
# training loaders build it (graph.BatchFromWire128: the same four per
# batch and none per sample: the views are reused and no Graph is made),
# each for every size it runs at. A served message: a single get
# through a booted server, front end included (serveboot.ServedGet: the
# caller's result slice and nothing else: sending the get as a batch of
# one costs no allocation), the admit that
# never binds (frontend.Admit: nothing) and a 16-id batch over a bare
# server (transport.OpGetBatch/batch16: the pinned response buffer, its
# handle and its part list). A load, stated per load and not per id: the
# fetch engine over a stub plane (fetch.LoadLazy64: the load, its two
# results, the view slab, the slot table, the index lists, the grouped ids
# and the deliver closure, for 64 positions with or without repeats; with a
# cold cache one flight per miss on top; fetch.LoadMaterialize64: that load
# and the Graph of every position, whose two shared slabs are the only
# allocations materializing adds) and the group's share of a healthy
# 16-id round trip (transport.FetchChunk16: the pick list and the part
# list). A cache hit in a full shard and an insert that evicts
# (cache.ClaimHit, cache.PutEvict: nothing — the slab reuses the victim's
# slot). One sample as a Graph (datasets.Generate/<dataset>: Sample
# generates into stack scratch, encodes and decodes): its wire buffer, its
# Graph and the one tensor slab its tensors view (smooth also allocates
# its grid; the RNG, elements, degrees and peaks live on the stack). One
# sample generated straight into wire encoding, into a buffer with room
# (datasets.AppendSample/<dataset> for ising, homolumo and discrete:
# nothing — the sample is generated into stack scratch and encoded from
# there; it is what every preload, migration fallback and lazy miss over a
# generator pays). One packed run of 1,000 pre-encoded samples appended by
# a fresh Packer (graph.Pack: the Packed, its end offsets, append's growth
# over the first samples, the reservation from their mean and the trim to
# 1 %; a per-sample allocation would pass it 1,000 times), the packer a
# DDStore rank's window and a serving owner's shards share. A
# budget on a benchmark covers every sub-benchmark it runs; a budget on one
# sub-benchmark names it in full. A regression here means a
# copy or a per-request allocation crept back into the hot path.
DECODE_ALLOC_MAX ?= 1
MATERIALIZE_ALLOC_MAX ?= 3
BATCH_ALLOC_MAX ?= 4
SERVED_GET_ALLOC_MAX ?= 1
ADMIT_ALLOC_MAX ?= 0
GETBATCH16_ALLOC_MAX ?= 3
LOADLAZY64_ALLOC_MAX ?= 8
LOADLAZY64_COLD_ALLOC_MAX ?= 72
LOADMAT64_ALLOC_MAX ?= 10
FETCHCHUNK16_ALLOC_MAX ?= 2
CLAIMHIT_ALLOC_MAX ?= 0
PUTEVICT_ALLOC_MAX ?= 0
GEN_ISING_ALLOC_MAX ?= 3
GEN_MOLECULE_ALLOC_MAX ?= 4
APPEND_SAMPLE_ALLOC_MAX ?= 0
PACK_ALLOC_MAX ?= 13

# Build products (alloc tables, cover profiles, smoke binaries and
# artifacts) go under the ignored .bench_build/, never beside the sources.
OUT := .bench_build

bench-allocs:
	@mkdir -p $(OUT)
	@$(GO) test -run='^$$' -bench='^Benchmark(Pack|DecodeSizes|MaterializeSizes|NewBatch128|BatchFromWire128|ServedGet|Admit|OpGetBatch|LoadLazy64|LoadMaterialize64|FetchChunk16|ClaimHit|PutEvict|Generate|AppendSample)$$' -benchtime=100x -benchmem ./internal/graph ./internal/serveboot ./internal/frontend ./internal/transport ./internal/fetch ./internal/cache ./internal/datasets | tee $(OUT)/decode-allocs.txt
	@awk -v decode="$(DECODE_ALLOC_MAX)" -v materialize="$(MATERIALIZE_ALLOC_MAX)" -v batch="$(BATCH_ALLOC_MAX)" \
		-v get="$(SERVED_GET_ALLOC_MAX)" -v admit="$(ADMIT_ALLOC_MAX)" -v getbatch16="$(GETBATCH16_ALLOC_MAX)" \
		-v load="$(LOADLAZY64_ALLOC_MAX)" -v loadcold="$(LOADLAZY64_COLD_ALLOC_MAX)" -v loadmat="$(LOADMAT64_ALLOC_MAX)" -v chunk16="$(FETCHCHUNK16_ALLOC_MAX)" \
		-v claimhit="$(CLAIMHIT_ALLOC_MAX)" -v putevict="$(PUTEVICT_ALLOC_MAX)" \
		-v genising="$(GEN_ISING_ALLOC_MAX)" -v genmol="$(GEN_MOLECULE_ALLOC_MAX)" -v appendsample="$(APPEND_SAMPLE_ALLOC_MAX)" -v pack="$(PACK_ALLOC_MAX)" ' \
		BEGIN { max["BenchmarkDecodeSizes"] = decode; max["BenchmarkMaterializeSizes"] = materialize; max["BenchmarkNewBatch128"] = batch; max["BenchmarkBatchFromWire128"] = batch; \
			max["BenchmarkServedGet"] = get; max["BenchmarkAdmit"] = admit; max["BenchmarkOpGetBatch/batch16"] = getbatch16; \
			max["BenchmarkLoadLazy64"] = load; max["BenchmarkLoadLazy64/cached-cold"] = loadcold; max["BenchmarkLoadMaterialize64"] = loadmat; max["BenchmarkFetchChunk16"] = chunk16; \
			max["BenchmarkClaimHit"] = claimhit; max["BenchmarkPutEvict"] = putevict; \
			max["BenchmarkGenerate/ising"] = genising; max["BenchmarkGenerate/homolumo"] = genmol; \
			max["BenchmarkGenerate/discrete"] = genmol; max["BenchmarkGenerate/smooth"] = genmol; \
			max["BenchmarkAppendSample/ising"] = appendsample; max["BenchmarkAppendSample/homolumo"] = appendsample; \
			max["BenchmarkAppendSample/discrete"] = appendsample; max["BenchmarkPack"] = pack } \
		/^Benchmark/ { \
			name = $$1; sub(/-[0-9]+$$/, "", name); \
			if (!(name in max)) sub(/\/.*/, "", name); \
			if (!(name in max)) next; \
			ran[name] = 1; \
			for (i = 1; i <= NF; i++) if ($$(i) == "allocs/op") a = $$(i-1); \
			if (a + 0 > max[name] + 0) { printf "FAIL: %s allocates %s allocs/op (budget %s)\n", $$1, a, max[name]; bad = 1 } \
		} \
		END { \
			for (name in max) if (!ran[name]) { printf "FAIL: %s did not run\n", name; bad = 1 } \
			if (bad) exit 1; \
			printf "alloc budgets ok (decode <= %s, materialize <= %s, batch <= %s, served get <= %s, admit <= %s, getbatch16 <= %s, load <= %s, cold load <= %s, load + materialize <= %s, chunk16 <= %s, claim hit <= %s, put/evict <= %s, ising sample <= %s, molecule <= %s, appended sample <= %s, pack 1000 <= %s allocs/op)\n", decode, materialize, batch, get, admit, getbatch16, load, loadcold, loadmat, chunk16, claimhit, putevict, genising, genmol, appendsample, pack }' $(OUT)/decode-allocs.txt

vet:
	$(GO) vet ./...

# The benchmark under benchmark/ is a module of its own, so the root
# `go test ./...` never compiles it — yet it calls the request-path API
# (client gets, group and store loads, the cache's ref calls, serveboot)
# directly. Vet and test it here so a signature change that breaks it
# fails before the benchmark driver finds out.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Fuzz every decoder that reads bytes from outside the process: the graph
# codec, the wire protocol (both ends, request framing, batch framing, the
# timing trailer), the trace context, the shard map, and the CFF part
# index; and drive the cache shard against its map-based reference.
# FUZZTIME is per target; bump it for longer campaigns, e.g.
# make fuzz FUZZTIME=10m. The -fuzz patterns are anchored because a
# pattern matching two targets in one package is an error.
FUZZTIME ?= 15s

fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeGraph$$' -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeLazy$$' -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run='^$$' -fuzz='^FuzzServerRequest$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeGetBatch$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run='^$$' -fuzz='^FuzzParseTimingTrailer$$' -fuzztime=$(FUZZTIME) ./internal/transport
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/obs/tracectx
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeShardMap$$' -fuzztime=$(FUZZTIME) ./internal/shardmap
	$(GO) test -run='^$$' -fuzz='^FuzzReadPartIndex$$' -fuzztime=$(FUZZTIME) ./internal/cff
	$(GO) test -run='^$$' -fuzz='^FuzzShardOps$$' -fuzztime=$(FUZZTIME) ./internal/cache

# Coverage gates, one pkg:floor per line. internal/fetch is the one
# pipeline both data planes ride (engine unit tests + cross-plane
# conformance); internal/obs is the metrics/span surface every
# layer feeds; internal/loadgen drives real TCP servers in its e2e suite;
# internal/frontend is the multi-tenant admission/queueing/shedding layer
# in front of the serving data plane; internal/shardmap is the versioned
# ownership map every TCP route resolves through.
COVER_FLOORS ?= fetch:85 obs:75 loadgen:85 frontend:85 shardmap:85

cover:
	@mkdir -p $(OUT)
	@for pf in $(COVER_FLOORS); do \
		pkg=$${pf%%:*}; min=$${pf##*:}; \
		$(GO) test -coverprofile=$(OUT)/$$pkg.cover -coverpkg=./internal/$$pkg/ ./internal/$$pkg/ || exit 1; \
		total=$$($(GO) tool cover -func=$(OUT)/$$pkg.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "internal/$$pkg coverage: $$total% (floor $$min%)"; \
		awk -v t="$$total" -v min="$$min" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
			{ echo "internal/$$pkg coverage $$total% is below the $$min% floor" >&2; exit 1; }; \
	done

# The process-level smokes: the real binaries over loopback, asserting by
# count only (CI runs the same two scripts). Numbers — tail ratios, steady
# state, tracing overhead — are the ledger's: benchmark/run.sh.
smoke:
	bash scripts/smoke-static.sh
	bash scripts/smoke-elastic.sh

fmt:
	gofmt -w .

# Non-test Go lines outside benchmark/: the count a simplicity change is
# measured by. CI's lint job prints it on every run.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ising
	$(GO) run ./examples/widthtune
	$(GO) run ./examples/multitask
	$(GO) run ./examples/homolumo
	$(GO) run ./examples/uvspectra

# Full paper reproduction (minutes; writes aligned tables to stdout).
experiments:
	$(GO) run ./cmd/ddstore-bench -exp all

# Scaled-down suite for CI (seconds).
quick-experiments:
	$(GO) run ./cmd/ddstore-bench -exp all -quick

# Pin the 16 paper sections at full scale: the JSON the command prints for
# every section but the loadgen mode, into internal/bench/testdata/full.golden
# (about 200 s and 6 GB peak on a 2-vCPU host). Run it only when a paper
# number is meant to move, and explain the diff; FULL_GOLDEN=1 go test -run
# TestFullSuiteGolden ./cmd/ddstore-bench/ and the full-golden workflow
# compare against it.
golden-full:
	@mkdir -p $(OUT)
	$(GO) build -o $(OUT)/ddstore-bench ./cmd/ddstore-bench
	ids=$$($(OUT)/ddstore-bench -list | awk '$$1 != "loadgen" {print $$1}' | paste -sd, -); \
		$(OUT)/ddstore-bench -exp "$$ids" -json > internal/bench/testdata/full.golden

clean:
	$(GO) clean ./...
