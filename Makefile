# Developer entry points. CI runs the same targets; keep them in sync with
# .github/workflows/ci.yml.

GO ?= go

.PHONY: build test race bench benchshards benchscale scalecheck microbench profile crashtest servetest maintaintest loadtest fmt vet

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package, so tests that lean
# on leftover state from an earlier test fail loudly instead of passing by
# accident.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# crashtest runs the store's fault-injection and crash-recovery suites under
# the race detector: crash-at-every-truncation-point replay, write kills at
# every byte offset, syscall faults on every Compact step, the codec
# corruption matrix, and the per-shard fault isolation suite (a write kill
# in one shard's WAL must latch only that shard). The second line runs the
# page store's segment suites: torn-tail repair, crash mid-write, reopen,
# and the refusal to truncate past corruption in any segment. -count=1
# defeats test caching so CI always re-proves the durability contract.
crashtest:
	$(GO) test -race -count=1 -v \
		-run 'Crash|Fault|Torn|Recovery|Corrupt|Degraded|Killed|Seq|Frame|Shard|Manifest|Legacy' \
		./internal/lrec/
	$(GO) test -race -count=1 -v -run 'TestDiskStore(Torn|Crash|Corrupt|Reopen)' ./internal/webgraph/

# servetest runs the serving-layer suites under the race detector: concurrent
# Search/Aggregate traffic hammered against in-flight Refresh and Reconcile,
# the post-refresh staleness pin, coalescing, shedding, and the HTTP 503/504
# mapping in wocserve. -count=1 defeats test caching so every CI run
# re-proves the read/maintenance lock.
servetest:
	$(GO) test -race -count=1 -v ./internal/serving/ ./cmd/wocserve/

# maintaintest runs the continuous-maintenance suites under the race
# detector: the scheduler's cohort/sweep/gone-probe unit tests, the churn
# stress (serving-layer readers hammering the system across >=3 full
# background sweeps with a page loss and resurrection, p99 read bound), and
# the delta-vs-rebuild equivalence matrix (incremental passes must land on
# bit-identical store content and search results as a fresh build, at every
# workers x shards combination). -count=1 defeats test caching.
maintaintest:
	$(GO) test -race -count=1 -v ./internal/maintain/
	$(GO) test -race -count=1 -v -run 'TestDeltaRefreshConvergesToRebuild|TestRefresh|TestRemove|TestStoreDelete' \
		./internal/core/ ./internal/index/ ./internal/webgraph/

# bench runs the end-to-end construction benchmark at 1, 4, and 8 workers
# (via -cpu, which also sets GOMAXPROCS and hence the default pool size) and
# archives the per-stage trace metrics. -benchtime=1x -count=3 keeps it fast
# enough for CI while still exposing run-to-run variance.
# Both bench targets report numcpu/gomaxprocs custom metrics, so the
# archived output records the host parallelism it was measured on.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkBuildPipeline' -benchtime=1x -count=3 -cpu 1,4,8 . | tee bench-pipeline.txt

# benchshards sweeps the construction pipeline over the (workers x shards)
# grid — the store/index partitioning cost curve archived as BENCH_PR7.json.
benchshards:
	$(GO) test -run '^$$' -bench 'BenchmarkBuildShards' -benchtime=1x -count=3 . | tee bench-shards.txt

# benchscale measures the corpus-scale streamed build: heavy-tail worlds at
# increasing page counts run through BuildStream with the disk-backed page
# store, one process per size so every peak-RSS sample (VmHWM) is isolated.
# Each run appends a JSON line via -stats-json (including per-stage wall
# times); the lines are assembled into $(SCALE_OUT) — the scaling curve
# (pages vs wall vs per-stage ms vs peak RSS). Override SCALE_SIZES /
# SCALE_RSS_CEILING / SCALE_OUT for a quick smoke: CI runs a single 20k-page
# world into a scratch file (so the committed baseline curve is untouched)
# and fails the build if peak RSS crosses a fixed ceiling, which is the
# bounded-memory property under regression test.
SCALE_SIZES ?= 20000 50000 100000
SCALE_RSS_CEILING ?= 0
SCALE_OUT ?= BENCH_PR13.json

benchscale:
	$(GO) build -o bin/wocbuild ./cmd/wocbuild
	@set -e; \
	rm -f benchscale-lines.json; \
	for n in $(SCALE_SIZES); do \
		rm -rf bin/benchscale-pages; \
		./bin/wocbuild -world-profile heavytail -pages $$n \
			-page-store bin/benchscale-pages -stats-json benchscale-lines.json \
			-rss-ceiling $(SCALE_RSS_CEILING); \
	done; \
	{ echo '{"bench": "corpus-scale streamed build (heavy-tail world, disk page store)",'; \
	  echo ' "rss_ceiling_bytes": $(SCALE_RSS_CEILING),'; \
	  echo ' "runs": ['; \
	  sed '$$!s/$$/,/' benchscale-lines.json; \
	  echo ']}'; } > $(SCALE_OUT); \
	rm -f benchscale-lines.json bin/wocbuild; rm -rf bin/benchscale-pages; \
	cat $(SCALE_OUT)

# scalecheck compares a freshly measured scaling curve against the committed
# baseline (BENCH_PR13.json): for each page count present in both, the ratio
# of link+resolve wall time to the linear stages (ingest+extract+index) must
# stay within a slack factor of the baseline's ratio. The stage-time ratio is
# host-speed independent, so this catches the super-linear
# matching/resolution regression class on any runner. Typical use after the
# CI smoke:
#   make benchscale SCALE_SIZES=20000 SCALE_OUT=bench-scale-smoke.json
#   make scalecheck SCALE_CURVE=bench-scale-smoke.json
SCALE_CURVE ?= bench-scale-smoke.json
SCALE_BASELINE ?= BENCH_PR13.json

scalecheck:
	$(GO) run ./cmd/scalecheck -curve $(SCALE_CURVE) -baseline $(SCALE_BASELINE)

# microbench runs the hot-path microbenchmarks with allocation stats:
# tokenization, repeated-group discovery, TF-IDF scoring, §5.4 text matching,
# trigram similarity and collective resolution. These are the functions the
# extract/link/resolve stages spend their time in; -benchmem makes
# allocation regressions visible next to the ns/op numbers. The match and
# trigram benchmarks include *Reference variants running the retained naive
# scorers (string-based comparators, map-based trigram sets), so the
# archived output shows the pruned/blocked/prepared speedup alongside the
# absolute numbers.
microbench:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkTokenize|BenchmarkTokenizeInto|BenchmarkTopTerms|BenchmarkRepeatedGroups|BenchmarkMatchTokens|BenchmarkResolve|BenchmarkTrigramSim' \
		-benchmem ./internal/textproc/ ./internal/extract/ ./internal/match/ | tee bench-micro.txt

# loadtest smoke-drives a freshly built wocserve with wocload's
# logsim-derived workload: two low QPS levels for a few seconds each, report
# archived as loadtest-report.json. wocload waits for /healthz, splits
# hit/miss via the X-Woc-Trace/X-Woc-Cache headers, and exits non-zero if
# the sweep completes zero requests — so CI catches a server that builds but
# cannot serve.
loadtest:
	$(GO) build -o bin/wocserve ./cmd/wocserve
	$(GO) build -o bin/wocload ./cmd/wocload
	@set -e; \
	./bin/wocserve -addr 127.0.0.1:8639 & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	./bin/wocload -addr http://127.0.0.1:8639 -qps 20,40 -duration 3s \
		-out loadtest-report.json

# profile builds the demo world end to end at one worker and writes pprof
# CPU and heap profiles. Inspect with: go tool pprof build.pprof
profile:
	$(GO) run ./cmd/wocbuild -workers 1 -v -out /tmp/wocprofile \
		-cpuprofile build.pprof -memprofile mem.pprof

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
