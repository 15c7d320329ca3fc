#!/usr/bin/env bash
# ci.sh — every CI leg, runnable locally. The workflow
# (.github/workflows/ci.yml) only calls these legs, so "green here" means
# "green there".
#
#   bash ci.sh race      vet, build, the whole suite under -race, and the
#                        conformance suite
#   bash ci.sh harness   the benchmark harness (its own module) vets, builds
#                        and passes its own tests
#   bash ci.sh guards    the per-subsystem regression guards
#   bash ci.sh kernels   the f64 tile kernel and the SQ8 scan on every kernel
#                        tier of this host, and the answer digests on the asm
#                        and purego builds
#   bash ci.sh purego    the scalar kernel fallbacks under -tags purego
#   bash ci.sh fuzz      every fuzz target for 30 s
#   bash ci.sh smoke     the bench, planner and server smokes
#   bash ci.sh layout    addr % 64 and size of the hot symbols in entmatcher
#   bash ci.sh ab REF    alternating benchmark pairs, REF against this
#                        checkout, with a verdict per end-to-end metric
set -euo pipefail
cd "$(dirname "$0")"

race() {
	go vet ./...
	go build ./...
	go test -race ./...

	# Conformance. One -race run of everything under internal/conformance,
	# plus the packages whose own tests carry a conformance contract. The
	# invariants it holds, by test-name family:
	#  - Sparse: the sparse candidate-graph twins stay bit-identical to their
	#    dense counterparts at full candidate width (and RInf-sparse to the
	#    progressive-blocking oracle, OracleRInfPB, at every width).
	#  - ANN: the IVF candidate graphs stay bit-identical to the exhaustive
	#    builders' at nprobe=Clusters, deterministic under a fixed seed, and
	#    recall-monotone in nprobe (ann_test.go).
	#  - Quant: the SQ8 two-phase scan stays bit-identical to the exhaustive
	#    builders AND to the float IVF search at the default rerank factor on
	#    the adversarial suite (quant_test.go).
	#  - Shard|OutOfCore: the IVF-sharded engine stays bit-identical to the
	#    unsharded sparse engine at Shards=1 (in-RAM and out-of-core alike),
	#    keeps the Shards>1 Hits@1 delta bounded, and runs its worker pool
	#    cleanly under -race with mid-build cancellation (internal/shard and
	#    shard_test.go).
	#  - Blocked|Batched: the register-blocked kernels (float64 tile rows
	#    6×1/3×1, int8 4×1) stay bit-identical to the per-pair kernels they
	#    amortize — on the adversarial suite, through the tile/IVF/quant scan
	#    paths, and through the row searches the server tiers call
	#    (batch_test.go). The kernels themselves and the one scan core
	#    (Scanner, in internal/quant) are pinned on every tier by the kernels
	#    leg.
	#  - SlabFailure: a disk-backed table failing under a running pass ends
	#    StreamTiles, Block and sharded ProduceParts with matrix.ErrSlab and no
	#    parts (fault_test.go).
	# The purego leg runs the same suites against the scalar fallbacks.
	go test -race -count=1 ./internal/conformance/ ./internal/shard/
}

guards() {
	# Formatting. Every Go file in the tree, the benchmark module included,
	# must be gofmt-clean; the list of offenders is the failure message.
	local unformatted
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt -l: files not formatted:" >&2
		echo "$unformatted" >&2
		return 1
	fi

	# Server. Concurrent /match/topk lookups share the LRU and the tiers'
	# state, and neither may reach a payload: 24 workers storm one server
	# whose small LRU evicts under them, healthy and with the index tier
	# failed, and every body must be the bytes the same request gets alone
	# from a fresh server. -cpu varies how the lookups interleave.
	go test -race -count=1 -cpu 1,2,4 -run 'ConcurrentLookupIdentity' ./internal/server/

	# Graph memo. The candidate-graph memo under every sparse matcher must
	# hand out exactly the bits the un-memoized builders return — for every
	# engine and every order of the five matchers — keep shared graphs
	# read-only, replace (never accumulate) on a budget change, cache nothing
	# from a cancelled build, and stay clean under -race with concurrent
	# Run.Match and /align callers. The one derivation it makes — k = 1 column
	# means read off a held reverse graph — is held to the same bits per
	# producer (TestMemoDerived*: signed zeros, ties at the head, an IVF
	# column with no neighbour; never over SQ8 or a three-method producer) and
	# the orders run at CSLS k = 1 and 3. Over SQ8 the k = 1 means come back
	# with the reverse build instead: TestMemoColStatByProduct holds that
	# by-product to a separate search bit for bit, on every SQ8 engine and
	# setting and on an input where a wide reverse head is not the
	# statistic. Both kernel legs: the asm build, and the purego scalar
	# fallbacks (-short there: twelve of the 120 matcher orders, the scalar
	# kernels under -race are slow).
	go test -race -count=1 -run 'Memo|GraphOnce' ./internal/matrix ./internal/core ./internal/server .
	go test -race -count=1 -short -tags purego -run 'Memo|GraphOnce' ./internal/matrix ./internal/core ./internal/server .

	# Parallel consumers. The tile consumers fold each tile on all cores
	# behind a threshold gate; their heap arrays must stay those of one serial
	# offer per score at every GOMAXPROCS (the pool is sized once, so -cpu
	# also varies chunks per worker), concurrent builds — shard sub-builds —
	# must share the worker pool without blocking, and streamed CSLS must hand
	# its pooled backing back. The one dummy-column pad (matrix.PadCols) feeds
	# the same consumers: nested pads must stream and Block what
	# AddDummyColumns applied twice holds, and every tile matcher on a padded
	# stream — resident or out of core — must return the dense padded run's
	# bits (the Pad tests). Both kernel legs, as above.
	local consumers='Consumer|RunningTopK|ColTopKAcc|StreamParts|StreamMatchesDense|Pad'
	go test -race -count=1 -cpu 1,2,4 -run "$consumers" ./internal/matrix ./internal/sim ./internal/core ./internal/shard
	go test -race -count=1 -short -cpu 1,2,4 -tags purego -run "$consumers" ./internal/matrix ./internal/sim ./internal/core ./internal/shard
	go test -count=1 -run 'ConsumersReleaseBacking' ./internal/core

	# Dense bodies. The dense SMat and RInf bodies run on one packed-key
	# ranking primitive and Sinkhorn on one fused sweep per iteration, on AVX2
	# kernels where the CPU has them (DESIGN.md §19); SinkhornSparse defers its
	# column scale the same way. The dense Hungarian runs the sparse LAP
	# search from a top-C₀ graph of the matrix, falling back to the whole
	# dense row where a row's prefix runs out. The -race legs hold the
	# primitive to its stable-sort reference (−0.0 ties +0.0, both sides of
	# the insertion/radix switch, rows aimed at each route of the long-row sort:
	# window radix alone, insertion fix-up, budget overrun and restart); the
	# row-parallel finiteness gate to the first offender in row-major order
	# and ColMax to a serial scan on ties across its strip boundaries; the
	# sweep kernels to the Go bodies on every tier the host has (forced
	# through internal/matrix's export_test.go: ragged rows and columns,
	# eps-guarded rows, dead columns, signed zeros); the Hungarian decider at
	# start widths 1, 2, 8 and C₀ to the dense two-pass solver (an all-equal
	# block and a dummy block wider than C₀ among the inputs), and its work on
	# the digest D-Z task to pinned counts; the four bodies and the two
	# orders that left sort.Slice to the pre-rewrite code kept in
	# internal/core/reference_test.go — pairs, scores, abstentions and
	# transform matrices bit for bit — RInf-pb, which runs the candidate-graph
	# body, to its map-based predecessor kept in
	# internal/core/rinf_pb_ref_test.go (block widths on both sides of the
	# insertion/radix switch, dense and streamed contexts, bit for bit),
	# cancellation to every checkpoint and mid-sweep, and Table 6's memory
	# order. -cpu varies the strips in
	# flight behind the sweep's ordered hand-off; -tags purego runs it all
	# again on the Go bodies alone. The plain leg adds what -race skips:
	# zero allocations per ranked row on warm scratch and the Figure 5 time
	# shape. The last line keeps BenchmarkDenseBodies compiling.
	local dense='Ranking|DenseBodies|SinkhornDeferred|Table6MemoryOrder|SinkhornSweep|HungarianWorkOnDigestTask|HungarianMatchesReference|RInfPBMatchesReference|Orderings|SinkhornCancelMidSweep|FindNonFinite|ColMaxTiesAcrossStrips'
	go test -race -count=1 -cpu 1,2,4 -run "$dense" ./internal/matrix ./internal/core
	go test -race -count=1 -cpu 1,2,4 -tags purego -run "$dense" ./internal/matrix ./internal/core
	go test -count=1 -run 'RankingAllocatesNothingWarm|Figure5TimeShape' ./internal/matrix ./internal/core
	go test -run '^$' -bench DenseBodies -benchtime 1x .

	# Sparse LAP. solveSparseLAP cuts each augmenting search at its best free
	# column (a bound on pushes, and an early exit from each score-sorted
	# row), which must leave the search of the uncut solver kept in
	# internal/core/hungarian_sparse_ref_test.go: the same assignment on ties,
	# −Inf edges (a search that reaches its free column only through one
	# abstains its row, so no −Inf edge is matched), failed searches (dead
	# regions), wide and tall graphs at
	# every candidate width, and on a digest rung the same scanned columns
	# with no more relaxations or pushes. The solver has no build-tagged code
	# (only the digest rung's graph build differs between kernel tiers, which
	# the kernels leg's purego digests cover), so one leg.
	go test -race -count=1 -cpu 1,2,4 -run 'SparseLAP' ./internal/core
}

kernels() {
	# The f64 tile kernel — MulTransposedBlockInto, behind every streamed tile,
	# dense strip, Stream.Block and MulTransposed, and matrix.TileKernel,
	# behind every probed run of the IVF walker — must emit the bits of the
	# per-pair Dot4 whichever tier the machine picks: the ZMM kernel of 6 rows
	# by 2 targets (AVX512VL, with its one-target pass for an odd last
	# target), the 3-row YMM AVX2 kernel or the per-pair Go dispatch
	# (internal/matrix's kernels.go). Inside internal/matrix the TileKernel
	# tests force every tier the host supports through export_test.go
	# (ragged row groups, dimensions around the 16-element step, odd and even
	# target counts, offsets, signed zeros and subnormals, in the tile's
	# orientation and the walker's); the heap-layout and MulTransposed
	# tests, internal/sim's one tile loop (tiles, Block and the dense matrix
	# against sim.Matrix, per metric and table kind) and
	# internal/conformance's blocked-kernel pins run on the host's best tier,
	# and all of it again on the Go tier under -tags purego.
	local f64='TileKernel|Blocked|HeapLayout|MulTransposed|OneLoopOverEveryTable'
	go test -race -count=1 -run "$f64" ./internal/matrix ./internal/sim ./internal/conformance
	go test -race -count=1 -tags purego -run "$f64" ./internal/matrix ./internal/sim ./internal/conformance

	# The SQ8 two-phase scan — rows kernel, pool selection, prefetched re-rank
	# — must emit the same bits whichever int8 kernel the machine picks:
	# AVX512-VNNI, AVX2 or the scalar loop (internal/quant/dot.go). Nothing
	# but the machine picks one outside tests, so the tiers are walked in two
	# ways. Inside internal/quant the DotI8, Scanner and PoolSelect tests
	# force every tier the host supports in turn through the package's
	# export_test.go override (best, then AVX2 on a VNNI host, then scalar)
	# and hold each to dotI8Scalar and to the naive score-and-sort scan.
	# internal/ann and internal/conformance, which that override cannot
	# reach, run on the host's best tier and again on the scalar tier under
	# -tags purego; between the two, what they hold — quant ≡ exact,
	# ann+quant ≡ ann, snapshots, batching — is the selection and re-rank
	# code every tier shares.
	local tests='DotI8|Scanner|PoolSelect|PoolThreshold'
	go test -race -count=1 -run "$tests" ./internal/quant
	go test -race -count=1 ./internal/ann ./internal/conformance
	go test -race -count=1 -tags purego -run "$tests" ./internal/quant
	go test -race -count=1 -tags purego ./internal/ann ./internal/conformance

	# Answer digests, end to end. Every sparse rung's pairs, scores,
	# abstentions, P/R/F1 and candidate graphs — the exact and sharded rungs
	# again from a saved snapshot out of core, through mmap and ReadAt where
	# the build maps and through ReadAt under purego — the dense and
	# streaming engines' answers in each setting, and the server's
	# /match/topk and /align bodies on two saved IVF snapshots (loaded, and
	# mapped where the build maps), must hash to testdata/digests.txt on the
	# asm build and under -tags purego, each at -cpu 1,2,4 (the worker pool's
	# chunking must not move a bit). The Go dot product sums in the assembly
	# kernel's order, so both legs check the same cells of the one file.
	go test -count=1 -cpu 1,2,4 -run Digest .
	go test -count=1 -cpu 1,2,4 -tags purego -run Digest .

	# The sparse bodies' parallel passes. CandGraph.SinkhornSweep normalizes
	# row strips on any worker and hands their column additions on in row
	# order; RInf-sparse's rank joins and combine and CSLS-sparse's row pass
	# run in tiles on the worker pool. Each must keep the bits of its serial
	# reference — the three serial passes, and in internal/core the bodies
	# kept in reference_test.go and rinf_pb_ref_test.go. The tests set
	# GOMAXPROCS 1, 2, 3 and 8 themselves, so a -cpu list would only repeat
	# them. The sweep has no build-tagged code, so one leg.
	local sparse='CandGraphSinkhornSweep|SinkhornDeferredScaleMatchesReferenceSparse|RInfPBMatchesReference|CSLSSparseMatchesReference'
	go test -race -count=1 -run "$sparse" ./internal/matrix ./internal/core
}

purego() {
	# The pure-Go kernels that non-AVX2 hosts (arm64) take: the per-pair tile
	# tier on dotFMA, the Go assign bodies and dot_i8_noasm.go. The tag
	# leaves the amd64 assembly out of the build, so this leg proves the
	# pure-Go kernels satisfy the same suites on their own. The tag
	# also flips snapshot.MmapSupported off, so the out-of-core conformance
	# tests run through the chunked ReadAt slab fallback on the same host —
	# the gathered row window of sim.Stream's one tile loop, which
	# TestOneLoopOverEveryTable (internal/sim) and TestSlabFailureMidPass
	# (internal/conformance) also drive directly over a matrix.SlabTable on
	# every leg.
	go test -tags purego -count=1 ./internal/matrix/ ./internal/ann/ ./internal/quant/ ./internal/sim/ ./internal/shard/ ./internal/snapshot/ ./internal/server/ ./internal/conformance/
}

fuzz() {
	# Every fuzz target for 30 s.
	go test -run='^$' -fuzz=FuzzRowKernels -fuzztime=30s ./internal/matrix/
	go test -run='^$' -fuzz=FuzzCandGraph -fuzztime=30s ./internal/matrix/
	go test -run='^$' -fuzz=FuzzRanking -fuzztime=30s ./internal/matrix/
	go test -run='^$' -fuzz=FuzzSinkhornSweep -fuzztime=30s ./internal/matrix/
	go test -run='^$' -fuzz=FuzzTileKernel -fuzztime=30s ./internal/matrix/
	go test -run='^$' -fuzz=FuzzIVFQuery -fuzztime=30s ./internal/ann/
	go test -run='^$' -fuzz=FuzzDotI8 -fuzztime=30s ./internal/quant/
	go test -run='^$' -fuzz=FuzzPoolSelect -fuzztime=30s ./internal/quant/
	go test -run='^$' -fuzz=FuzzQuantRoundTrip -fuzztime=30s ./internal/quant/
	go test -run='^$' -fuzz=FuzzReadGraph -fuzztime=30s ./internal/kg/
	go test -run='^$' -fuzz=FuzzReadLinks -fuzztime=30s ./internal/kg/
	go test -run='^$' -fuzz=FuzzReadNames -fuzztime=30s ./internal/kg/
	go test -run='^$' -fuzz=FuzzSnapshotLoad -fuzztime=30s ./internal/snapshot/
	go test -run='^$' -fuzz=FuzzSlabLoad -fuzztime=30s ./internal/snapshot/
	go test -run='^$' -fuzz=FuzzScore -fuzztime=30s ./internal/eval/
}

# wait_ready polls an entserver's /readyz for up to ten seconds.
wait_ready() {
	local i
	for i in $(seq 1 50); do
		curl -sf "$1/readyz" >/dev/null && return 0
		sleep 0.2
	done
}

smoke() {
	# The binaries, data and logs go to one temporary directory; a server
	# still up when a step fails is stopped on exit.
	local dir
	smoke_dir=$(mktemp -d) srv=
	dir=$smoke_dir
	trap '[ -z "$srv" ] || kill "$srv" 2>/dev/null; rm -rf "$smoke_dir"' EXIT

	# Bench smoke. Every benchmark once, BenchmarkSparseFiveMatchers among
	# them: it reports the tile passes and memo bytes of one RInf → CSLS →
	# Hun. → SMat → Sink. round on a prepared exact run (1 pass/op).
	go test -run='^$' -bench=. -benchtime=1x -short ./...

	# Planner smoke. End-to-end -auto path: the planner must print a chosen
	# plan with per-candidate estimates and rejection reasons, then run on
	# the engine it picked. And one illegal engine: the built binary must
	# refuse it with the usage exit code and the message of the rule in
	# internal/engine's table, not a copy of it.
	go build -o "$dir/entmatcher" ./cmd/entmatcher
	go run ./cmd/datagen -profile D-Z -scale 0.02 -out "$dir/planner-data"
	"$dir/entmatcher" -data "$dir/planner-data" -auto -explain -m DInf | tee "$dir/planner.log"
	grep -q 'planner: workload' "$dir/planner.log"
	grep -q 'chosen' "$dir/planner.log"
	grep -q 'rejected' "$dir/planner.log"
	local rc=0
	"$dir/entmatcher" -data "$dir/planner-data" -cand 8 -shards 2 -ann 4 2>"$dir/illegal.log" || rc=$?
	test "$rc" -eq 2
	grep -q 'Shards and ANN are mutually exclusive' "$dir/illegal.log"

	# Server smoke (snapshot, serve, drain). End-to-end crash-safe-serving
	# path: save a quantized snapshot from a tiny datagen corpus, boot
	# entserver on it, hit /readyz, /match/topk (must answer from the SQ8
	# quant tier) and /statsz, then assert a graceful SIGTERM drain (exit 0,
	# "drained" printed with the served-by-tier counters). Every load mode
	# reads the file through the one snapshot.Reader walk, so a second boot
	# with -mmap=false must return the same /match/topk body, and
	# -load-snapshot must print the same matcher rows (name, P, R, F1) with
	# and without -out-of-core.
	local addr=127.0.0.1:18931
	go build -o "$dir/entserver" ./cmd/entserver
	go run ./cmd/datagen -profile D-Z -scale 0.02 -out "$dir/smoke-data"
	"$dir/entmatcher" -data "$dir/smoke-data" -cand 8 -ann 4 -quant -m DInf -save-snapshot "$dir/smoke.snap"
	"$dir/entserver" -snapshot "$dir/smoke.snap" -addr "$addr" >"$dir/entserver.log" 2>&1 &
	srv=$!
	wait_ready "$addr"
	curl -sf "$addr/readyz" | grep -q '"status":"ready"'
	curl -sf "$addr/match/topk?row=0&k=3" | tee "$dir/topk.json" | grep -q '"results"'
	grep -q '"served_by":"quant"' "$dir/topk.json"
	curl -sf "$addr/statsz" | jq -e '.served_quant == 1 and .cache_misses == 1'
	kill -TERM "$srv"
	wait "$srv"
	srv=
	grep -q 'drained' "$dir/entserver.log"
	grep -q 'served quant=1' "$dir/entserver.log"
	"$dir/entserver" -snapshot "$dir/smoke.snap" -mmap=false -addr "$addr" >"$dir/entserver-heap.log" 2>&1 &
	srv=$!
	wait_ready "$addr"
	curl -sf "$addr/readyz" | grep -q '"mmap":false'
	curl -sf "$addr/match/topk?row=0&k=3" >"$dir/topk-heap.json"
	diff "$dir/topk.json" "$dir/topk-heap.json"
	kill -TERM "$srv"
	wait "$srv"
	srv=
	"$dir/entmatcher" -data "$dir/smoke-data" -cand 8 -m DInf,RInf -save-snapshot "$dir/smoke-plain.snap" >/dev/null
	"$dir/entmatcher" -data "$dir/smoke-data" -cand 8 -m DInf,RInf -load-snapshot "$dir/smoke-plain.snap" | awk '/^(DInf|RInf)/ {print $1, $2, $3, $4}' >"$dir/load-heap.txt"
	"$dir/entmatcher" -data "$dir/smoke-data" -cand 8 -m DInf,RInf -load-snapshot "$dir/smoke-plain.snap" -out-of-core | awk '/^(DInf|RInf)/ {print $1, $2, $3, $4}' >"$dir/load-ooc.txt"
	test -s "$dir/load-heap.txt"
	diff "$dir/load-heap.txt" "$dir/load-ooc.txt"
}

harness() {
	# benchmark/ is its own module, so the root build never compiles it and
	# an internal-API refactor could break the repo's yardstick silently.
	# TestDecoratorTransparent/exact is left out: its pass-count assertion
	# waits for the next benchmark change to re-pin it (ROADMAP item 0).
	cd benchmark
	go vet ./...
	go build ./...
	go test -count=1 -run 'TestSpecMatchesBenchmarkJSON|TestSmokeAllWorkloads|TestCompare' ./...
}

layout() {
	# Where the hot loops landed. A Go loop's speed can move with its code
	# alignment, so a change that touches nothing in a hot function can still
	# shift it; this prints addr % 64 and size of the hot text symbols of the
	# entmatcher binary — the rank.go passes, the heap offers, the tile loop,
	# the tile kernels, the IVF walker's f64 score loop, the quant rows
	# kernels and two-phase tail (i8Kernel.finish, which also carries the
	# column statistic), the per-Match finiteness gate and ColMax scans, and
	# the LAP solver behind both Hungarian matchers — for a before/after diff
	# of two checkouts. It checks nothing; symbols the compiler inlined away
	# are absent.
	local hot
	layout_dir=$(mktemp -d)
	trap 'rm -rf "$layout_dir"' EXIT
	go build -o "$layout_dir/entmatcher" ./cmd/entmatcher
	hot='internal/matrix\.(\(\*ranker\)\.[A-Za-z]+|OrderDesc[A-Za-z]*|RanksDesc|\(\*minHeap\)\.(offerRun|down)|offerCols|MulTransposedBlockInto(\.func1)?|tileRows[A-Za-z0-9]*|dotAVX2)$'
	hot+='|internal/matrix\.(\(\*Dense\)\.(FindNonFinite|ColMax)(\.func[0-9])?|rowFinite)$'
	hot+='|internal/sim\.\(\*Stream\)\.StreamTiles$|internal/quant\.(f64Kernel\.score|i8Kernel\.finish|dotI8Rows[14][A-Za-z0-9]*)$'
	hot+='|internal/core\.solveSparseLAP$'
	printf '%-56s %7s %6s\n' symbol 'addr%64' size
	go tool nm -n -size "$layout_dir/entmatcher" | while read -r addr size kind name; do
		name=${name%.abi0} # assembly functions
		if [[ $kind == [Tt] && $name =~ $hot ]]; then
			printf '%-56s %7d %6d\n' "${name#entmatcher/}" $((16#$addr % 64)) "$size"
		fi
	done
}

# cpu_clock prints four cumulative counters: the time in µs, the CPU stall
# time in µs (the "some total" of /proc/pressure/cpu, 0 where PSI is
# unavailable), and the steal and total ticks of /proc/stat's cpu line.
cpu_clock() {
	local stall=0
	[ ! -r /proc/pressure/cpu ] || stall=$(awk '$1 == "some" { sub("total=", "", $5); print $5 }' /proc/pressure/cpu)
	awk -v now="$(date +%s%6N)" -v s="$stall" '$1 == "cpu" { t = 0; for (i = 2; i <= 9; i++) t += $i; print now, s, $9, t; exit }' /proc/stat
}

ab() {
	# A/B pairs of the benchmark harness: the parent checkout (a git worktree
	# of REF under .bench_build/ab/) against this one, each running its own
	# benchmark/run.sh with its own --out for BENCHMARK.json's run_seconds,
	# both on the seed -seed pins (default 1, the harness's own). The parent
	# runs first on odd pairs. Over each run it reads two shares of the CPU:
	# stalled (/proc/pressure/cpu, load inside this machine) and stolen
	# (/proc/stat, load from other guests of a virtual machine's host). A
	# pair whose two runs differ by more than 5 points in either share ran
	# one side beside load the other did not see, and is dropped and run
	# again, at most three times. (A run's own threads hold its stall share
	# at 2–16 % on two cores, so no absolute bound separates other load from
	# the run.) The report per workload is benchmark/run.sh
	# --compare of the kept pairs — medians, spreads, and "regressed" past a
	# metric's bound — with, per metric, the pairs the change won and
	# "better" when at least ten pairs were kept, it won at least 9 in 10 and
	# its median gains more than the parent's interquartile distance. It
	# exits 1 if a metric regressed.
	# It adds no metric and no bound, and edits nothing under benchmark/.
	# Each workload's report is also saved to
	# .bench_build/ab/<parent>-<change>-seed<S>-<workload>.txt, commits as in
	# the header line; an interrupt (INT or TERM, taken once the running
	# harness returns) saves the report of the pairs the workload kept so far
	# under the same name before exiting.
	#   bash ci.sh ab [-n PAIRS] [-seed S] REF [WORKLOAD ...]
	local pairs=10 seed=1
	while [ $# -gt 0 ]; do
		case $1 in
		-n) pairs=$2 && shift 2 ;;
		-seed) seed=$2 && shift 2 ;;
		*) break ;;
		esac
	done
	if [ $# -lt 1 ]; then
		echo "usage: bash ci.sh ab [-n PAIRS] [-seed S] REF [WORKLOAD ...]" >&2
		return 2
	fi
	local ref=$1
	shift
	local workloads=("$@")
	[ ${#workloads[@]} -gt 0 ] || workloads=(paper_dense sparse_exact sparse_indexed serve_mixed)
	ab_root=$PWD ab_tree=$PWD/.bench_build/ab/parent
	local runs=$PWD/.bench_build/ab/runs seconds
	seconds=$(jq -r .run_seconds BENCHMARK.json)
	git worktree remove --force "$ab_tree" 2>/dev/null || true
	git worktree add --detach "$ab_tree" "$ref" >/dev/null
	trap 'git -C "$ab_root" worktree remove --force "$ab_tree"' EXIT
	local parent change header
	parent=$(git -C "$ab_tree" rev-parse --short HEAD)
	change=$(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +dirty)
	header="# ab: parent $parent vs change $change, $pairs pairs, seed $seed, --seconds $seconds"
	echo "$header"
	# Build both harnesses first, so no run's stall window holds a compile.
	(cd "$ab_tree" && bash benchmark/run.sh -h) >/dev/null 2>&1
	bash benchmark/run.sh -h >/dev/null 2>&1

	local wl k try side c0 first dropped report regressed=0
	trap 'ab_interrupted; exit 130' INT TERM
	for wl in "${workloads[@]}"; do
		rm -rf "${runs:?}/$wl"
		report=$ab_root/.bench_build/ab/$parent-$change-seed$seed-$wl.txt
		dropped=0
		for k in $(seq 1 "$pairs"); do
			first=parent
			[ $((k % 2)) -eq 1 ] || first=change
			for try in 1 2 3; do
				declare -A share=()
				for side in $first $([ $first = parent ] && echo change || echo parent); do
					local dir=$ab_root out=$runs/$wl/$k/$side
					[ $side = change ] || dir=$ab_tree
					rm -rf "$out" && mkdir -p "$out"
					c0=$(cpu_clock)
					(cd "$dir" && bash benchmark/run.sh --workload "$wl" --seed "$seed" \
						--seconds "$seconds" --trace 0 --out "$out") >"$out/run.log" 2>&1 || true
					share[$side]=$(awk -v a="$c0" -v b="$(cpu_clock)" 'BEGIN {
						split(a, x, " "); split(b, y, " ")
						printf "%.1f/%.1f", 100 * (y[2] - x[2]) / (y[1] - x[1]), 100 * (y[3] - x[3]) / (y[4] - x[4])
					}')
					if [ ! -s "$out/results.jsonl" ]; then
						echo "ab: $wl pair $k: $side wrote no result (see $out/run.log)" >&2
						return 1
					fi
				done
				echo "ab: $wl pair $k: CPU stall/steal % parent ${share[parent]}, change ${share[change]}" >&2
				awk -v a="${share[parent]}" -v b="${share[change]}" 'BEGIN {
					split(a, x, "/"); split(b, y, "/")
					exit !(x[1] - y[1] > 5 || y[1] - x[1] > 5 || x[2] - y[2] > 5 || y[2] - x[2] > 5)
				}' || break
				echo "ab: $wl pair $k dropped" >&2
				dropped=$((dropped + 1))
				[ "$try" -lt 3 ] || rm -rf "${runs:?}/$wl/$k"
			done
		done
		k=
		echo "$header" >"$report"
		ab_report "$wl" "$runs/$wl" "$dropped" "$pairs" | tee -a "$report" || regressed=1
	done
	trap - INT TERM
	return $regressed
}

# ab_interrupted saves the interrupted workload's report over the pairs it
# completed: the pair in progress (k) is discarded. ab's locals are in scope.
ab_interrupted() {
	[ -n "${wl:-}" ] && [ -n "${k:-}" ] || return 0
	rm -rf "${runs:?}/$wl/$k"
	if ! ls -d "$runs/$wl"/*/ >/dev/null 2>&1; then
		echo "ab: $wl interrupted before its first pair completed; nothing saved" >&2
		return 0
	fi
	echo "$header (interrupted in $wl pair $k)" | tee "$report"
	ab_report "$wl" "$runs/$wl" "$dropped" "$pairs" | tee -a "$report" || true
	echo "ab: $wl interrupted; saved $report" >&2
}

# ab_report prints one workload's table from its pair directories
# (<pair>/<side>/results.jsonl) and fails if a metric regressed. A set that
# kept fewer pairs than the requested N (an interrupt, or a pair dropped on
# every try) is short: its header says so and no row gets a verdict — no
# "better", and --compare's ok/unresolved/regressed reads "short" — though a
# metric past its bound still fails it. A complete set of fewer than ten
# pairs (a smoke run, -n 2) gets no "better" either: over one or two parent
# runs the interquartile distance is about 0, and 2 of 2 wins is a coin
# tossed twice.
ab_report() {
	local wl=$1 dir=$2 dropped=$3 want=$4 k side table wins kept size status=0
	for side in parent change; do
		cat "$dir"/*/$side/results.jsonl >"$dir/$side.jsonl"
	done
	table=$(bash benchmark/run.sh --compare "$dir/parent.jsonl" "$dir/change.jsonl") || status=1
	wins=$(for k in "$dir"/*/; do
		jq -rn --slurpfile p "$k/parent/results.jsonl" --slurpfile c "$k/change/results.jsonl" \
			'$p[0].metrics as $a | $c[0].metrics | to_entries[] | select($a[.key]) | "\(.key)\t\($a[.key].value)\t\(.value.value)"'
	done | awk -F'\t' -v better="$(jq -r '.end_to_end[] | "\(.name)\t\(.better)"' BENCHMARK.json)" '
		BEGIN { nl = split(better, l, "\n"); for (i = 1; i <= nl; i++) { split(l[i], f, "\t"); d[f[1]] = f[2] } }
		$1 in d { n[$1]++; if (d[$1] == "lower" ? $3 < $2 : $3 > $2) w[$1]++ }
		END { for (m in n) print m, w[m] + 0, n[m] }')
	kept=$(ls -d "$dir"/*/ | wc -l)
	size="$kept pairs kept"
	[ "$kept" -eq "$want" ] || size="short: $kept of $want pairs"
	echo "## $wl: $size, $dropped tries dropped, failed operations parent $(jq -s 'map(.failed) | add' "$dir/parent.jsonl"), change $(jq -s 'map(.failed) | add' "$dir/change.jsonl")"
	# "worse" and "spread A" are percent of the parent's median, so the change
	# gains more than the parent's interquartile distance when -worse > spread A.
	awk -v wins="$wins" -v short=$((kept != want)) '
		BEGIN { nl = split(wins, l, "\n"); for (i = 1; i <= nl; i++) { split(l[i], f, " "); w[f[1]] = f[2]; p[f[1]] = f[3] } }
		$1 == "workload" { print $0 "  won"; next }
		short { sub(/  (ok|unresolved|regressed) \(n=/, "  short (n="); print $0 "  " w[$2] "/" p[$2]; next }
		{
			gain = -($5 + 0); n = p[$2]
			print $0 "  " w[$2] "/" n (n >= 10 && gain > $7 + 0 && w[$2] >= int((9 * n + 9) / 10) ? " better" : "")
		}' <<<"$table"
	[ "$status" -eq 0 ] || [ "$kept" -eq "$want" ] || echo "## $wl: a metric is past its bound on this short set"
	return $status
}

case "${1:-}" in
race | harness | guards | kernels | purego | fuzz | smoke | layout) "$1" ;;
ab) shift && ab "$@" ;;
*)
	echo "usage: bash ci.sh race|harness|guards|kernels|purego|fuzz|smoke|layout|ab" >&2
	exit 2
	;;
esac
