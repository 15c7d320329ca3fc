#!/usr/bin/env bash
# ci.sh — CI legs a builder can run locally. The workflow
# (.github/workflows/ci.yml) calls the same legs, so "green here" means
# "green there".
#
#   bash ci.sh guards    the per-subsystem regression guards
#   bash ci.sh kernels   the f64 tile kernel and the SQ8 scan on every kernel
#                        tier of this host, and the answer digests on both
#                        dot arithmetics
#   bash ci.sh harness   the benchmark harness (its own module) vets, builds
#                        and passes its own tests
#   bash ci.sh layout    addr % 64 and size of the hot symbols in entmatcher
set -euo pipefail
cd "$(dirname "$0")"

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
	# the orders run at CSLS k = 1 and 3. Both kernel legs: the asm build, and
	# the purego scalar fallbacks (-short there: twelve of the 120 matcher
	# orders, the scalar kernels under -race are slow).
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

	# Dense bodies. The dense SMat, RInf, Sinkhorn and Hungarian bodies run on
	# one packed-key ranking primitive, one fused sweep per Sinkhorn iteration
	# and one fused column pass per augmentation step (DESIGN.md §19), the
	# last two on AVX2 kernels where the CPU has them; SinkhornSparse defers
	# its column scale the same way. The -race legs hold the primitive to its
	# stable-sort reference (−0.0 ties +0.0, both sides of the
	# insertion/radix switch); the sweep and LAP-step kernels to the Go
	# bodies on every tier the host has (forced through internal/matrix's
	# export_test.go: ragged rows and columns, eps-guarded rows, dead
	# columns, signed zeros and ties at the pivot, whole rectangular,
	# transposed and dummy-padded assignments); the four bodies and the two
	# orders that left sort.Slice to the pre-rewrite code kept in
	# internal/core/reference_test.go — pairs, scores, abstentions and
	# transform matrices bit for bit — cancellation to every checkpoint and
	# mid-sweep, and Table 6's memory order. -cpu varies the strips in
	# flight behind the sweep's ordered hand-off; -tags purego runs it all
	# again on the Go bodies alone. The plain leg adds what -race skips:
	# zero allocations per ranked row on warm scratch and the Figure 5 time
	# shape. The last line keeps BenchmarkDenseBodies compiling.
	local dense='Ranking|DenseBodies|SinkhornDeferred|Table6MemoryOrder|SinkhornSweep|LAPScan|LAPSolve|HungarianMatchesReference|Orderings|SinkhornCancelMidSweep'
	go test -race -count=1 -cpu 1,2,4 -run "$dense" ./internal/matrix ./internal/core
	go test -race -count=1 -cpu 1,2,4 -tags purego -run "$dense" ./internal/matrix ./internal/core
	go test -count=1 -run 'RankingAllocatesNothingWarm|Figure5TimeShape' ./internal/matrix ./internal/core
	go test -run '^$' -bench DenseBodies -benchtime 1x .
}

kernels() {
	# The f64 tile kernel — MulTransposedBlockInto, behind every streamed tile,
	# dense strip, Stream.Block and MulTransposed, and matrix.TileKernel,
	# behind every probed run of the IVF walker — must emit the bits of the
	# per-pair Dot4 whichever tier the machine picks: the 6-row AVX512VL kernel,
	# the 3-row AVX2 kernel or the per-pair Go dispatch (internal/matrix's
	# kernels.go). Inside internal/matrix the TileKernel tests force every tier
	# the host supports through export_test.go (ragged row groups, dimensions
	# around the 16-element step, offsets, signed zeros and subnormals, in the
	# tile's orientation and the walker's); the heap-layout and MulTransposed
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
	# abstentions, P/R/F1 and candidate graphs must hash to
	# testdata/digests.txt on the asm build and under -tags purego, each at
	# -cpu 1,2,4 (the worker pool's chunking must not move a bit). The Go dot
	# product sums in another order than the FMA kernel, so the one file
	# holds a set of cells per dot arithmetic and each leg checks its own.
	go test -count=1 -cpu 1,2,4 -run Digest .
	go test -count=1 -cpu 1,2,4 -tags purego -run Digest .
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
	# the tile kernels, the IVF walker's f64 score loop and the quant rows
	# kernels — for a before/after diff of two checkouts. It checks nothing; symbols the compiler inlined away are
	# absent.
	local hot
	layout_dir=$(mktemp -d)
	trap 'rm -rf "$layout_dir"' EXIT
	go build -o "$layout_dir/entmatcher" ./cmd/entmatcher
	hot='internal/matrix\.(\(\*ranker\)\.[A-Za-z]+|OrderDesc[A-Za-z]*|RanksDesc|\(\*minHeap\)\.(offerRun|down)|offerCols|MulTransposedBlockInto(\.func1)?|tileRows[A-Za-z0-9]*|dotAVX2)$'
	hot+='|internal/sim\.\(\*Stream\)\.StreamTiles$|internal/quant\.(f64Kernel\.score|dotI8Rows[14][A-Za-z0-9]*)$'
	printf '%-56s %7s %6s\n' symbol 'addr%64' size
	go tool nm -n -size "$layout_dir/entmatcher" | while read -r addr size kind name; do
		name=${name%.abi0} # assembly functions
		if [[ $kind == [Tt] && $name =~ $hot ]]; then
			printf '%-56s %7d %6d\n' "${name#entmatcher/}" $((16#$addr % 64)) "$size"
		fi
	done
}

case "${1:-}" in
guards) guards ;;
kernels) kernels ;;
harness) harness ;;
layout) layout ;;
*)
	echo "usage: bash ci.sh guards|kernels|harness|layout" >&2
	exit 2
	;;
esac
