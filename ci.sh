#!/usr/bin/env bash
# ci.sh — CI legs a builder can run locally. The workflow
# (.github/workflows/ci.yml) calls the same legs, so "green here" means
# "green there".
#
#   bash ci.sh guards    the per-subsystem regression guards
#   bash ci.sh kernels   the SQ8 scan on every int8 kernel tier of this host
set -euo pipefail
cd "$(dirname "$0")"

guards() {
	# Coalescer. Request coalescing must be invisible to clients: the -race
	# leg races the storm-identity (healthy and degraded), cancellation-
	# isolation and drain-flush protocols and holds every tier's answer for a
	# row independent of its batchmates; the non-race leg pins the
	# steady-state allocation budget (the allocs test skips under -race, where
	# the runtime's own bookkeeping would drown the measurement).
	go test -race -count=1 -run 'Coalesc|DrainFlushes|RowAnswerIndependent' ./internal/server/
	go test -count=1 -run 'TestCoalescerSteadyStateAllocs' ./internal/server/

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
	# its pooled backing back. Both kernel legs, as above.
	local consumers='Consumer|RunningTopK|ColTopKAcc|StreamParts|StreamMatchesDense'
	go test -race -count=1 -cpu 1,2,4 -run "$consumers" ./internal/matrix ./internal/core ./internal/shard
	go test -race -count=1 -short -cpu 1,2,4 -tags purego -run "$consumers" ./internal/matrix ./internal/core ./internal/shard
	go test -count=1 -run 'ConsumersReleaseBacking' ./internal/core

	# Dense bodies. The dense SMat, RInf and Sinkhorn bodies run on one
	# packed-key ranking primitive and one fused sweep per iteration
	# (DESIGN.md §19); SinkhornSparse defers its column scale the same way.
	# The -race leg holds the primitive to its stable-sort reference (−0.0
	# ties +0.0, both sides of the insertion/radix switch), the three bodies
	# to the pre-rewrite bodies kept in internal/core/reference_test.go —
	# pairs, scores, abstentions and transform matrices bit for bit —
	# cancellation to every checkpoint, and Table 6's memory order. The plain
	# leg adds what -race skips: zero allocations per ranked row on warm
	# scratch and the Figure 5 time shape. The last line keeps
	# BenchmarkDenseBodies compiling.
	go test -race -count=1 -cpu 1,2,4 -run 'Ranking|DenseBodies|SinkhornDeferred|Table6MemoryOrder' ./internal/matrix ./internal/core
	go test -count=1 -run 'RankingAllocatesNothingWarm|Figure5TimeShape' ./internal/matrix ./internal/core
	go test -run '^$' -bench DenseBodies -benchtime 1x .
}

kernels() {
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
}

case "${1:-}" in
guards) guards ;;
kernels) kernels ;;
*)
	echo "usage: bash ci.sh guards|kernels" >&2
	exit 2
	;;
esac
