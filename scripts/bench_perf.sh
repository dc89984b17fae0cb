#!/usr/bin/env bash
# Runs the hot-path microbenchmarks and records the numbers that back the
# performance claims in BENCH_PR8.json at the repo root: the PR 1 pairs
# (single-pass MPD closest pair vs the three-scan reference,
# merge-sort-tree LR counting vs the linear scan), DetectBatch
# throughput at 1 vs 4 threads, the PR 4 offline pipeline sweep
# (BM_OfflineBuild at 1/2/4/8 shards, BM_OfflineMerge fold cost), the
# UDSNAP v2 load costs (BM_ModelLoadV2 and BM_ReloadLatency across
# observation counts, BM_LrQueryLoadedModel over mapped v2 storage;
# the v1 and legacy-text legs went with those formats), and the PR 6
# pairs (BM_CountSurprising
# with the SIMD kernels on vs forced scalar, BM_DetectBatchWarmCache
# vs the cold BM_DetectBatch, BM_LrQueryLoadedModel over f16 vs f32
# observation sections), and the PR 8 layered-serving sweep
# (BM_ApplyDelta incremental publish vs the BM_ReloadLatency v2 floor,
# BM_LrQueryLayered at K = 0/1/2/5 resident delta layers, BM_Compact
# fold-and-swap cost), and the cold column profile (BM_DetectTableCold,
# a fresh table copy per iteration, against the warm BM_DetectTable;
# BM_ColumnProfile, the first read of type(), NumericValues() and
# Encoding() on a fresh numeric, part-code and text column). Each
# optimized path and its baseline live in the same binary, so one run
# captures both sides.
#
# Usage: scripts/bench_perf.sh [extra benchmark args...]
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -x build/bench/bench_perf ]]; then
  cmake -B build -S .
  cmake --build build -j --target bench_perf
fi

# The perf- and offline-labelled ctest slices guard the numbers below:
# benchmarks are only meaningful if the optimized paths agree with the
# references and the sharded build is bit-identical to single-shot.
ctest --test-dir build -L 'perf|offline' --output-on-failure

build/bench/bench_perf \
  --benchmark_filter='BM_(MpdProfile|MpdProfileReference|LrQuery|LrQueryLinear|LrQueryLoadedModel|LrQueryLayered|CountSurprising|BoundedEditDistance|EditDistance|LikelihoodRatioLookup|ModelLoadV2|ReloadLatency|ApplyDelta|Compact|DetectBatch|DetectBatchWarmCache|DetectTable|DetectTableCold|ColumnProfile|OfflineBuild|OfflineMerge)' \
  --benchmark_format=json \
  --benchmark_out=BENCH_PR8.json \
  --benchmark_out_format=json \
  "$@"

echo "Wrote $(pwd)/BENCH_PR8.json"
