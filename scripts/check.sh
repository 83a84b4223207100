#!/usr/bin/env bash
# Tier-1 verification entry point — the exact command CI runs and ROADMAP.md
# names. Run from anywhere; builds into <repo>/build.
#
#   scripts/check.sh                       # configure + build + ctest + bench smoke
#   BUILD_DIR=out scripts/check.sh         # alternate build directory
#   CMAKE_ARGS="-DRELAX_WERROR=ON" scripts/check.sh   # extra configure flags
#   CTEST_ARGS='-R (serve|vm)\.' scripts/check.sh     # run a subset of suites
#   SKIP_BENCH=1 scripts/check.sh          # skip the bench smoke runs
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-build}"

cd "$repo_root"
# shellcheck disable=SC2086  # CMAKE_ARGS is intentionally word-split
cmake -B "$build_dir" -S . ${CMAKE_ARGS:-}
cmake --build "$build_dir" -j
cd "$build_dir"
# shellcheck disable=SC2086  # CTEST_ARGS is intentionally word-split
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
ctest --output-on-failure -j "$jobs" ${CTEST_ARGS:-}

if [[ "${SKIP_BENCH:-0}" == 1 ]]; then
  echo "== bench smoke skipped (SKIP_BENCH=1)"
  exit 0
fi

# Smoke-run the bench harness (timing mode) so driver rot is caught:
# every paper figure and table driver, the examples CTest does not run,
# the compiler micro-benchmarks when Google Benchmark was found, then
# the serving drivers; the repository benchmark (perf/) is smoked last.
# Each fails on a nonzero exit status.
for driver in fig14_nvidia_decode fig15_amd_decode fig16_apple_decode \
              fig17_ablation fig18_s24 fig19_whisper fig20_llava \
              table2_memory table3_platforms; do
  echo "== bench smoke: $driver"
  "./bench_$driver" > /dev/null
done
for example in custom_op_fusion multiplatform_deploy llm_serving; do
  echo "== example smoke: $example"
  "./example_$example" > /dev/null
done
if [[ -x ./bench_micro_compiler ]]; then
  echo "== bench smoke: micro compiler"
  ./bench_micro_compiler --benchmark_min_time=0.01 > /dev/null
fi

# Every gate below reads an exit status or a JSON snapshot, never stdout.
# The serving binary itself fails (exit 1) on FCFS throughput under its
# 256 tok/s floor, a post-warmup decode replay hit-rate under 80%
# (bucketed capture regressed into re-capturing), fewer than 3 in-place
# rewrites on the decode path (DESIGN.md §9), and a missed or
# non-saving shared-prefix match.
echo "== bench smoke: serve throughput"
./bench_serve_throughput

# json_holds EXPR FILE...: succeeds iff the Python expression EXPR holds
# over j, the list of the parsed JSON files.
json_holds() {
  python3 -c 'import json, sys
j = [json.load(open(f)) for f in sys.argv[2:]]
sys.exit(0 if eval(sys.argv[1]) else 1)' "$@"
}

# Speculative decoding gates (DESIGN.md §8). The --spec-k run sweeps
# synthetic acceptance rates; the binary gates the per-rate invariants
# (one target call per step, pool within budget, token counts
# unchanged) and fails unless tokens/s uplift at 0.95 acceptance
# exceeds 1.0x. Its traced repeat of the 0.95 run gates, inside the
# binary, that tracing leaves that run's outcome unchanged, that the
# trace is well nested and that it holds the draft's decode_ragged calls
# beside the target's. Here we pin that merely carrying the speculation
# machinery does not perturb the non-speculative path: the run's
# "policies" results must equal the plain run's.
echo "== bench smoke: serve throughput (speculative, k=4)"
./bench_serve_throughput --spec-k=4 --bench-json=bench_spec.json \
  --trace-out=trace_spec.json --metrics-out=metrics_spec.json |
  sed -n '/^speculative decoding/,$p'
if ! json_holds 'j[0]["policies"] == j[1]["policies"]' \
    BENCH_serve.json bench_spec.json; then
  echo "FAIL: speculation-off results drifted inside the --spec-k run" \
       "(bench_spec.json policies differ from BENCH_serve.json)" >&2
  exit 1
fi
echo "speculation-off identity gate passed (policies equal the plain run)"

# Tensor-parallel gates (DESIGN.md §10). The --tp=4 run shards the
# serving model across four simulated devices with priced ring
# collectives; the binary itself gates the >= 2x saturated speedup, the
# one-call-per-step invariant under sharding, and that the collectives
# carry nonzero time. On top, an explicit --tp=1 must reproduce the
# default invocation byte for byte: both serve on a one-device group
# through the same lockstep call path, so the flag changes nothing.
echo "== bench smoke: serve throughput (tensor parallel)"
./bench_serve_throughput --tp=1 --bench-json=bench_tp1.json > /dev/null
if ! cmp -s BENCH_serve.json bench_tp1.json; then
  echo "FAIL: --tp=1 bench JSON differs from the default run" \
       "(tensor-parallel plumbing perturbed the single-device path)" >&2
  exit 1
fi
echo "tp=1 identity gate passed (bench JSON byte-identical to the default run)"
./bench_serve_throughput --tp=4 --bench-json=bench_tp4.json |
  sed -n '/^tensor parallel/p'
if ! json_holds 'j[0]["tensor_parallel"]["tp"] == 4' bench_tp4.json; then
  echo "FAIL: bench_tp4.json holds no tensor_parallel result with tp == 4" >&2
  exit 1
fi
echo "tensor-parallel gates passed (speedup and collective pricing" \
     "enforced inside the binary)"

# Cluster-router gates: the overload bench fails internally when the
# shed arm does not improve admitted p99 TTFT >= 4x over the unshedded
# control at 2.5x offered load, when shedding rejects everything, or
# when per-tenant budgets fail to isolate the flooding tenant.
echo "== bench smoke: router overload"
./bench_router_overload --bench-json=bench_router.json |
  sed -n '/^admitted p99/p;/^tenant budgets/p'
echo "router overload gates passed (p99 bound, shed valve, tenant budgets)"

# Observability gates (DESIGN.md §7). The instrumented bench run gates
# inside the binary that >= 95% of graph regions inside pure-decode step
# spans are replay-flagged and that enabling tracing does not perturb
# the simulated run; here we pin the two exported artifacts themselves:
#  1. determinism — two identical seeded runs must produce byte-identical
#     trace and metrics JSON (fixed float formatting, insertion order);
#  2. validity — every exported file parses as JSON.
echo "== bench smoke: serve throughput (traced, determinism tripwire)"
./bench_serve_throughput --trace-out=trace_a.json --metrics-out=metrics_a.json \
  --bench-json=bench_a.json > /dev/null
./bench_serve_throughput --trace-out=trace_b.json --metrics-out=metrics_b.json \
  --bench-json=bench_b.json > /dev/null
for pair in "trace_a.json trace_b.json" "metrics_a.json metrics_b.json" \
            "bench_a.json bench_b.json"; do
  # shellcheck disable=SC2086  # pair is two known filenames
  if ! cmp -s $pair; then
    echo "FAIL: identical seeded runs produced different JSON ($pair)" >&2
    exit 1
  fi
done
echo "determinism tripwire passed (trace/metrics/bench JSON byte-identical)"

for f in trace_a.json metrics_a.json bench_a.json bench_spec.json \
         trace_spec.json metrics_spec.json bench_tp4.json bench_router.json; do
  if ! python3 -m json.tool "$f" > /dev/null; then
    echo "FAIL: $f is not valid JSON" >&2
    exit 1
  fi
done
echo "exported JSON validated (trace, metrics, bench snapshot)"

# Aliasing-contract gates (DESIGN.md §9). The serve bench fails internally
# when InplacePlanPass rediscovers fewer than 3 in-place rewrites on the
# decode path; here we pin the differential instrumentation:
#  1. RELAX_ALIAS_CHECK=1 must not perturb the timing-mode run — the
#     shadow copy-in/copy-out reference only engages in data mode, so
#     its bench JSON must equal the plain run's byte for byte;
#  2. the 40-seed fuzz corpus re-runs with every in-place kernel executed
#     twice (aliased vs copy-in/copy-out) and bit-compared.
echo "== bench smoke: serve throughput (RELAX_ALIAS_CHECK identity)"
RELAX_ALIAS_CHECK=1 ./bench_serve_throughput --bench-json=bench_alias.json \
  > /dev/null
if ! cmp -s BENCH_serve.json bench_alias.json; then
  echo "FAIL: RELAX_ALIAS_CHECK perturbed the timing-mode bench" \
       "(bench_alias.json differs from BENCH_serve.json)" >&2
  exit 1
fi
echo "alias-check identity gate passed (bench JSON byte-identical)"

echo "== instrumented fuzz smoke (differential alias verification)"
RELAX_ALIAS_CHECK=1 RELAX_VERIFY_ALIAS=1 \
  ./test_serve --gtest_filter='FuzzTraceTest.*' > /dev/null
echo "instrumented fuzz smoke passed (in-place kernels bit-identical)"

# Repository benchmark smoke (perf/, BENCHMARK.json). perf/ builds its
# own tree (build/perf) against the public serving API, so a change to
# that API fails here rather than only when a benchmark run is due. One
# second of compile_decode builds three Fig. 14 models, probes decode
# and runs its correctness checks, including token identity of a tiny
# data-mode engine; run.py exits nonzero when any check fails.
echo "== benchmark smoke: perf/run.py --workload compile_decode"
python3 "$repo_root/perf/run.py" --workload compile_decode --seconds 1 |
  tail -n 1
echo "benchmark smoke passed (compile_decode correct)"
# One pass of chat is the only run that sends prompts above the per-step
# prefill cap through Llama3-8B's planned storages: the VM refuses a call
# past the compiled bounds or a tensor past its storage, so a chunking
# regression fails here (a pass takes several seconds).
echo "== benchmark smoke: perf/run.py --workload chat"
python3 "$repo_root/perf/run.py" --workload chat --seconds 1 | tail -n 1
echo "benchmark smoke passed (chat correct)"
