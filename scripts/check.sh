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

# Smoke-run the bench harness (timing mode, fast) so driver rot is caught:
# one paper-figure driver plus the serving-throughput driver; the
# repository benchmark (perf/) is smoked last.
echo "== bench smoke: fig14 nvidia decode"
./bench_fig14_nvidia_decode > /dev/null
echo "== bench smoke: serve throughput"
serve_out="$(./bench_serve_throughput)"
printf '%s\n' "$serve_out"

# Zero-relayout gate (DESIGN.md §5): the page-pool serving path must
# never copy cache bytes on the host — EngineStats.relayoutBytes is a
# tripwire that any future host-side cache stack/split/pad must
# increment, and this gate turns tripping it into a tier-1 failure.
relayout="$(printf '%s\n' "$serve_out" |
  sed -n 's/^host cache relayout bytes: \([0-9]*\)$/\1/p' | tail -1)"
if [[ -z "$relayout" ]]; then
  echo "FAIL: bench_serve_throughput did not report relayout bytes" >&2
  exit 1
fi
if [[ "$relayout" != 0 ]]; then
  echo "FAIL: serving relayouted ${relayout} cache bytes on the host" \
       "(page-pool decode must relayout none)" >&2
  exit 1
fi
echo "zero-relayout gate passed (0 host cache bytes copied)"

# Regression guard for bucketed execution-graph capture: steady-state
# decode must replay captured graphs at the documented >= 80% post-warmup
# rate (docs/BENCHMARKS.md). Anything lower means the serving path is
# re-capturing instead of replaying (the pre-bucketing gap, or a
# signature churn regression).
min_hit_rate=80
hit_rate="$(printf '%s\n' "$serve_out" |
  sed -n 's/^decode replay hit-rate after warmup: \([0-9.]*\)%$/\1/p' |
  tail -1)"
if [[ -z "$hit_rate" ]]; then
  echo "FAIL: bench_serve_throughput did not report a replay hit-rate" >&2
  exit 1
fi
if ! awk -v rate="$hit_rate" -v min="$min_hit_rate" \
    'BEGIN { exit (rate >= min) ? 0 : 1 }'; then
  echo "FAIL: decode replay hit-rate after warmup is ${hit_rate}%" \
       "(threshold ${min_hit_rate}%)" >&2
  exit 1
fi
echo "decode replay hit-rate gate passed (${hit_rate}% >= ${min_hit_rate}%)"

# Speculative decoding gates (DESIGN.md §8). The --spec-k run sweeps
# synthetic acceptance rates; the binary gates the per-rate invariants
# (one target call per step, zero relayout, pool within budget, token
# counts unchanged). Here we pin two things on top:
#  1. the k=0 baseline inside the speculative binary is byte-identical
#     to the plain run's FCFS result — merely carrying the speculation
#     machinery may not perturb the non-speculative path;
#  2. tokens/s uplift at high acceptance is real (> 1.0x).
echo "== bench smoke: serve throughput (speculative, k=4)"
spec_out="$(./bench_serve_throughput --spec-k=4 --bench-json=bench_spec.json)"
printf '%s\n' "$spec_out" | sed -n '/^speculative decoding/,$p'
plain_fcfs="$(printf '%s\n' "$serve_out" | sed -n 's/^fcfs throughput: //p')"
spec_fcfs="$(printf '%s\n' "$spec_out" | sed -n 's/^fcfs throughput: //p')"
if [[ -z "$spec_fcfs" || "$spec_fcfs" != "$plain_fcfs" ]]; then
  echo "FAIL: speculation-off baseline drifted inside the --spec-k run" \
       "('$spec_fcfs' vs '$plain_fcfs')" >&2
  exit 1
fi
echo "speculation-off identity gate passed (k=0 FCFS: ${spec_fcfs})"
uplift="$(printf '%s\n' "$spec_out" |
  sed -n 's/^speculation uplift at 0.95 acceptance: \([0-9.]*\)x$/\1/p' |
  tail -1)"
if [[ -z "$uplift" ]]; then
  echo "FAIL: --spec-k run did not report an uplift" >&2
  exit 1
fi
if ! awk -v u="$uplift" 'BEGIN { exit (u > 1.0) ? 0 : 1 }'; then
  echo "FAIL: speculative decoding uplift is ${uplift}x (must be > 1)" >&2
  exit 1
fi
echo "speculation uplift gate passed (${uplift}x at 0.95 acceptance)"

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
tp_out="$(./bench_serve_throughput --tp=4 --bench-json=bench_tp4.json)"
printf '%s\n' "$tp_out" | sed -n '/^tensor parallel/p'
if ! printf '%s\n' "$tp_out" | grep -q '^tensor parallel (tp = 4'; then
  echo "FAIL: --tp=4 run did not report a tensor-parallel result" >&2
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

if command -v python3 > /dev/null; then
  for f in trace_a.json metrics_a.json bench_a.json bench_spec.json \
           bench_tp4.json bench_router.json; do
    if ! python3 -m json.tool "$f" > /dev/null; then
      echo "FAIL: $f is not valid JSON" >&2
      exit 1
    fi
  done
  echo "exported JSON validated (trace, metrics, bench snapshot)"
else
  echo "python3 not found; skipping JSON schema validation"
fi

# Aliasing-contract gates (DESIGN.md §9). The serve bench fails internally
# when InplacePlanPass rediscovers fewer than 3 in-place rewrites on the
# decode path; here we pin the exported plan report (Table 2 activation
# memory tracking) and the differential instrumentation:
#  1. the memory-plan line must be present (storages/bytes/reuse/in-place);
#  2. RELAX_ALIAS_CHECK=1 must not perturb the timing-mode run — the
#     shadow copy-in/copy-out reference only engages in data mode;
#  3. the 40-seed fuzz corpus re-runs with every in-place kernel executed
#     twice (aliased vs copy-in/copy-out) and bit-compared.
plan_line="$(printf '%s\n' "$serve_out" | sed -n 's/^memory plan: //p' | tail -1)"
if [[ -z "$plan_line" ]]; then
  echo "FAIL: bench_serve_throughput did not report a memory plan" >&2
  exit 1
fi
echo "memory plan report: ${plan_line}"

echo "== bench smoke: serve throughput (RELAX_ALIAS_CHECK identity)"
alias_out="$(RELAX_ALIAS_CHECK=1 ./bench_serve_throughput)"
base_fcfs="$(printf '%s\n' "$serve_out" | sed -n 's/^fcfs throughput: //p')"
alias_fcfs="$(printf '%s\n' "$alias_out" | sed -n 's/^fcfs throughput: //p')"
if [[ -z "$alias_fcfs" || "$alias_fcfs" != "$base_fcfs" ]]; then
  echo "FAIL: RELAX_ALIAS_CHECK perturbed the timing-mode bench" \
       "('$alias_fcfs' vs '$base_fcfs')" >&2
  exit 1
fi
echo "alias-check identity gate passed (FCFS: ${alias_fcfs})"

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
