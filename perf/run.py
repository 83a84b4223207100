#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perf/README.md explains it).

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1 | --traced] [--repeat N]

Builds relax_core and perf/*.cc into build/perf/relax_perf, runs each
workload in its own single-threaded process, prints one
`workload metric value unit` line per metric, writes
build/perf/results.json and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Untraced runs report the end-to-end metrics; traced runs report the
per-layer metrics and write build/perf/<workload>.trace.json.

--repeat N runs each workload N times on one seed, prints the median and
quartiles of every metric, and fails when an exact metric (simulated
clock or count) differs between repeats or when a host metric's
quartile spread exceeds its bound in BENCHMARK.json.

Exits 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not be built or run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build", "perf")
BINARY = os.path.join(BUILD, "relax_perf")
WORKLOADS = ["chat", "shared_prefix", "cluster", "compile_decode"]
DEFAULT_SEED = 1
DEFAULT_SECONDS = 10
# A run must end within 180 s; leave the rest for start-up and parsing.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perf/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", os.path.join(ROOT, "perf"), "-B", BUILD]
    compile_ = ["cmake", "--build", BUILD, "--target", "relax_perf", "-j", jobs]
    for step in (configure, compile_):
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            fail("build failed: " + " ".join(step))


def load_spec():
    """BENCHMARK.json: the declared metrics, their units and bounds."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def run_once(workload, seed, seconds, traced):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        cmd += ["--trace-out", os.path.join(BUILD, workload + ".trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no report (exit code %d)"
             % (workload, proc.returncode))
    report = json.loads(lines[-1])
    report["exit_code"] = proc.returncode
    return report


def select(report, scope, spec, errors):
    """The report's metrics of one scope, checked against BENCHMARK.json."""
    metrics = {name: m for name, m in report["metrics"].items()
               if m["scope"] == scope}
    if spec is not None:
        declared = spec[scope]
        if set(metrics) != set(declared):
            errors.append("%s: reported %s metrics differ from BENCHMARK.json: "
                          "%s" % (report["workload"], scope,
                                  sorted(set(metrics) ^ set(declared))))
        for name, m in metrics.items():
            if name in declared and m["unit"] != declared[name]["unit"]:
                errors.append("%s: unit of %s is %s, BENCHMARK.json says %s"
                              % (report["workload"], name, m["unit"],
                                 declared[name]["unit"]))
    return metrics


def summarize(workload, runs, scope, spec, errors):
    """Median and quartiles of each metric over repeats of one seed."""
    summary = {}
    for name in runs[0]:
        values = [run[name]["value"] for run in runs]
        unit, clock = runs[0][name]["unit"], runs[0][name]["clock"]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0], None, values[0]))
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"value": median, "unit": unit, "clock": clock,
                         "q1": q1, "q3": q3, "spread": spread}
        print("%s %s median %.6g q1 %.6g q3 %.6g spread %.4f %s"
              % (workload, name, median, q1, q3, spread, unit))
        if clock == "exact" and len(set(values)) > 1:
            errors.append("%s: exact metric %s differs between repeats: %s"
                          % (workload, name, values))
        bound = (spec or {}).get(scope, {}).get(name, {}).get("bound")
        if clock == "host" and bound is not None and spread > bound:
            errors.append("%s: %s spread %.4f exceeds its bound %.4f; "
                          "lengthen the run rather than widen the bound"
                          % (workload, name, spread, bound))
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="host seconds each run measures, at least")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    traced = args.traced or args.trace == 1
    scope = "per_layer" if traced else "end_to_end"
    if args.repeat < 1:
        fail("--repeat must be at least 1")

    build()
    spec = load_spec()
    errors, results = [], {}
    attempted = failed = 0
    final = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        runs = []
        for _ in range(args.repeat):
            report = run_once(workload, args.seed, args.seconds, traced)
            errors += ["%s: %s" % (workload, e) for e in report["errors"]]
            if report["exit_code"] and not report["errors"]:
                errors.append("%s: exit code %d" % (workload,
                                                    report["exit_code"]))
            attempted += report["attempted"]
            failed += report["failed"]
            runs.append(select(report, scope, spec, errors))
        if args.repeat > 1:
            metrics = summarize(workload, runs, scope, spec, errors)
        else:
            metrics = runs[0]
            for name, m in metrics.items():
                print("%s %s %.17g %s"
                      % (workload, name, m["value"], m["unit"]))
        results[workload] = {"seed": args.seed, "scope": scope,
                             "runs": runs, "metrics": metrics}
        prefix = "" if args.workload else workload + "."
        for name, m in metrics.items():
            final[prefix + name] = {"value": m["value"], "unit": m["unit"]}

    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "results.json"), "w") as f:
        json.dump({"results": results, "errors": errors}, f, indent=1)
    for error in errors:
        print("FAIL: " + error, file=sys.stderr)
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
