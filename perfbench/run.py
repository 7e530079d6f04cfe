#!/usr/bin/env python3
"""Repository benchmark: build perfbench/ from source and run one workload.

    python3 perfbench/run.py --workload reproduce|serve_open|cluster_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
C++ harness (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit status 0 only when every correctness check passed.

    python3 perfbench/run.py --selftest

builds and runs the harness self-tests instead.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("reproduce", "serve_open", "cluster_mixed")
# setup_s is the median over this many set-up-only launches plus the
# measured launch itself.
SETUP_LAUNCHES = 8
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def launch(binary, args, echo):
    """Run the harness once; returns (launch time in ns, parsed last line)."""
    started = time.monotonic_ns()  # CLOCK_MONOTONIC, as steady_clock in C++
    proc = subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            log(line)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if not lines:
        raise RuntimeError(f"harness printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"harness exited with {proc.returncode}")
    return started, result


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this trace level, if present."""
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    out = build(["perfbench"])
    binary = os.path.join(out, "perfbench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_LAUNCHES):
            started, r = launch(binary, common + ["--setup-only"], echo=False)
            setup.append((r["first_op_ns"] - started) * 1e-9)

    trace_out = os.path.join(out, f"trace_{args.workload}_{args.seed}.json")
    extra = ["--trace-out", trace_out] if args.trace else []
    started, r = launch(binary, common + extra, echo=True)
    metrics = r["metrics"]
    if not args.trace:
        setup.append((r["first_op_ns"] - started) * 1e-9)
        log("setup_s samples:", ", ".join(f"{s:.4f}" for s in setup))
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    correct = bool(r["correct"])
    declared = declared_metrics(args.trace)
    if declared is not None:
        printed = {name: m["unit"] for name, m in metrics.items()}
        if printed != declared:
            log("metrics differ from BENCHMARK.json:",
                sorted(set(printed.items()) ^ set(declared.items())))
            correct = False
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


def selftest():
    out = build(["perfbench_selftest"])
    return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    try:
        return run(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, ValueError, KeyError, OSError) as e:
        log("perfbench:", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
