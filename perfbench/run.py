#!/usr/bin/env python3
"""Entry point of the lft benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the repository root. Configures and builds perfbench/ (the core
library plus the lft_perfbench program) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. The program's
report passes through; its last line, the raw values by name, is replaced
by the result line: one JSON object with the metrics BENCHMARK.json names
(end_to_end untraced, per_layer traced), in its order and with its units.
BENCHMARK.json is the only metric catalogue; a per-layer metric the
workload does not exercise reads 0. Build output goes to stderr. The exit
status is the program's: non-zero when an output check failed, and also
when an end-to-end metric is missing or the tree holds no library sources
to build.

--selfcheck runs every workload at tiny sizes in both modes and checks that
each passes its audits, reports every end-to-end metric, and that the
per-layer values the workloads report are exactly BENCHMARK.json's list.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_closed", "serve_open", "sim_fleet", "sim_scale")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no library sources next to perfbench/ (need CMakeLists.txt and src/)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry the configure next time
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "lft_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, "lft_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(binary, workload, seed, seconds, trace, tiny=False):
    """Runs the program; returns (exit status, its report lines, its raw result)."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={trace}"]
    if trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append(f"--trace-out={os.path.join(trace_dir, f'{workload}-seed{seed}.jsonl')}")
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        raw = None
    if isinstance(raw, dict) and "values" in raw:
        lines = lines[:-1]
    else:
        raw = None
    return proc.returncode, lines, raw


def result_line(spec, trace, raw):
    """The benchmark's result: BENCHMARK.json's metrics with their units."""
    values = raw["values"]
    correct = raw["correct"] is True
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in values]
    if missing and not trace:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        correct = False
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    return {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def selfcheck(binary):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ok = sorted(names) == sorted(WORKLOADS)
    if not ok:
        print(f"workloads {names} != {list(WORKLOADS)}")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    layers_seen = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            status, _, raw = run(binary, workload, 1, 0.3, trace, tiny=True)
            problems = []
            if status != 0 or raw is None or raw.get("correct") is not True:
                problems.append("audit failed")
            values = set(raw["values"]) if raw else set()
            if trace:
                layers_seen |= values
                if values - per_layer:
                    problems.append(f"not in per_layer: {sorted(values - per_layer)}")
            elif end_to_end - values:
                problems.append(f"missing end_to_end: {sorted(end_to_end - values)}")
            print(f"{workload:13} trace={trace} {'ok' if not problems else 'FAILED'}"
                  + "".join(f"\n    {p}" for p in problems))
            ok = ok and not problems
    if per_layer - layers_seen:
        print(f"per_layer metrics no workload reports: {sorted(per_layer - layers_seen)}")
        ok = False
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    binary = build()
    if args.selfcheck:
        return selfcheck(binary)
    status, lines, raw = run(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if raw is None:
        print("perfbench: the program printed no result", file=sys.stderr)
        return status or 1
    result = result_line(load_spec(), args.trace, raw)
    print(json.dumps(result))
    return status if result["correct"] else (status or 1)


if __name__ == "__main__":
    sys.exit(main())
