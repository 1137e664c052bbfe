#!/usr/bin/env python3
"""Repository benchmark: YCSB workloads against the Kamino-Tx key-value store.

Builds perfbench/kbench.exe from the sources of this checkout (dune, release
profile, build directory .bench_build/) and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.

    python3 perfbench/run.py --selftest

runs every workload at toy scale and checks the benchmark itself: every
metric present with its unit, simulated results and counters repeating
exactly across runs and between traced and untraced runs, and the oracle
catching a planted fault.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "kbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Printed by kbench but not gated (workloads.json says why for each).
REPORTED_ONLY = {
    "wall_op_p50_us": "us",
    "wall_op_p99_us": "us",
    "sim_read_p50_ns": "ns",
    "sim_read_p99_ns": "ns",
    "sim_write_p50_ns": "ns",
    "sim_write_p99_ns": "ns",
    "recover_sim_us": "us",
    "failed_ops_ratio": "ratio",
}

# Gated simulated results: a pure function of (workload, seed, seconds).
SIM_METRICS = ["sim_ops_per_s", "sim_read_mean_ns", "sim_write_mean_ns"]


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(name):
    path = os.path.join(ROOT, name) if name == "BENCHMARK.json" else os.path.join(HERE, name)
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    for need in ("dune-project", os.path.join("lib", "kvstore", "kv.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a full checkout of the repository" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_BUILD_DIR=BUILD_DIR, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ROOT, "--profile", "release", "--cache", "disabled",
           "--display", "quiet", "./perfbench/kbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed", 3)


def run_kbench(args):
    """Runs kbench; returns (exit code, stdout lines)."""
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("kbench %s timed out" % " ".join(args), 4)
    return r.returncode, r.stdout.decode(errors="replace").splitlines()


def line_value(lines, prefix):
    for line in lines:
        if line.startswith(prefix + " "):
            return line[len(prefix) + 1:]
    return None


def check_config(lines, name):
    """The settings kbench ran with must be the ones workloads.json records."""
    spec = load_json("workloads.json")
    want = next((w for w in spec["workloads"] if w["name"] == name), None)
    got = line_value(lines, "config")
    if want is None or got is None:
        return "workload %s is not described in workloads.json" % name
    got = json.loads(got)
    diff = sorted(k for k in got if want.get(k) != got[k])
    if diff:
        return "workloads.json disagrees with kbench on %s: %s" % (name, ", ".join(diff))
    return None


def check_metrics(result, trace):
    """Every metric BENCHMARK.json names for this mode, with its unit, and
    no other."""
    bench = load_json("BENCHMARK.json")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong = sorted(k for k in want if k in got and got[k] != want[k])
    problems = []
    if missing:
        problems.append("missing " + ", ".join(missing))
    if extra:
        problems.append("unexpected " + ", ".join(extra))
    if wrong:
        problems.append("wrong unit for " + ", ".join(wrong))
    return "; ".join(problems) or None


def bench(args):
    build()
    code, lines = run_kbench(["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail("kbench exited %d without a result" % code, code or 1)
    result = json.loads(lines[-1])
    problems = [p for p in (check_config(lines, args.workload),
                            check_metrics(result, args.trace)) if p]
    print("\n".join(lines[:-1]))
    if problems:
        print("\n".join("FAILED: " + p for p in problems))
        result["correct"] = False
        code = code or 1
    print(json.dumps(result))
    sys.exit(code)


def selftest():
    """Toy-scale checks of the benchmark itself."""
    build()
    errors = []
    spec = load_json("workloads.json")
    seed = spec["default_seed"]

    def run(name, *extra):
        code, lines = run_kbench(["--toy", "--workload", name, "--seed", str(seed),
                                  "--seconds", "2"] + list(extra))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        return code, lines, result

    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for trace in ("0", "0", "1"):
            code, lines, result = run(name, "--trace", trace)
            if code != 0 or result is None or not result["correct"]:
                errors.append("%s --trace %s: exit %d, result %s" % (name, trace, code, result))
                continue
            problem = check_metrics(result, int(trace))
            if problem:
                errors.append("%s --trace %s: %s" % (name, trace, problem))
            for metric, unit in REPORTED_ONLY.items():
                line = next((l for l in lines if l.split()[:1] == [metric]), None)
                if line is None or line.split()[2] != unit:
                    errors.append("%s: %s not printed with unit %s" % (name, metric, unit))
            runs.append((trace, lines, result))
        if len(runs) == 3:
            (_, l0, r0), (_, l1, r1), (_, l2, _) = runs
            sigs = {line_value(l, "signature") for l in (l0, l1, l2)}
            if len(sigs) != 1:
                errors.append("%s: simulated results or counters differ across runs: %s"
                              % (name, sorted(sigs)))
            for m in SIM_METRICS:
                if r0["metrics"][m]["value"] != r1["metrics"][m]["value"]:
                    errors.append("%s: %s differs across runs" % (name, m))
        code, lines, result = run(name, "--trace", "0", "--plant-fault")
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            errors.append("%s: the planted fault went unnoticed (exit %d, %s)"
                          % (name, code, result and result["failed"]))
        print("selftest %s: %s" % (name, "ok" if not errors else "FAILED"))
    for e in errors:
        print("FAILED: " + e)
    sys.exit(1 if errors else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        selftest()
    spec = load_json("workloads.json")
    if args.workload is None:
        fail("--workload is required (one of %s)"
             % ", ".join(w["name"] for w in spec["workloads"]))
    if args.seed is None:
        args.seed = spec["default_seed"]
    if args.seconds is None:
        args.seconds = load_json("BENCHMARK.json")["run_seconds"]
    bench(args)


if __name__ == "__main__":
    main()
