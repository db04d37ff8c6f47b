#!/usr/bin/env python3
"""The overlay benchmark: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

NAME is one of ctl-churn-join, dp-sim-flood, dp-udp (BENCHMARK.json says
what each one loads and why).  The script builds perfbench/main.exe with
dune, runs it, passes its table through, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
are BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1).

Untraced runs also keep a determinism fingerprint: the simulator's exact
counters, stored per (workload, seed, seconds, binary) under .perfbench/.
A later run of the same binary on the same inputs that reads different
values is not noise but a non-deterministic program, and fails.

--smoke runs every workload briefly, untraced and traced, and checks the
result objects.  A workload that cannot run here (dp-udp without loopback
sockets, exit code 77) is counted as skipped, never as passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

SPEC_FILE = "BENCHMARK.json"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
STATE = ".perfbench"
RUN_TIMEOUT_S = 170
SKIPPED = 77
SMOKE_SECONDS = {"ctl-churn-join": 8, "dp-sim-flood": 1, "dp-udp": 2}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_tree():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune"), SPEC_FILE):
        if not os.path.exists(path):
            fail("run from the repository root; %s is missing" % path)


def build():
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except FileNotFoundError:
        fail("dune is not on PATH")
    if proc.returncode != 0:
        fail("build failed", 1)


def exe_digest():
    with open(EXE, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def measure(workload, seed, seconds, trace):
    """Runs the measuring program; returns its full result object, or
    None when the workload skipped itself."""
    os.makedirs(STATE, exist_ok=True)
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans", os.path.join(STATE, "spans-%s-seed%s.json" % (workload, seed))]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    if proc.returncode == SKIPPED:
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode), 1)
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def fingerprint(result, workload, seed, seconds):
    """Records the exact counters; returns the ones that drifted from an
    earlier run of the same binary on the same inputs."""
    exact = {name: result["metrics"][name]["value"] for name in result["exact"]}
    if not exact:
        return []
    folder = os.path.join(STATE, "fingerprints")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "%s-seed%s-s%s-%s.json" % (workload, seed, seconds, exe_digest()))
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(exact, f, indent=1, sort_keys=True)
        return []
    with open(path) as f:
        before = json.load(f)
    return ["%s: %r then %r" % (k, before.get(k), v) for k, v in sorted(exact.items())
            if before.get(k) != v]


def gate_result(result, spec, trace):
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in names:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("benchmark bug: %s was not measured" % m["name"], 1)
        if got["unit"] != m["unit"]:
            fail("benchmark bug: %s measured in %s, declared in %s"
                 % (m["name"], got["unit"], m["unit"]), 1)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_one(spec, workload, seed, seconds, trace):
    """The gate's result object, or None when skipped."""
    result = measure(workload, seed, seconds, trace)
    if result is None:
        return None
    out = gate_result(result, spec, trace)
    if not trace:
        drift = fingerprint(result, workload, seed, seconds)
        for line in drift:
            print("  DRIFT (the program is no longer deterministic) " + line)
        if drift:
            out["correct"] = False
    return out


def smoke(spec):
    names = [w["name"] for w in spec["workloads"]]
    passed, skipped, failed = [], [], []
    for workload in names:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            out = run_one(spec, workload, 2009, SMOKE_SECONDS[workload], trace)
            if out is None:
                skipped.append(label)
            elif out["correct"] and out["attempted"] >= 1:
                passed.append(label)
            else:
                failed.append(label)
            print("smoke: %s: %s" % (label, "skipped" if out is None else json.dumps(out)[:160]))
    print("smoke: %d passed, %d skipped (%s), %d failed (%s)"
          % (len(passed), len(skipped), ", ".join(skipped), len(failed), ", ".join(failed)))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    check_tree()
    with open(SPEC_FILE) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    build()
    if args.smoke:
        sys.exit(smoke(spec))
    out = run_one(spec, args.workload, args.seed, args.seconds, args.trace)
    if out is None:
        fail("%s: SKIPPED, it cannot run here (no loopback sockets)" % args.workload, SKIPPED)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
