#!/usr/bin/env python3
"""Self-test of the repo benchmark at tiny sizes (under a minute).

    python3 benchmark/selftest.py

For every workload the benchmark program knows (the ones BENCHMARK.json
declares and the two kept for manual runs), untraced and traced, it checks
that the run succeeds, that the JSON result names exactly the metrics
BENCHMARK.json declares for that mode, each finite and with its declared unit, and that the readable
report prints each of them with a sample count. It then hands the KV
workloads a backend that corrupts MultiGet results and checks that the
wrong values are counted as failures and fail the run.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "benchmark", "run.py")]
WORKLOADS = ("ht-get-dram", "ht-rw-l2", "kv-rw-llc", "kv-get-dram")


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "0.6",
                 "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout, proc.stderr


def check_metrics(label, result, text, declared, problems):
    got = result["metrics"]
    if set(got) != set(declared):
        problems.append("%s: metrics %s, expected %s" %
                        (label, sorted(got), sorted(declared)))
        return
    for name, unit in declared.items():
        value = got[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s is not a finite number" % (label, name))
        if got[name]["unit"] != unit:
            problems.append("%s: %s has unit %r, expected %r" %
                            (label, name, got[name]["unit"], unit))
        row = [l for l in text.splitlines() if l.split()[:1] == [name]]
        if not row or " n=" not in row[0]:
            problems.append("%s: %s not printed with a sample count" %
                            (label, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        if w["name"] not in WORKLOADS:
            problems.append("declared workload %s is unknown" % w["name"])
    for name in WORKLOADS:
        for trace in (0, 1):
            label = "%s trace=%d" % (name, trace)
            rc, result, out, err = run(name, trace)
            if rc != 0 or result is None:
                problems.append("%s: exit %d\n%s" % (label, rc, err[-2000:]))
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append("%s: run not correct: %s" % (label, result))
            check_metrics(label, result, out, modes[trace], problems)
            print("ok   %s" % label, flush=True)

    for name in ("kv-rw-llc", "kv-get-dram"):
        label = "%s --corrupt" % name
        rc, result, out, _ = run(name, 0, "--corrupt")
        ratio = [l for l in out.splitlines() if l.startswith("error_ratio ")]
        if rc == 0 or result is None or result["correct"] or \
                result["failed"] == 0 or not ratio or \
                float(ratio[0].split()[1]) <= 0:
            problems.append("%s: corruption not caught (exit %d, %s)" %
                            (label, rc, result))
        else:
            print("ok   %s (%d of %d failed)" %
                  (label, result["failed"], result["attempted"]), flush=True)

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
