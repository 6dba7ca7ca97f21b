#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workloads genrun-ttsc offdesign-sweep]

Runs perfbench/run.py as a subprocess and checks that:
  * the metric names printed are exactly those BENCHMARK.json lists, for
    --trace 0 and --trace 1, and no hook point is reported missing;
  * the per-layer counts (steps, evaluations, matches, bytes) of two traced
    runs at the same seed are identical;
  * they differ when the seed changes, for the workloads whose inputs the
    seed draws (genrun-ttsc and offdesign-sweep; the two presets ignore it).
Exit code 0 when every check holds. Takes a few minutes.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDED = ("genrun-ttsc", "offdesign-sweep")
COUNT_UNITS = ("count", "B")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS and k != "trace.hooks_missing"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(SEEDED))
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in args.workloads:
        plain = run(w, 1, 0)
        expect(set(plain["metrics"]) == e2e and plain["correct"],
               f"{w}: --trace 0 is correct and prints every end_to_end metric")
        first, second = run(w, 1, 1), run(w, 1, 1)
        expect(set(first["metrics"]) == layers and first["correct"],
               f"{w}: --trace 1 is correct and prints every per_layer metric")
        expect(first["metrics"].get("trace.hooks_missing", {}).get("value") == 0,
               f"{w}: no hook point missing")
        same = counts(first) == counts(second)
        expect(same, f"{w}: counts repeat exactly at the same seed")
        if not same:
            for k in counts(first):
                if counts(first)[k] != counts(second)[k]:
                    print(f"      {k}: {counts(first)[k]} vs {counts(second)[k]}")
        if w in SEEDED:
            expect(counts(run(w, 2, 1)) != counts(first),
                   f"{w}: counts change with the seed")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
