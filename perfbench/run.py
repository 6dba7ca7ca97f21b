#!/usr/bin/env python3
"""apu-cosim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of an apu-cosim checkout; the package is imported from its
`src/` directory. Every operation is one in-process `apucosim.cli.main(argv)`
call made by a single caller (a closed loop, no pool, no threads), timed
around the call and checked afterwards. CLI outputs go to a temporary
directory under `.perfbench_tmp/` that the run removes again.

--trace 0 runs round(--seconds / the workload's pass time at the seed commit)
passes, at least one, and prints the end-to-end metrics. Their times are in
reference seconds (see hostspeed.py): the host's speed swings too much for
raw times to compare between runs, so each is scaled by the speed of a
fixed reference kernel timed alongside it. The raw wall times are printed
in the report above the JSON line. --trace 1 runs one
pass untraced and the same pass traced and prints the per-layer metrics,
including the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (each {"value", "unit"}); the lines before it are a readable report.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
SETUP_RUNS = 9
# set up, then time the reference kernel in the same process right after
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.setup(sys.argv[3], int(sys.argv[4])); import hostspeed; "
              "print(hostspeed.kernel_times())")

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402
from hostspeed import REF_SECONDS, SpeedProbe  # noqa: E402
from tracing import ResidualProbe, Tracer  # noqa: E402


class SetupFailed(Exception):
    pass


def load_cli():
    """Import apucosim.cli from this checkout's src/, never from elsewhere."""
    pkg = os.path.join(SRC, "apucosim")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        raise SetupFailed(f"no apucosim source at {pkg}: run from the root of "
                          "an apu-cosim checkout")
    sys.path.insert(0, SRC)
    import apucosim.cli as cli
    if os.path.realpath(os.path.dirname(cli.__file__)) != os.path.realpath(pkg):
        raise SetupFailed(f"apucosim was imported from {cli.__file__}, not {pkg}")
    return cli


def measure_setup(name, seed):
    """Seconds from a fresh interpreter to ready, SETUP_RUNS times: (wall,
    reference). Each child times the reference kernel right after its
    set-up; that time is taken off its wall time and sets its speed."""
    wall, ref = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, BENCH_DIR, SRC,
                               name, str(seed)], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupFailed(f"set-up of {name} failed:\n{proc.stderr}")
        kernel = json.loads(proc.stdout.strip().splitlines()[-1])
        seconds -= sum(kernel)
        wall.append(seconds)
        ref.append(seconds * REF_SECONDS / statistics.median(kernel))
    return wall, ref


def tail(values):
    """Highest sample with at least ten samples beyond it, its percentile and
    the sample count; with ten samples or fewer, the maximum."""
    s = sorted(values)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[-1], 100.0, n


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Runner:
    """Makes the CLI calls. With `normalise`, each call is timed under a
    SpeedProbe and its time is given in reference seconds; its raw time,
    without the probe's kernel runs, goes to `wall`."""

    def __init__(self, cli, workload, tmp, normalise=False):
        self.cli = cli
        self.workload = workload
        self.tmp = tmp
        self.normalise = normalise
        self.attempted = 0
        self.failures = []
        self.wall = []

    def op(self, op, call):
        """One CLI call and its checks: (seconds, bytes written)."""
        w = self.workload
        out_dir = tempfile.mkdtemp(dir=self.tmp) if w.writes_output else None
        argv = list(op.argv) + (["--out", out_dir] if out_dir else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        probe = ResidualProbe() if w.needs_residual_probe else None
        speed = SpeedProbe() if self.normalise else None
        self.attempted += 1
        fails, rc, nbytes = [], None, 0
        with probe or contextlib.nullcontext(), speed or contextlib.nullcontext(), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                rc = call(self.cli.main, argv)
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                fails.append(f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
        if speed:
            self.wall.append(speed.own_seconds(t0, t1))
            seconds = speed.reference_seconds(t0, t1)
        else:
            seconds = t1 - t0
            self.wall.append(seconds)
        if rc is not None and rc != 0:
            fails.append(f"exit code {rc}: {stderr.getvalue().strip()[-300:]}")
        elif rc == 0:
            try:
                fails += w.check(op, stdout.getvalue(), out_dir,
                                 probe.worst if probe else None)
            except Exception as exc:  # unreadable output fails the check
                fails.append(f"check raised {type(exc).__name__}: {exc}")
        if out_dir:
            nbytes = _dir_bytes(out_dir)
            shutil.rmtree(out_dir)
        if fails:
            self.failures.append((" ".join(op.argv), fails))
        return seconds, nbytes

    def run_pass(self, index, seed, call):
        points, nbytes = [], 0
        for op in self.workload.ops(seed, index):
            seconds, b = self.op(op, call)
            points.append(seconds)
            nbytes += b
        return points, nbytes


def _untraced(fn, argv):
    return fn(argv)


def measure(runner, seed, seconds):
    name = runner.workload.name
    setup_wall, setup = measure_setup(name, seed)
    # a fixed number of passes, so every run at these settings does the same
    # work whatever the host speed, and the tail is always the same statistic
    passes, points = [], []
    for index in range(max(1, round(seconds / runner.workload.pass_seconds))):
        pts, _ = runner.run_pass(index, seed, _untraced)
        passes.append(sum(pts))
        points += pts
    p_tail, pct, n = tail(points)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "point_p50_ms": (1000.0 * statistics.median(points), "ms"),
        "point_tail_ms": (1000.0 * p_tail, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    calls = len(points) // len(passes)
    raw_passes = [sum(runner.wall[k:k + calls]) for k in range(0, len(points), calls)]
    notes = {
        "wall_s": f"median of {len(passes)} passes of {calls} calls; raw wall "
                  f"{statistics.median(raw_passes):.4f} s",
        "setup_s": f"median of {len(setup)} fresh interpreters; raw wall "
                   f"{statistics.median(setup_wall):.4f} s",
        "point_p50_ms": f"median of {n} calls; raw wall "
                        f"{1000.0 * statistics.median(runner.wall):.4f} ms",
        "point_tail_ms": f"p{pct:.1f} of {n} calls" + (
            " (10 or fewer calls: the maximum)" if n <= 10 else ""),
        "peak_rss_mb": "peak resident set of this process",
    }
    return metrics, notes


def trace(runner, seed):
    untraced, _ = runner.run_pass(0, seed, _untraced)
    with Tracer() as tracer:
        traced, nbytes = runner.run_pass(0, seed, tracer.cli_call)
    tracer.counts["bytes_written"] += nbytes
    metrics = tracer.available_metrics()
    metrics.update({
        "trace.untraced_wall_s": (sum(untraced), "s"),
        "trace.traced_wall_s": (sum(traced), "s"),
        "trace.overhead_s": (sum(traced) - sum(untraced), "s"),
        "trace.hooks_missing": (len(tracer.missing), "count"),
    })
    print(f"{'span':<36} {'parent':<30} {'count':>9} {'total_s':>9} {'self_s':>9}")
    merged = {}
    for (_, name, parent), rec in tracer.stats.items():
        m = merged.setdefault((name, parent), [0, 0.0, 0.0])
        for k in range(3):
            m[k] += rec[k]
    for (name, parent), (count, total, child) in sorted(
            merged.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:<36} {parent or '-':<30} {count:>9} {total:>9.4f} "
              f"{total - child:>9.4f}")
    t0 = tracer.calls[0][1] if tracer.calls else 0.0
    for run_id, start, end in tracer.calls:
        print(f"cli.main run {run_id}: {start - t0:.4f} .. {end - t0:.4f} s")
    for hook in tracer.missing:
        print(f"MISSING hook point: {hook}")
    return metrics, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        cli = load_cli()
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # on SIGTERM, unwind so the temporary directory and any child go away
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    try:
        runner = Runner(cli, workload, tmp, normalise=not args.trace)
        if args.trace:
            metrics, notes = trace(runner, args.seed)
        else:
            metrics, notes = measure(runner, args.seed, args.seconds)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_PARENT)
    failed = len(runner.failures)
    for op_argv, fails in runner.failures:
        print(f"FAILED {op_argv}: {'; '.join(fails)}")
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<38} {value:>16.6f} {unit:<12} {notes.get(key, '')}")
    if not args.trace:
        print(f"  {'error_rate':<38} {failed / runner.attempted:>16.6f} {'1':<12} "
              f"{failed} failed of {runner.attempted} calls")
    result = {
        "correct": failed == 0 and all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
