"""The four benchmark workloads.

Each workload turns a seed into passes of CLI operations (one operation is
one `apucosim.cli.main(argv)` call), knows the set-up a fresh interpreter
does before its first call, and checks each operation's outputs with the
acceptance suite's tolerances rather than byte digests, so a change that
legitimately re-freezes a golden digest still passes.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

N_SET_RPM = 36050.0
# final spool speed of the fuel-step preset at the seed commit (936aee1);
# the preset ignores the benchmark seed, so this value is fixed
FUEL_STEP_FINAL_N = 30058.69412517671


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv (without --out) and the inputs its check needs."""
    argv: tuple
    params: dict = field(default_factory=dict)


def read_track(path):
    """Columns of a CSV track written by the CLI, keyed by channel name (read
    without the package's own reader, so a change there cannot hide one in
    the output)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    names = [col.rpartition("_")[0] for col in header]
    names[0] = "time"
    return {name: data[:, k] for k, name in enumerate(names)}


def window_rms(t, x, a, b):
    """Trapezoidal rms of x over samples with a < t <= b."""
    m = (t > a) & (t <= b)
    tt, xx = t[m], x[m]
    if tt.size < 2:
        return math.nan
    f = xx * xx
    return math.sqrt(float(np.sum(np.diff(tt) * (f[1:] + f[:-1])) * 0.5)
                     / (tt[-1] - tt[0]))


def _manifest(out_dir):
    names = [n for n in os.listdir(out_dir) if n.endswith("_manifest.json")]
    if len(names) != 1:
        raise FileNotFoundError(f"expected one manifest in the output, found {names}")
    with open(os.path.join(out_dir, names[0]), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _track(out_dir, manifest, track):
    return read_track(os.path.join(out_dir, manifest["files"][track]))


def _mirrored(values, lo, hi):
    """values in [0, 1) followed by their mirror images, mapped to [lo, hi]:
    point k and point k + len(values) are an antithetic pair, so a cost that
    is linear in the parameter sums to the same total whatever was drawn."""
    return [lo + (hi - lo) * v for v in values] + [hi - (hi - lo) * v for v in values]


def _systematic(rng, n, lo, hi):
    """n values of [lo, hi], value j in the j-th of n equal slices, all at
    one seeded offset within their slice (mirrored in the upper half)."""
    u = rng.random()
    return _mirrored([(j + u) / n for j in range(n // 2)], lo, hi)


class JointFault:
    name = "joint-fault"
    pass_seconds = 24.0  # one pass at the seed commit on a 2-CPU host
    writes_output = True
    needs_residual_probe = False

    def ops(self, seed, index):
        return [Op(("joint", "--preset", "joint-fault"))]

    def setup(self, cli, sc, op):
        cli.build_parser().parse_args(list(op.argv))
        sc.build_joint_setup(sc.load_preset("joint-fault"))

    def check(self, op, stdout, out_dir, worst_residual):
        man = _manifest(out_dir)
        doc = man["scenario"]
        slow = _track(out_dir, man, "slow")
        fast = _track(out_dir, man, "fast")
        fails = []
        transferred = slow["Pe_gt"] * doc["macro_dt"] * doc["coupling"]["eta"]
        audit = float(np.max(np.abs(slow["audit_residual"])
                             / np.maximum(np.abs(transferred), 1e-12)))
        if not audit <= 1e-9:
            fails.append(f"energy-audit residual {audit:.3e} > 1e-9")
        n_end = float(slow["XNHPC"][-1])
        if not abs(n_end - N_SET_RPM) < 0.002 * N_SET_RPM:
            fails.append(f"final speed {n_end:.1f} rpm not within 0.2 % of {N_SET_RPM}")
        t_fault = doc["ttsc_faults"][0]["time_s"]
        rms = [window_rms(fast["time"], fast[ch], t_fault + 0.5, doc["duration"])
               for ch in ("ia", "ib", "ic")]
        unbalance = max(rms) / min(rms)
        if not unbalance > 1.01:
            fails.append(f"post-TTSC current unbalance {unbalance:.4f} <= 1.01")
        return fails


class FuelStep:
    name = "fuel-step"
    pass_seconds = 6.0
    writes_output = True
    needs_residual_probe = True

    def ops(self, seed, index):
        return [Op(("transient", "--preset", "fuel-step"))]

    def setup(self, cli, sc, op):
        from apucosim.gasgen import design_point_size
        cli.build_parser().parse_args(list(op.argv))
        design_point_size(sc.design_spec_from_scenario(sc.load_preset("fuel-step")))

    def check(self, op, stdout, out_dir, worst_residual):
        fails = []
        if not worst_residual < 1e-8:
            fails.append(f"worst cycle residual {worst_residual:.3e} >= 1e-8")
        slow = _track(out_dir, _manifest(out_dir), "slow")
        n_end = float(slow["XNHPC"][-1])
        if not abs(n_end - FUEL_STEP_FINAL_N) <= 1e-6 * FUEL_STEP_FINAL_N:
            fails.append(f"final speed {n_end!r} rpm differs from the seed "
                         f"commit's {FUEL_STEP_FINAL_N!r} by more than 1e-6")
        return fails


class GenrunTtsc:
    name = "genrun-ttsc"
    pass_seconds = 15.0
    writes_output = True
    needs_residual_probe = False
    calls_per_pass = 8
    duration = 0.5
    # call j of a pass takes onset, mu and power each from the j-th slice of
    # its range, at an offset the seed draws per parameter and mirrors in the
    # upper half, so every pass covers the ranges and passes at different
    # seeds do nearly the same work (a faulted segment costs ~5x a healthy one)
    mu_range = (0.03, 0.08)
    power_range = (150.0, 300.0)

    def ops(self, seed, index):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        n = self.calls_per_pass
        onsets = _systematic(rng, n, 0.25 * self.duration, 0.75 * self.duration)
        mus = _systematic(rng, n, *self.mu_range)
        powers = _systematic(rng, n, *self.power_range)
        return [Op(("genrun", "--power-kw", repr(p), "--duration", repr(self.duration),
                    "--mu", repr(mu), "--fault-time", repr(t), "--json"),
                   {"onset": t}) for t, mu, p in zip(onsets, mus, powers)]

    def setup(self, cli, sc, op):
        from apucosim.wrsg import LoadModel
        args = cli.build_parser().parse_args(list(op.argv))
        sc.WrsgParams()
        LoadModel.from_power(args.power_kw)

    def check(self, op, stdout, out_dir, worst_residual):
        fails = []
        onset = op.params["onset"]
        fast = _track(out_dir, _manifest(out_dir), "fast")
        for ch in ("va", "vb", "vc"):
            v = window_rms(fast["time"], fast[ch], onset - 0.02, onset)
            if not abs(v - 230.0) < 0.01 * 230.0:
                fails.append(f"pre-fault {ch} rms {v:.2f} V not within 1 % of 230 V")
        rms = json.loads(stdout)["rms"]
        currents = [rms[f"Phase {ph} Current"] for ph in "ABC"]
        unbalance = max(currents) / min(currents)
        if not unbalance > 1.01:
            fails.append(f"post-fault current unbalance {unbalance:.4f} <= 1.01")
        return fails


class OffdesignSweep:
    name = "offdesign-sweep"
    pass_seconds = 17.0
    writes_output = False
    needs_residual_probe = False
    points_per_pass = 200
    # power is a share of a ceiling that falls with altitude: above it the
    # burner exit passes the 2000 K property limit at high altitude
    ranges = (("--altitude", 0.0, 10000.0), ("--mach", 0.0, 0.7),
              ("power_share", 0.45, 1.0), ("speed_share", 0.95, 1.02),
              ("--eta-c", 0.98, 1.02), ("--flow-c", 0.98, 1.02),
              ("--eta-t", 0.98, 1.02), ("--flow-t", 0.98, 1.02))

    def ops(self, seed, index):
        # antithetic Latin hypercube: a Latin hypercube of half the points
        # and its mirror image, so each parameter covers its range evenly
        # and a cost linear in the parameters is the same at every seed
        rng = random.Random(f"{self.name}:{seed}:{index}")
        m = self.points_per_pass // 2
        cols = {}
        for key, lo, hi in self.ranges:
            col = [(j + rng.random()) / m for j in range(m)]
            rng.shuffle(col)
            cols[key] = _mirrored(col, lo, hi)
        ops = []
        for k in range(2 * m):
            alt = cols["--altitude"][k]
            power = cols["power_share"][k] * (500.0 - 32.0 * alt / 1000.0)
            argv = ["steady", "--json", "--power", repr(power),
                    "--speed", repr(cols["speed_share"][k] * N_SET_RPM)]
            for key, _, _ in self.ranges:
                if key.startswith("--"):
                    argv += [key, repr(cols[key][k])]
            ops.append(Op(tuple(argv), {"power": power}))
        return ops

    def setup(self, cli, sc, op):
        from apucosim.gasgen import GasGenDesignSpec, design_point_size
        cli.build_parser().parse_args(list(op.argv))
        design_point_size(GasGenDesignSpec())

    def check(self, op, stdout, out_dir, worst_residual):
        fails = []
        out = json.loads(stdout)
        if not out["residual_norm"] < 1e-8:
            fails.append(f"cycle residual {out['residual_norm']:.3e} >= 1e-8")
        power = op.params["power"]
        pwsd = out["values"]["PWSD"]
        if not abs(pwsd - power) <= 1e-9 * max(abs(power), 1.0):
            fails.append(f"PWSD {pwsd!r} kW misses the requested {power!r} kW")
        return fails


WORKLOADS = {w.name: w for w in (JointFault(), FuelStep(), GenrunTtsc(), OffdesignSweep())}


def setup(name, seed):
    """What a fresh interpreter does before its first call: import the CLI,
    parse the arguments and the scenario, and size the engine."""
    import apucosim.cli as cli
    from apucosim import scenario as sc
    workload = WORKLOADS[name]
    workload.setup(cli, sc, workload.ops(seed, 0)[0])
