"""Outside-in tracing of the apucosim layers.

The package source is not touched: each public function is replaced, for
the duration of a traced pass, at every module attribute where callers look
it up (`from .x import f` copies the name into the caller's module). Spans
carry a name, start, end, parent and run id; per-step calls are aggregated
per (run id, name, parent) as count, total time and child time, so self time
is total minus child. A hook point that no longer exists is reported as
missing by name, and the metrics that depend on it are left out rather than
reported as zero.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter

RUN_LOOPS = ("cosim.run_joint", "cosim.run_generator", "cosim.run_gasgen_transient")
PROPERTIES = ("gasgen.cp", "gasgen.enthalpy", "gasgen.phi",
              "gasgen.temperature_from_enthalpy")

# span name -> (defining module, attribute path)
HOOKS = {
    "cosim.run_joint": ("apucosim.cosim", "run_joint"),
    "cosim.run_generator": ("apucosim.cosim", "run_generator"),
    "cosim.run_gasgen_transient": ("apucosim.cosim", "run_gasgen_transient"),
    "numerics.integrate_adaptive": ("apucosim.numerics", "integrate_adaptive"),
    "numerics.newton_solve": ("apucosim.numerics", "newton_solve"),
    "gasgen.off_design_solve": ("apucosim.gasgen.cycle", "off_design_solve"),
    "gasgen.state_update": ("apucosim.gasgen.engine", "state_update"),
    "gasgen.static_from_flow": ("apucosim.gasgen.cycle", "static_from_flow"),
    "gasgen.trim_fuel": ("apucosim.gasgen.engine", "trim_fuel"),
    "gasgen.design_point_size": ("apucosim.gasgen.design", "design_point_size"),
    "gasgen.cp": ("apucosim.gasgen.properties", "cp"),
    "gasgen.enthalpy": ("apucosim.gasgen.properties", "enthalpy"),
    "gasgen.phi": ("apucosim.gasgen.properties", "phi"),
    "gasgen.temperature_from_enthalpy": ("apucosim.gasgen.properties",
                                         "temperature_from_enthalpy"),
    "wrsg.terminal": ("apucosim.wrsg.dynamics", "ElectricalSystem.terminal"),
    "wrsg.rms_window": ("apucosim.wrsg.measurement", "rms_window"),
    "control.governor_step": ("apucosim.control", "governor_step"),
    "control.avr_step": ("apucosim.control", "avr_step"),
    "scenario.write_run": ("apucosim.scenario", "write_run"),
    "scenario.emit_svg": ("apucosim.scenario", "emit_svg"),
}
# callables handed to a hooked function, traced as their own spans:
# (hooked span, parameter name) -> span name of the callable
CALLABLE_ARGS = {
    ("numerics.integrate_adaptive", "deriv_fn"): "wrsg.derivatives",
    ("numerics.integrate_adaptive", "observers"): "cosim.observer",
    ("numerics.newton_solve", "residual_fn"): "gasgen.residual",
}
# values read from a hooked function's result: (span, attribute) -> counter
RESULT_FIELDS = {
    ("numerics.integrate_adaptive", "accepted"): "steps_accepted",
    ("numerics.integrate_adaptive", "rejected"): "steps_rejected",
}


class MissingHook(Exception):
    pass


def _package_modules():
    """Every apucosim module, importing the ones not loaded yet."""
    import apucosim
    for info in pkgutil.walk_packages(apucosim.__path__, "apucosim."):
        importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items())
            if n == "apucosim" or n.startswith("apucosim.")]


class Patcher:
    """Replaces a function at all its lookup names and undoes it on restore."""

    def __init__(self):
        self._undo = []

    def patch(self, module, path, make_wrapper):
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            current = getattr(owner, attr)
        except (ImportError, AttributeError):
            raise MissingHook(f"{module}.{path}") from None
        wrapper = make_wrapper(current)
        if outer:
            # a method: callers reach it through the class
            self._set(owner, attr, wrapper)
            return
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is current:
                    self._set(mod, name, wrapper)

    def _set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def restore(self):
        for obj, name, old in reversed(self._undo):
            setattr(obj, name, old)
        self._undo.clear()


class ResidualProbe:
    """Worst cycle-match residual over the calls it sees (an output check,
    installed in untraced runs too; one attribute read per cycle match)."""

    def __init__(self):
        self.worst = 0.0
        self._patcher = Patcher()

    def __enter__(self):
        module, path = HOOKS["gasgen.off_design_solve"]

        def make(fn):
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                sol = fn(*args, **kwargs)
                self.worst = max(self.worst, sol.newton_residual_norm)
                return sol
            return probed
        self._patcher.patch(module, path, make)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()


class Tracer:
    def __init__(self):
        self.run_id = 0
        self.stats = {}          # (run id, name, parent) -> [count, total s, child s]
        self.calls = []          # one span per CLI call: (run id, start, end)
        self.counts = Counter()  # values read from results, bytes written
        self.missing = {}        # hook point that no longer exists -> its span
        self._stack = []         # open spans: [name, child s]
        self._patcher = Patcher()

    # ------------------------------------------------------------ spans
    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            key = (self.run_id, name, parent)
            rec = self.stats.get(key)
            if rec is None:
                rec = self.stats[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def cli_call(self, fn, *args):
        """Time one CLI call as the root span of a new run id."""
        self.run_id += 1
        t0 = time.perf_counter()
        try:
            return self.call("cli.main", fn, args, {})
        finally:
            self.calls.append((self.run_id, t0, time.perf_counter()))

    # ------------------------------------------------------------ hooks
    def _make_wrapper(self, name):
        params = {p: sub for (span, p), sub in CALLABLE_ARGS.items() if span == name}
        fields = {a: c for (span, a), c in RESULT_FIELDS.items() if span == name}

        def make(fn):
            if not params and not fields and name not in RUN_LOOPS:
                return self.wrap(name, fn)
            sig = inspect.signature(fn)
            for p in params:
                if p not in sig.parameters:
                    self.missing[f"{name}({p})"] = name

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                for p, sub in params.items():
                    if p not in bound.arguments:
                        continue
                    value = bound.arguments[p]
                    if callable(value):
                        bound.arguments[p] = self.wrap(sub, value)
                    else:
                        bound.arguments[p] = [self.wrap(sub, v) for v in value]
                result = self.call(name, fn, bound.args, bound.kwargs)
                for attr, counter in fields.items():
                    if hasattr(result, attr):
                        self.counts[counter] += getattr(result, attr)
                    else:
                        self.missing[f"{name}->{attr}"] = name
                if name in RUN_LOOPS:
                    fast = getattr(result, "fast", None)
                    self.counts["fast_samples"] += fast.n_samples if fast is not None else 0
                return result
            return traced
        return make

    def __enter__(self):
        for name, (module, path) in HOOKS.items():
            try:
                self._patcher.patch(module, path, self._make_wrapper(name))
            except MissingHook as exc:
                self.missing[str(exc)] = name
        return self

    def __exit__(self, *exc):
        self._patcher.restore()

    # ------------------------------------------------------------ metrics
    def count(self, *names):
        return sum(r[0] for (_, n, _), r in self.stats.items() if n in names)

    def total(self, *names):
        return sum(r[1] for (_, n, _), r in self.stats.items() if n in names)

    def self_time(self, *names):
        return sum(r[1] - r[2] for (_, n, _), r in self.stats.items() if n in names)

    def macro_steps(self):
        """Per CLI call, the spool updates or the AVR updates a run loop made
        (one each per macro step), whichever is more."""
        per_run = Counter()
        for (run, name, parent), rec in self.stats.items():
            if parent in RUN_LOOPS and name in ("gasgen.state_update", "control.avr_step"):
                per_run[run, name] += rec[0]
        runs = {run for run, _ in per_run}
        return sum(max(per_run[run, "gasgen.state_update"], per_run[run, "control.avr_step"])
                   for run in runs)

    def metrics(self):
        """Per-layer metrics: name -> (value, unit, spans the value needs)."""
        acc, rej = self.counts["steps_accepted"], self.counts["steps_rejected"]
        derivs = self.count("wrsg.derivatives")
        solves = self.count("numerics.newton_solve")
        residuals = self.count("gasgen.residual")
        steps = self.macro_steps()
        matches = self.count("gasgen.off_design_solve")
        integ = ("numerics.integrate_adaptive",)
        return {
            "cosim.macro_steps": (steps, "count", RUN_LOOPS + ("gasgen.state_update",
                                                              "control.avr_step")),
            "cosim.fast_samples": (self.counts["fast_samples"], "count", RUN_LOOPS),
            "cosim.self_s": (self.self_time(*RUN_LOOPS), "s", RUN_LOOPS),
            "cosim.observer_s": (self.total("cosim.observer"), "s", integ),
            "numerics.steps_accepted": (acc, "count", integ),
            "numerics.steps_rejected": (rej, "count", integ),
            "numerics.step_accept_ratio": (acc / (acc + rej) if acc + rej else 0.0,
                                           "ratio", integ),
            "numerics.deriv_evals_per_step": (derivs / acc if acc else 0.0,
                                              "evals/step", integ),
            "numerics.stepper_self_s": (self.self_time(*integ), "s", integ),
            "numerics.newton_solves": (solves, "count", ("numerics.newton_solve",)),
            "numerics.residual_evals": (residuals, "count", ("numerics.newton_solve",)),
            "numerics.residual_evals_per_solve": (residuals / solves if solves else 0.0,
                                                  "evals/solve", ("numerics.newton_solve",)),
            "numerics.newton_self_s": (self.self_time("numerics.newton_solve"), "s",
                                       ("numerics.newton_solve",)),
            "wrsg.deriv_evals": (derivs, "count", integ),
            "wrsg.deriv_s": (self.total("wrsg.derivatives"), "s", integ),
            "wrsg.terminal_s": (self.total("wrsg.terminal"), "s", ("wrsg.terminal",)),
            "wrsg.rms_window_s": (self.total("wrsg.rms_window"), "s", ("wrsg.rms_window",)),
            "gasgen.cycle_matches": (matches, "count", ("gasgen.off_design_solve",)),
            "gasgen.cycle_matches_per_macro_step": (
                matches / steps if steps else 0.0, "matches/step",
                ("gasgen.off_design_solve",) + RUN_LOOPS),
            "gasgen.cycle_match_s": (self.total("gasgen.off_design_solve"), "s",
                                     ("gasgen.off_design_solve",)),
            "gasgen.state_update_s": (self.total("gasgen.state_update"), "s",
                                      ("gasgen.state_update",)),
            "gasgen.static_from_flow_calls": (self.count("gasgen.static_from_flow"), "count",
                                              ("gasgen.static_from_flow",)),
            "gasgen.static_from_flow_s": (self.total("gasgen.static_from_flow"), "s",
                                          ("gasgen.static_from_flow",)),
            "gasgen.property_evals": (self.count(*PROPERTIES), "count", PROPERTIES),
            "gasgen.trim_fuel_s": (self.total("gasgen.trim_fuel"), "s", ("gasgen.trim_fuel",)),
            "gasgen.sizing_s": (self.total("gasgen.design_point_size"), "s",
                                ("gasgen.design_point_size",)),
            "control.s": (self.total("control.governor_step", "control.avr_step"), "s",
                          ("control.governor_step", "control.avr_step")),
            "scenario.write_s": (self.total("scenario.write_run", "scenario.emit_svg"), "s",
                                 ("scenario.write_run", "scenario.emit_svg")),
            "scenario.bytes_written": (self.counts["bytes_written"], "B", ()),
        }

    def available_metrics(self):
        """metrics() without those that need a missing hook point."""
        gone = set(self.missing.values())
        return {k: (v, unit) for k, (v, unit, needs) in self.metrics().items()
                if not gone.intersection(needs)}
