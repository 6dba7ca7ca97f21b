"""Command-line surface: design sizing, steady off-design points, the
gas-generator fuel-step transient, machine-only generator runs and the full
joint co-simulation, with CSV/SVG outputs and batch (Monte Carlo) support.

Exit codes: 0 success, 1 usage/validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

from . import scenario as sc
from .control import AvrState
from .cosim import (GENERATOR_CONTROL_DT, GENERATOR_STEPPER, MAX_FAST_STEPS,
                    FieldVoltageOutOfRange, fast_sample_bound, run_generator, run_joint,
                    whole_steps)
from .errors import NumericalFailure, UsageError
from .gasgen import GasGenDesignSpec, HealthParams, design_point_size
from .gasgen.engine import MAX_SPEED_RATIO, trim_fuel
from .wrsg import FaultParams, LoadModel

# steady operating points exercised by `steady --preset-index`
OFF_DESIGN_PRESETS = (
    (0.0, 0.0, 500.0), (0.0, 0.0, 400.0), (0.0, 0.0, 300.0), (0.0, 0.0, 230.0),
    (2000.0, 0.2, 450.0), (4000.0, 0.4, 350.0), (6000.0, 0.5, 300.0),
    (8000.0, 0.7, 222.0), (8000.0, 0.5, 250.0), (10000.0, 0.7, 200.0),
)

# the point and compressor efficiency factor of `steady` where no flag sets
# them; their flags default to None, so that --preset-index and --sweep,
# which set them themselves, can refuse a flag the command line gave
STEADY_DEFAULTS = {"altitude": 0.0, "mach": 0.0, "power": 500.0, "eta_c": 1.0}
# the fault of `genrun --mu` where no flag sets it; its flags default to
# None, so that a run without a fault can refuse them
GENRUN_FAULT_DEFAULTS = {"k_rf": 1.0, "fault_time": 0.5}
# where transient, genrun and joint write, and whether with plots, where no
# flag says; joint's flags default to None, so that a --runs batch, which
# writes no files, can refuse them
OUTPUT_DEFAULTS = {"out": "out", "svg": True}

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC = 0, 1, 2


def _scenario_from_args(args) -> sc.Scenario:
    """The scenario of --scenario or --preset with the flags that override
    its fields; the overrides go through the same validation as the document."""
    if args.scenario:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scn = sc.parse_scenario(fh.read())
    else:
        scn = sc.load_preset(args.preset)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if args.macro_dt is not None:
        overrides["macro_dt"] = args.macro_dt
    if getattr(args, "state_noise", None) is not None:
        overrides["hook"] = {"std_rpm": args.state_noise}
    if not overrides:
        return scn
    return sc.parse_scenario(json.dumps({**scn.doc, **overrides}))


def cmd_design(args) -> int:
    spec = GasGenDesignSpec(
        altitude=args.altitude, mach=args.mach, dT_ISA=args.disa,
        shaft_power_design=args.shaft_power, pressure_ratio=args.pressure_ratio,
        T4_design=args.t4)
    params, sol = design_point_size(spec)
    title = (f"Design point: {args.altitude / 1000:g}km {args.mach:g}Ma "
             f"{args.shaft_power:g}kW")
    report = sc.station_report(sol, title)
    if args.json:
        print(json.dumps({"title": title, "wf_design": params.wf_design,
                          "values": report.as_dict()}, indent=2, sort_keys=True))
    else:
        print(report.render())
        print(f"\nsizing fuel flow: {params.wf_design:.5f} kg/s")
    return EXIT_OK


@functools.cache
def _default_engine():
    """The default spec's sizing, (params, design solution), done once per
    process: every `steady` point trims this engine, and both are frozen."""
    return design_point_size(GasGenDesignSpec())


def _refuse_given(why: str, flags: dict) -> None:
    """Exit 1 naming each flag of `flags` ({dest: value}, None where not
    given) that was given with a flag that overrides it for reason `why`."""
    given = [f"--{dest.replace('_', '-')}" for dest, value in flags.items()
             if value is not None]
    if given:
        raise ValueError(f"{why}, so it cannot be given with {', '.join(given)}")


def cmd_steady(args) -> int:
    point = {"altitude": args.altitude, "mach": args.mach, "power": args.power}
    if args.preset_index is not None:
        _refuse_given("--preset-index sets the operating point", point)
        alt, mach, power = OFF_DESIGN_PRESETS[args.preset_index]
    else:
        alt, mach, power = (STEADY_DEFAULTS[k] if v is None else v
                            for k, v in point.items())
    if args.sweep:
        _refuse_given("--sweep tabulates eta_c_factor 0.96 to 1.0 as text",
                      {"json": args.json or None, "eta_c": args.eta_c})
    eta_c = STEADY_DEFAULTS["eta_c"] if args.eta_c is None else args.eta_c
    health = HealthParams(eta_c_factor=eta_c, flow_c_factor=args.flow_c,
                          eta_t_factor=args.eta_t, flow_t_factor=args.flow_t)
    params, _ = _default_engine()
    if args.sweep:
        print(f"{'eta_c_factor':>12} {'wf kg/s':>10} {'SFC':>8} {'HPCSM %':>8}")
        for factor in (0.96, 0.97, 0.98, 0.99, 1.0):
            h = replace(health, eta_c_factor=factor)
            wf, s = trim_fuel(params, args.speed, power, h, altitude=alt,
                              mach=mach, dT_ISA=args.disa)
            print(f"{factor:12.3f} {wf:10.5f} {s.SFC:8.4f} {s.surge_margin:8.3f}")
        return EXIT_OK
    wf, sol = trim_fuel(params, args.speed, power, health, altitude=alt,
                        mach=mach, dT_ISA=args.disa)
    title = f"Off-design point: {alt / 1000:g}km {mach:g}Ma {power:g}kW"
    report = sc.station_report(sol, title)
    if args.json:
        print(json.dumps({"title": title, "wf": wf,
                          "residual_norm": sol.newton_residual_norm,
                          "values": report.as_dict()}, indent=2, sort_keys=True))
    else:
        print(report.render())
        print(f"\nfuel flow: {wf:.5f} kg/s   "
              f"residual norm: {sol.newton_residual_norm:.3e}")
    return EXIT_OK


def cmd_transient(args) -> int:
    scn = _scenario_from_args(args)
    run = sc.fuel_step_run(scn)
    basename = f"transient_{scn.name}"
    plots = [(f"{basename}_{group}.svg", "slow", chans, f"{scn.name}: {', '.join(chans)}")
             for group, chans in (("speed", ["XNHPC"]), ("t4", ["T4"]),
                                  ("surge", ["HPCSM"]), ("p3", ["P3"]))]
    res, files = sc.write_outputs(args.out, basename, lambda _sink: run(),
                                  plots if args.svg else (), scn)
    print(f"transient run complete: {res.slow.n_samples} macro steps; "
          f"final N = {res.slow.column('XNHPC')[-1]:.1f} rpm; files: {files}")
    return EXIT_OK


def cmd_genrun(args) -> int:
    if whole_steps(args.duration, GENERATOR_CONTROL_DT) is None:
        raise ValueError(f"--duration must be a positive multiple of the "
                         f"{GENERATOR_CONTROL_DT:g} s control period, found "
                         f"{args.duration!r}")
    machine = sc.WrsgParams()
    load = LoadModel.from_power(args.power_kw)
    fault = {"k_rf": args.k_rf, "fault_time": args.fault_time}
    fault_schedule = ()
    if args.mu == 0.0:
        _refuse_given("--mu 0 runs without a fault", fault)
    else:
        k_rf, t_fault = (GENRUN_FAULT_DEFAULTS[k] if v is None else v
                         for k, v in fault.items())
        if t_fault >= args.duration:
            raise ValueError(f"--fault-time must lie below --duration, "
                             f"found {t_fault!r}")
        fault_schedule = ((t_fault, FaultParams(mu=args.mu, k_rf=k_rf)),)
    # the machine samples are bounded as a scenario's are, at the run's speed
    w_e = args.speed_rpm * math.pi / 30.0 * machine.pole_pairs
    samples = fast_sample_bound(args.duration, GENERATOR_CONTROL_DT,
                                GENERATOR_STEPPER.max_step, w_e, len(fault_schedule))
    if samples > MAX_FAST_STEPS:
        raise ValueError(f"--duration must keep the run within {MAX_FAST_STEPS:,} machine "
                         f"samples at --speed-rpm {args.speed_rpm:g}, found "
                         f"{args.duration!r} ({samples:,})")
    title = f"Generator point: {args.power_kw:g}kW"

    def run(sink):
        try:
            return run_generator(machine, load, AvrState(), speed_rpm=args.speed_rpm,
                                 duration=args.duration, fault_schedule=fault_schedule,
                                 decimation=args.decimation, sink=sink)
        except FieldVoltageOutOfRange as exc:
            raise UsageError(f"--power-kw {args.power_kw:g} at --speed-rpm "
                             f"{args.speed_rpm:g}: {exc}") from None

    plots = [("genrun_currents.svg", "fast", ["ia", "ib", "ic"], f"{title}: phase currents"),
             ("genrun_voltages.svg", "fast", ["va", "vb", "vc"], f"{title}: phase voltages")]
    res, _ = sc.write_outputs(args.out, f"genrun_{args.power_kw:g}kW", run,
                              plots if args.svg else ())
    if args.json:
        print(json.dumps({"title": title, "rms": res.rms_table},
                         indent=2, sort_keys=True))
    else:
        print(title)
        width = max(len(k) for k in res.rms_table)
        for key, val in res.rms_table.items():
            unit = "V" if "Voltage" in key else "A"
            print(f"  {key:<{width}}  {val:10.4f} {unit}")
    return EXIT_OK


def _run_joint(scn: sc.Scenario, setup, sink=None):
    """run_joint, naming the scenario leaves that set the start's field
    voltage where the AVR cannot give it."""
    try:
        return run_joint(setup, sink)
    except FieldVoltageOutOfRange as exc:
        avr, load = scn.doc["avr"], scn.doc["load"]
        raise UsageError(f"avr.v_fd_max {avr['v_fd_max']:g}, avr.v_set {avr['v_set']:g} "
                         f"and load.power_kw {load['power_kw']:g}: {exc}") from None


def _joint_worker(scn: sc.Scenario) -> dict:
    result = _run_joint(scn, sc.build_joint_setup(scn))
    slow = result.slow
    return {
        "seed": scn.seed,
        "final_N_rpm": float(slow.column("XNHPC")[-1]),
        "final_wf_kg_s": float(slow.column("wf")[-1]),
        "max_audit_residual_rel": result.audit.max_relative_residual,
    }


def _pool_size(runs: int, threads: str | None, cpus: int) -> int:
    """Worker processes for `joint --runs`: the APU_COSIM_THREADS value
    `threads` (unset, empty or 0: one per CPU), at most `cpus` and `runs`."""
    if threads and not threads.strip().isdecimal():
        raise ValueError(f"APU_COSIM_THREADS must be an integer >= 0, found {threads!r}")
    return min(int(threads or 0) or cpus, cpus, runs)


def cmd_joint(args) -> int:
    scn = _scenario_from_args(args)
    if args.runs > 1:
        _refuse_given("a --runs batch prints a summary and writes no files",
                      {"merged": args.merged or None, "out": args.out,
                       "svg" if args.svg else "no_svg": args.svg})
        runs = [sc.parse_scenario(json.dumps(
            {**scn.doc, "seed": scn.seed + 1000003 * k})) for k in range(args.runs)]
        workers = _pool_size(args.runs, os.environ.get("APU_COSIM_THREADS"),
                             os.cpu_count() or 1)
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            summary = list(pool.map(_joint_worker, runs))
        print(json.dumps({"runs": args.runs, "summary": summary},
                         indent=2, sort_keys=True))
        return EXIT_OK
    out, svg = (OUTPUT_DEFAULTS[k] if v is None else v
                for k, v in (("out", args.out), ("svg", args.svg)))
    setup = sc.build_joint_setup(scn)
    basename = f"joint_{scn.name}"
    plots = [(f"{basename}_{group}.svg", track, chans, f"{scn.name}: {', '.join(chans)}")
             for group, track, chans in (
                 ("speed", "slow", ["XNHPC"]), ("power", "slow", ["Pe_gt"]),
                 ("t3p3", "slow", ["T3"]), ("t4", "slow", ["T4"]),
                 ("surge", "slow", ["HPCSM"]),
                 ("currents", "fast", ["ia", "ib", "ic"]),
                 ("voltages", "fast", ["va", "vb", "vc"]))]
    result, files = sc.write_outputs(out, basename, functools.partial(_run_joint, scn, setup),
                                     plots if svg else (), scn, merged=args.merged)
    audit = result.audit
    print(f"joint run complete: {result.slow.n_samples} macro steps, "
          f"{result.fast.n_samples} fast samples; files: {files}")
    print(f"energy audit: max |residual| = {audit.max_relative_residual:.3e} "
          f"(relative), mean = {audit.mean_relative_residual:.3e}")
    if audit.max_relative_residual > 1e-9:
        print("energy audit breached tolerance", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _number(name: str, interval: tuple, integer: bool = False):
    """The argparse type of a numeric flag that sets the quantity `name`: a
    float, or where `integer` a decimal integer, within `interval` (low,
    high, low included, high included; as sc.RANGES gives a leaf's). Text
    that is no such number lies within no interval, and neither does NaN."""
    def parse(text: str):
        if integer:
            value = int(text) if text.isdecimal() else math.nan
        else:
            try:
                value = float(text)
            except ValueError:
                value = math.nan
        if span := sc.outside(interval, value):
            raise argparse.ArgumentTypeError(
                f"{name} {text!r} outside {'the integers in ' if integer else ''}{span}")
        return value
    return parse


def _leaf(key: str, integer: bool = False):
    """The type of a flag that sets the scenario leaf `key` (list items as
    in sc.RANGES): a number within the leaf's interval."""
    return _number(key, sc.RANGES[key], integer)


# The flags a group of subcommands shares, each declared once. They are added
# to each subcommand's parser directly: argparse parent parsers would build
# one more ArgumentParser per group.
def _add_point_flags(p: argparse.ArgumentParser) -> None:
    """The operating point of design and steady, and their --json."""
    p.add_argument("--altitude", type=_leaf("ambient.altitude"), default=0.0)
    p.add_argument("--mach", type=_leaf("ambient.mach"), default=0.0)
    p.add_argument("--disa", default=5.0,
                   type=_number("ISA offset (K)", (-math.inf, math.inf, False, False)))
    p.add_argument("--json", action="store_true")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    """Where transient, genrun and joint write, and whether with plots."""
    p.add_argument("--out", type=str, default=OUTPUT_DEFAULTS["out"])
    svg = p.add_mutually_exclusive_group()
    svg.add_argument("--svg", dest="svg", action="store_true",
                     default=OUTPUT_DEFAULTS["svg"])
    svg.add_argument("--no-svg", dest="svg", action="store_false")


def _add_scenario_flags(p: argparse.ArgumentParser, preset: str) -> None:
    """The scenario of transient and joint; --preset defaults to `preset`."""
    p.add_argument("--scenario", type=str, default=None)
    p.add_argument("--preset", type=str, default=preset)
    p.add_argument("--macro-dt", type=_leaf("macro_dt"), default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="apu-cosim",
        description="All-electric APU co-simulation: gas generator + "
                    "starter/generator with injectable faults")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="size the gas generator and print the "
                                      "design-point station table")
    _add_point_flags(p)
    p.add_argument("--shaft-power", type=_leaf("gasgen.shaft_power_kw"), default=500.0)
    p.add_argument("--pressure-ratio", type=_leaf("gasgen.pressure_ratio"), default=8.0)
    p.add_argument("--t4", type=_leaf("gasgen.t4_k"), default=1200.114)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("steady", help="solve one steady off-design point")
    _add_point_flags(p)
    p.add_argument("--preset-index", type=int, default=None,
                   choices=range(len(OFF_DESIGN_PRESETS)), help="built-in point")
    p.add_argument("--power", default=None,
                   type=_number("shaft power (kW)", (0.0, math.inf, True, False)))
    # the spool's speed range, up to its limit at the default design speed
    spool_limit = MAX_SPEED_RATIO * GasGenDesignSpec().design_speed
    p.add_argument("--speed", default=36050.0,
                   type=_number("spool speed (rpm)", (0.0, spool_limit, False, True)))
    p.add_argument("--eta-c", type=_leaf("gas_path_faults[].eta_c_factor"), default=None)
    p.add_argument("--flow-c", type=_leaf("gas_path_faults[].flow_c_factor"), default=1.0)
    p.add_argument("--eta-t", type=_leaf("gas_path_faults[].eta_t_factor"), default=1.0)
    p.add_argument("--flow-t", type=_leaf("gas_path_faults[].flow_t_factor"), default=1.0)
    p.add_argument("--sweep", action="store_true",
                   help="sweep eta_c_factor and tabulate SFC")
    p.set_defaults(func=cmd_steady, altitude=None, mach=None)

    p = sub.add_parser("transient", help="gas-generator fuel-step transient "
                                         "against a cubic load law")
    _add_scenario_flags(p, "fuel-step")
    _add_output_flags(p)
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("genrun", help="machine-only run at fixed shaft speed")
    p.add_argument("--power-kw", type=_leaf("load.power_kw"), default=225.0)
    # up to the generator speed a joint run reaches at the spool's limit
    # through the default gearbox
    machine = sc.WrsgParams()
    generator_limit = MAX_SPEED_RATIO * 60.0 * machine.f_n / machine.pole_pairs
    p.add_argument("--speed-rpm", default=12000.0,
                   type=_number("generator speed (rpm)", (0.0, generator_limit, False, True)))
    p.add_argument("--duration", default=1.0,
                   type=_number("duration (s)", (0.0, math.inf, False, False)))
    p.add_argument("--mu", type=_leaf("ttsc_faults[].mu"), default=0.0)
    p.add_argument("--k-rf", type=_leaf("ttsc_faults[].k_rf"), default=None)
    p.add_argument("--fault-time", default=None,
                   type=_number("fault time (s)", (0.0, math.inf, True, False)))
    p.add_argument("--decimation", type=_leaf("record.decimation", integer=True), default=2)
    p.add_argument("--json", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=cmd_genrun)

    p = sub.add_parser("joint", help="full co-simulation of a scenario")
    _add_scenario_flags(p, "joint-fault")
    _add_output_flags(p)
    p.add_argument("--seed", type=_leaf("seed", integer=True), default=None)
    p.add_argument("--runs", default=1,
                   type=_number("runs", (1, math.inf, True, False), integer=True))
    p.add_argument("--state-noise", type=_leaf("hook.std_rpm"), default=None,
                   help="std (rpm) of the noise added to the spool speed "
                        "after each update (hook.std_rpm)")
    p.add_argument("--merged", action="store_true",
                   help="also write a single-grid resampled CSV")
    p.set_defaults(func=cmd_joint, out=None, svg=None)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` builds on first use and keeps for the process:
    argparse keeps no state between parse_args calls, and a build costs
    more than the parse."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
