"""Command-line surface: design sizing, steady off-design points, the
gas-generator fuel-step transient, machine-only generator runs and the full
joint co-simulation, with CSV/SVG outputs and batch (Monte Carlo) support.

Exit codes: 0 success, 1 usage/validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import scenario as sc
from .control import AvrState
from .cosim import run_generator, run_joint
from .gasgen import (
    AltitudeOutOfRange,
    BetaOutOfRange,
    CalibrationFailed,
    GasGenDesignSpec,
    GasGenInput,
    HealthParams,
    NewtonNonConvergence,
    NoSteadyState,
    PressureRatioBelowUnity,
    T4OutOfRange,
    TemperatureOutOfRange,
    design_point_size,
    off_design_solve,
)
from .gasgen.engine import SpeedOutOfRange
from .gasgen.engine import trim_fuel
from .numerics import (
    NonConvergence,
    NonFiniteDerivative,
    NonFiniteResidual,
    SingularJacobian,
    SingularStageMatrix,
    StepUnderflow,
)
from .wrsg import FaultParams, LoadModel, NoiseConfig, SingularSystem

# steady operating points exercised by `steady --preset-index`
OFF_DESIGN_PRESETS = (
    (0.0, 0.0, 500.0), (0.0, 0.0, 400.0), (0.0, 0.0, 300.0), (0.0, 0.0, 230.0),
    (2000.0, 0.2, 450.0), (4000.0, 0.4, 350.0), (6000.0, 0.5, 300.0),
    (8000.0, 0.7, 222.0), (8000.0, 0.5, 250.0), (10000.0, 0.7, 200.0),
)

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC = 0, 1, 2
# the AVR period of `genrun`; its --duration must be a whole number of them
GENRUN_CONTROL_DT = 0.02


def _scenario_from_args(args, default_preset: str) -> sc.Scenario:
    if getattr(args, "scenario", None):
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scn = sc.parse_scenario(fh.read())
    else:
        scn = sc.load_preset(getattr(args, "preset", None) or default_preset)
    doc = scn.doc
    if getattr(args, "seed", None) is not None:
        doc = {**doc, "seed": args.seed}
    if getattr(args, "macro_dt", None) is not None:
        doc = {**doc, "macro_dt": args.macro_dt}
    # the overrides go through the same validation as the document
    return sc.parse_scenario(json.dumps(doc))


def _health_from_args(args) -> HealthParams:
    return HealthParams(eta_c_factor=args.eta_c, flow_c_factor=args.flow_c,
                        eta_t_factor=args.eta_t, flow_t_factor=args.flow_t)


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


def cmd_steady(args) -> int:
    params, _ = design_point_size(GasGenDesignSpec())
    if args.preset_index is not None:
        if not 0 <= args.preset_index < len(OFF_DESIGN_PRESETS):
            print(f"preset index out of range 0..{len(OFF_DESIGN_PRESETS) - 1}",
                  file=sys.stderr)
            return EXIT_USAGE
        alt, mach, power = OFF_DESIGN_PRESETS[args.preset_index]
    else:
        alt, mach, power = args.altitude, args.mach, args.power
    health = _health_from_args(args)
    if args.sweep:
        print(f"{'eta_c_factor':>12} {'wf kg/s':>10} {'SFC':>8} {'HPCSM %':>8}")
        for factor in np.linspace(0.96, 1.0, 5):
            h = replace(health, eta_c_factor=float(factor))
            wf = trim_fuel(params, args.speed, power, h, altitude=alt,
                           mach=mach, dT_ISA=args.disa)
            s = off_design_solve(params, GasGenInput(wf=wf, altitude=alt,
                                                     mach=mach, dT_ISA=args.disa),
                                 h, Pe=power, N=args.speed)
            print(f"{factor:12.3f} {wf:10.5f} {s.SFC:8.4f} {s.surge_margin:8.3f}")
        return EXIT_OK
    wf = trim_fuel(params, args.speed, power, health, altitude=alt, mach=mach,
                   dT_ISA=args.disa)
    sol = off_design_solve(params, GasGenInput(wf=wf, altitude=alt, mach=mach,
                                               dT_ISA=args.disa),
                           health, Pe=power, N=args.speed)
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
    scn = _scenario_from_args(args, "fuel-step")
    res = sc.run_fuel_step(scn)
    files = sc.write_run(res, args.out, f"transient_{scn.name}", scn)
    if args.svg:
        for group, chans in (("speed", ["XNHPC"]), ("t4", ["T4"]),
                             ("surge", ["HPCSM"]), ("p3", ["P3"])):
            sc.emit_svg(res.slow, chans, os.path.join(
                args.out, f"transient_{scn.name}_{group}.svg"),
                title=f"{scn.name}: {', '.join(chans)}")
    print(f"transient run complete: {res.slow.n_samples} macro steps; "
          f"final N = {res.gasgen_state.N:.1f} rpm; files: {files}")
    return EXIT_OK


def cmd_genrun(args) -> int:
    steps = args.duration / GENRUN_CONTROL_DT
    if not (math.isfinite(steps) and round(steps) >= 1
            and abs(steps - round(steps)) <= 1e-9):
        raise ValueError(f"--duration must be a positive multiple of the "
                         f"{GENRUN_CONTROL_DT:g} s control period, found "
                         f"{args.duration!r}")
    machine = sc.WrsgParams()
    load = LoadModel.from_power(args.power_kw)
    fault_schedule = ()
    if args.mu > 0.0:
        if not 0.0 <= args.fault_time < args.duration:
            raise ValueError(f"--fault-time must lie in [0, --duration), "
                             f"found {args.fault_time!r}")
        fault_schedule = ((args.fault_time, FaultParams(mu=args.mu,
                                                        k_rf=args.k_rf)),)
    res = run_generator(machine, load, AvrState(), speed_rpm=args.speed_rpm,
                        duration=args.duration, fault_schedule=fault_schedule,
                        noise=NoiseConfig(seed=args.seed or 0),
                        decimation=args.decimation, seed=args.seed or 0,
                        control_dt=GENRUN_CONTROL_DT)
    title = f"Generator point: {args.power_kw:g}kW"
    if args.json:
        print(json.dumps({"title": title, "rms": res.rms_table},
                         indent=2, sort_keys=True))
    else:
        print(title)
        width = max(len(k) for k in res.rms_table)
        for key, val in res.rms_table.items():
            unit = "V" if "Voltage" in key else "A"
            print(f"  {key:<{width}}  {val:10.4f} {unit}")
    files = sc.write_run(res, args.out, f"genrun_{args.power_kw:g}kW")
    if args.svg and res.fast.n_samples:
        sc.emit_svg(res.fast, ["ia", "ib", "ic"],
                    os.path.join(args.out, "genrun_currents.svg"),
                    title=f"{title}: phase currents")
        sc.emit_svg(res.fast, ["va", "vb", "vc"],
                    os.path.join(args.out, "genrun_voltages.svg"),
                    title=f"{title}: phase voltages")
    return EXIT_OK


def _joint_run_once(doc_text: str, seed: int):
    scn = sc.parse_scenario(doc_text)
    scn = sc.Scenario(doc={**scn.doc, "seed": seed})
    setup = sc.build_joint_setup(scn)
    result = run_joint(setup)
    return result, scn


def _joint_worker(payload):
    index, doc_text, seed = payload
    result, _ = _joint_run_once(doc_text, seed)
    slow = result.slow
    return index, {
        "seed": seed,
        "final_N_rpm": float(slow.column("XNHPC")[-1]),
        "final_wf_kg_s": float(slow.column("wf")[-1]),
        "max_audit_residual_rel": result.audit.max_relative_residual,
    }


def cmd_joint(args) -> int:
    scn = _scenario_from_args(args, "joint-fault")
    doc = scn.doc
    if args.hook:
        doc = {**doc, "hook": {"kind": args.hook, "std_rpm": 0.0}}
    if args.state_noise:
        doc = {**doc, "hook": {"kind": "speed-noise",
                               "std_rpm": args.state_noise}}
    scn = sc.Scenario(doc=doc)
    if args.runs > 1:
        text = sc.serialize_scenario(scn)
        seeds = [scn.seed + 1000003 * k for k in range(args.runs)]
        workers = int(os.environ.get("APU_COSIM_THREADS", "0")) or None
        payloads = [(k, text, s) for k, s in enumerate(seeds)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            merged = dict(pool.map(_joint_worker, payloads))
        summary = [merged[k] for k in range(args.runs)]
        print(json.dumps({"runs": args.runs, "summary": summary},
                         indent=2, sort_keys=True))
        return EXIT_OK
    result, scn = _joint_run_once(sc.serialize_scenario(scn), scn.seed)
    files = sc.write_run(result, args.out, f"joint_{scn.name}", scn,
                         merged=args.merged)
    if args.svg:
        for group, track, chans in (
                ("speed", "slow", ["XNHPC"]), ("power", "slow", ["Pe_gt"]),
                ("t3p3", "slow", ["T3"]), ("t4", "slow", ["T4"]),
                ("surge", "slow", ["HPCSM"]),
                ("currents", "fast", ["ia", "ib", "ic"]),
                ("voltages", "fast", ["va", "vb", "vc"])):
            series = getattr(result, track)
            sc.emit_svg(series, chans,
                        os.path.join(args.out, f"joint_{scn.name}_{group}.svg"),
                        title=f"{scn.name}: {', '.join(chans)}")
    audit = result.audit
    print(f"joint run complete: {result.slow.n_samples} macro steps, "
          f"{result.fast.n_samples} fast samples; files: {files}")
    print(f"energy audit: max |residual| = {audit.max_relative_residual:.3e} "
          f"(relative), mean = {audit.mean_relative_residual:.3e}")
    if audit.max_relative_residual > 1e-9:
        print("energy audit breached tolerance", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, found {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="apu-cosim",
        description="All-electric APU co-simulation: gas generator + "
                    "starter/generator with injectable faults")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="size the gas generator and print the "
                                      "design-point station table")
    p.add_argument("--shaft-power", type=float, default=500.0)
    p.add_argument("--pressure-ratio", type=float, default=8.0)
    p.add_argument("--t4", type=float, default=1200.114)
    p.add_argument("--altitude", type=float, default=0.0)
    p.add_argument("--mach", type=float, default=0.0)
    p.add_argument("--disa", type=float, default=5.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("steady", help="solve one steady off-design point")
    p.add_argument("--preset-index", type=int, default=None,
                   help=f"0..{len(OFF_DESIGN_PRESETS) - 1} built-in points")
    p.add_argument("--altitude", type=float, default=0.0)
    p.add_argument("--mach", type=float, default=0.0)
    p.add_argument("--power", type=float, default=500.0)
    p.add_argument("--speed", type=float, default=36050.0)
    p.add_argument("--disa", type=float, default=5.0)
    p.add_argument("--eta-c", type=float, default=1.0)
    p.add_argument("--flow-c", type=float, default=1.0)
    p.add_argument("--eta-t", type=float, default=1.0)
    p.add_argument("--flow-t", type=float, default=1.0)
    p.add_argument("--sweep", action="store_true",
                   help="sweep eta_c_factor and tabulate SFC")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("transient", help="gas-generator fuel-step transient "
                                         "against a cubic load law")
    p.add_argument("--scenario", type=str, default=None)
    p.add_argument("--preset", type=str, default="fuel-step")
    p.add_argument("--macro-dt", type=float, default=None)
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--seed", type=int, default=None)
    svg = p.add_mutually_exclusive_group()
    svg.add_argument("--svg", dest="svg", action="store_true", default=True)
    svg.add_argument("--no-svg", dest="svg", action="store_false")
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("genrun", help="machine-only run at fixed shaft speed")
    p.add_argument("--power-kw", type=float, default=225.0)
    p.add_argument("--speed-rpm", type=float, default=12000.0)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--k-rf", type=float, default=1.0)
    p.add_argument("--fault-time", type=float, default=0.5)
    p.add_argument("--decimation", type=_positive_int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--json", action="store_true")
    svg = p.add_mutually_exclusive_group()
    svg.add_argument("--svg", dest="svg", action="store_true", default=True)
    svg.add_argument("--no-svg", dest="svg", action="store_false")
    p.set_defaults(func=cmd_genrun)

    p = sub.add_parser("joint", help="full co-simulation of a scenario")
    p.add_argument("--scenario", type=str, default=None)
    p.add_argument("--preset", type=str, default="joint-fault")
    p.add_argument("--macro-dt", type=float, default=None)
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--state-noise", type=float, default=0.0,
                   help="spool-speed state noise std (rpm) via the hook")
    p.add_argument("--hook", type=str, default=None,
                   choices=["none", "identity"])
    p.add_argument("--merged", action="store_true",
                   help="also write a single-grid resampled CSV")
    svg = p.add_mutually_exclusive_group()
    svg.add_argument("--svg", dest="svg", action="store_true", default=True)
    svg.add_argument("--no-svg", dest="svg", action="store_false")
    p.set_defaults(func=cmd_joint)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (sc.SchemaError, sc.UnknownField, FileNotFoundError, ValueError,
            AltitudeOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CalibrationFailed, NonConvergence, NewtonNonConvergence,
            NoSteadyState, TemperatureOutOfRange, T4OutOfRange,
            BetaOutOfRange, PressureRatioBelowUnity, SpeedOutOfRange,
            StepUnderflow, NonFiniteDerivative, SingularJacobian,
            SingularStageMatrix, NonFiniteResidual, SingularSystem) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
