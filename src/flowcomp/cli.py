"""Command-line driver: compile a machine into a planar field, run and
verify flow trajectories, sweep perturbations, lift to 3D, compactify to
the sphere, and print resource estimates.

Every run writes a flat `key = value` manifest that fully determines the
artifacts; identical manifests produce byte-identical text output.  Exit
codes: 0 on success, 1 when a verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import math
import os
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .beltrami import beltrami_from_potential, fit_window_polynomial, residuals, series_rows
from .curves import RAMP_EPS, RHO0, curve_records
from .field import LAMBDA0, FieldSpec, check_height_budget, error_schedule, field_eval_plane
from .machine import (
    Halted,
    MachineError,
    enumerate_inputs,
    load_machine,
    run,
)
from .robust import MAX_NESTED, resource_estimate, sample_perturbation
from .simulate import (
    SimulationVerdict,
    event_rows,
    format_verdict,
    simulate_input,
    trajectory_rows,
)
from .sphere import delta_threshold, discrete_orbit_verdict

ENV_PREFIX = "FLOWCOMP_"

DEFAULTS = {
    "inputs": 3,
    "lmax": 8,
    "seed": 0,
    "lambda_frac": 0.5,
    "out": "out",
    "trials": 5,
    "degree": 3,
    "sb": 2.0,
    "C": 1.0,
}


# ---------------------------------------------------------------------------
# configuration resolution: flag > environment > config file > default


def read_config(path: str) -> dict:
    """Flat `key = value` file; blank lines and `#` comments ignored."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _coerce(key: str, value):
    if value is None or key not in DEFAULTS:
        return value
    template = DEFAULTS[key]
    if isinstance(template, int) and not isinstance(template, bool):
        return int(value)
    if isinstance(template, float):
        return float(value)
    return str(value)


def _check_ranges(settings: dict):
    """Reject out-of-range values as usage errors, before any work starts."""
    for ok, message in (
            (settings["inputs"] >= 1, "--inputs must be at least 1"),
            (settings["trials"] >= 1, "--trials must be at least 1"),
            (settings["lmax"] >= 1, "--lmax must be at least 1"),
            (0.0 < settings["lambda_frac"] < 1.0, "--lambda-frac must be in (0, 1)"),
            (settings["degree"] >= 1, "--degree must be at least 1"),
            (settings["sb"] >= 1.0, "--sb must be at least 1"),
            (settings["C"] > 0.0, "--C must be positive"),
            (not settings["C"] * settings["sb"] > MAX_NESTED,
             f"--C times --sb must be at most {MAX_NESTED:g}")):
        if not ok:
            raise ValueError(message)
    try:
        check_height_budget(*_field_shape(settings), settings["lambda_frac"])
    except ValueError as e:
        raise ValueError(f"--inputs {settings['inputs']} with --lmax {settings['lmax']}: {e}; "
                         "deeper levels leave the float range") from None


def resolve(args: argparse.Namespace) -> dict:
    """Merge flag/env/config/default values into one settings dict, with
    every value in range."""
    config = read_config(args.config) if getattr(args, "config", None) else {}
    settings = {}
    for key, default in DEFAULTS.items():
        value = getattr(args, key, None)
        if value is None:
            value = os.environ.get(ENV_PREFIX + key.upper())
        if value is None:
            value = config.get(key)
        if value is None:
            value = default
        settings[key] = _coerce(key, value)
    _check_ranges(settings)
    settings["machine"] = (
        getattr(args, "machine", None)
        or os.environ.get(ENV_PREFIX + "MACHINE")
        or config.get("machine")
    )
    if settings["machine"] and not Path(settings["machine"]).is_file():
        raise ValueError(f"machine file {settings['machine']} not found")
    return settings


# ---------------------------------------------------------------------------
# manifest


@dataclass
class RunManifest:
    """Everything needed to reproduce a run, written as flat key = value."""

    subcommand: str
    machine_name: str
    machine_digest: str
    constants: dict = dc_field(default_factory=dict)
    seeds: dict = dc_field(default_factory=dict)
    budgets: dict = dc_field(default_factory=dict)
    artifacts: list = dc_field(default_factory=list)

    def lines(self):
        rows = [
            ("subcommand", self.subcommand),
            ("version", __version__),
            ("machine.name", self.machine_name),
            ("machine.digest", self.machine_digest),
        ]
        for group, d in (("constant", self.constants), ("seed", self.seeds),
                         ("budget", self.budgets)):
            rows.extend((f"{group}.{k}", v) for k, v in sorted(d.items()))
        rows.extend(("artifact", a) for a in self.artifacts)
        return [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in rows]

    def write(self, outdir: Path):
        path = outdir / "manifest.txt"
        path.write_text("\n".join(self.lines()) + "\n")
        return path


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def base_manifest(sub: str, settings: dict) -> RunManifest:
    fs_lam = settings["lambda_frac"]
    return RunManifest(
        sub,
        Path(settings["machine"]).stem,
        _digest(settings["machine"]),
        constants={
            # the top speed: the sphere time step; every level runs below it
            "lambda": fs_lam * LAMBDA0,
            "lambda_frac": fs_lam,
            "eps": RAMP_EPS,
            "rho0": RHO0,
            "C": settings["C"],
        },
        seeds={"base": settings["seed"]},
        budgets={
            "inputs": settings["inputs"],
            "l_max": settings["lmax"],
            "trials": settings["trials"],
            "degree": settings["degree"],
            "series_order": 20,
        },
    )


# ---------------------------------------------------------------------------
# artifact writers


def write_csv(path: Path, header, rows):
    with path.open("w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def svg_trajectory(path: Path, curve, traj, l_max: int):
    """Self-contained vector plot: trajectory path over interval boxes.

    The encoded intervals are far below visual width, so boxes are drawn
    at a fixed minimum size centered on the exact anchors.
    """
    band = curve.band
    x0, x1 = 2 * band - 0.6, 2 * band + 1.6
    y0, y1 = -0.6, l_max + 0.6
    W, H = 440, 40 * (l_max + 2)
    sx = lambda x: (x - x0) / (x1 - x0) * W
    sy = lambda y: H - (y - y0) / (y1 - y0) * H
    f = lambda v: f"{v:.3f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    for l in range(min(l_max, len(curve.x) - 1) + 1):
        cx, cy = float(curve.x[l]), float(l)
        half = max(math.exp(min(curve.points[l].ln_half_width().ln(), 0.0)), 0.02)
        parts.append(
            f'<rect x="{f(sx(cx - half))}" y="{f(sy(cy) - 4)}" '
            f'width="{f(sx(cx + half) - sx(cx - half))}" height="8" '
            'fill="none" stroke="#cc3333" stroke-width="1"/>'
        )
    pts = []
    if traj is not None and traj.samples:
        px, py = curve.point(curve.param_of_arclength(np.array([r[1] for r in traj.samples])))
        pts = [f"{f(sx(a))},{f(sy(b))}" for a, b in zip(px.tolist(), py.tolist())]
    if len(pts) >= 2:
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            'stroke="#3355cc" stroke-width="1.5"/>'
        )
    spx, spy = curve.point(0.0)
    parts.append(
        f'<circle cx="{f(sx(float(spx)))}" cy="{f(sy(float(spy)))}" r="3" '
        'fill="#3355cc"/>'
    )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _field_shape(settings: dict) -> tuple[int, int]:
    """The (n_bands, l_max) of the field a run builds, for `_build` and `_check_ranges`."""
    return settings["inputs"], settings["lmax"] + 1


def _build(settings: dict):
    machine = load_machine(settings["machine"])
    n_bands, l_max = _field_shape(settings)
    fs = FieldSpec(machine, n_bands=n_bands, l_max=l_max, lambda_frac=settings["lambda_frac"])
    return machine, fs


def cmd_compile(settings, outdir, man):
    _, fs = _build(settings)
    for band in range(fs.n_bands):
        curve = fs.curve(band)
        path = outdir / f"curve_{band}.csv"
        write_csv(path, ["s", "x", "y", "kappa"],
                  [tuple(f"{v:.12g}" for v in r) for r in curve_records(curve)])
        man.artifacts.append(path.name)
        svg = outdir / f"curve_{band}.svg"
        svg_trajectory(svg, curve, None, settings["lmax"])
        man.artifacts.append(svg.name)
    grid = outdir / "field_grid.csv"
    step = 0.25
    ny = int((settings["lmax"] + 2) / step)
    nx = int((2 * fs.n_bands + 1) / step)
    pts = [(-0.5 + ix * step, -1.0 + iy * step) for iy in range(ny + 1) for ix in range(nx + 1)]
    vx, vy = field_eval_plane(fs, *zip(*pts))
    rows = [(f"{x:.4f}", f"{y:.4f}", f"{a:.12g}", f"{b:.12g}")
            for (x, y), a, b in zip(pts, vx.tolist(), vy.tolist())]
    write_csv(grid, ["x", "y", "vx", "vy"], rows)
    man.artifacts.append(grid.name)
    return 0


def cmd_simulate(settings, outdir, man):
    _, fs = _build(settings)
    verdicts = []
    unresolved = False
    for idx in range(settings["inputs"]):
        verdict, _, traj = simulate_input(fs, idx, None, settings["lmax"])
        unresolved |= verdict.kind == "UNRESOLVED"
        verdicts.append((idx, format_verdict(verdict)))
        tpath = outdir / f"trajectory_{idx}.csv"
        write_csv(tpath, ["t", "s", "rho_sign", "ln_abs_rho", "band", "l_next"],
                  [(f"{t:.12g}", f"{s:.12g}", sign, f"{lr:.12g}", b, ln)
                   for t, s, sign, lr, b, ln in trajectory_rows(traj)])
        epath = outdir / f"events_{idx}.csv"
        write_csv(epath, ["band", "l", "class", "q", "r", "s", "t"],
                  [r[:6] + (f"{r[6]:.12g}",) for r in event_rows(traj)])
        spath = outdir / f"trajectory_{idx}.svg"
        svg_trajectory(spath, fs.curve(idx), traj, settings["lmax"])
        man.artifacts.extend([tpath.name, epath.name, spath.name])
    vpath = outdir / "verdicts.csv"
    write_csv(vpath, ["input", "verdict"], verdicts)
    man.artifacts.append(vpath.name)
    return 1 if (unresolved and settings.get("fail_on_unresolved")) else 0


def _oracle_verdict(machine, config, lmax):
    result = run(machine, config, lmax)
    if isinstance(result, Halted):
        return format_verdict(SimulationVerdict("HALTED", result.config, result.steps))
    return format_verdict(SimulationVerdict("UNRESOLVED", budget=lmax))


def cmd_verify(settings, outdir, man):
    machine, fs = _build(settings)
    rows = []
    ok = True
    for idx, config, _ in enumerate_inputs(machine, settings["inputs"]):
        verdict, _, _ = simulate_input(fs, idx, None, settings["lmax"])
        flow = format_verdict(verdict)
        oracle = _oracle_verdict(machine, config, settings["lmax"])
        agree = flow == oracle
        ok &= agree
        rows.append((idx, oracle, flow, "agree" if agree else "DISAGREE"))
    path = outdir / "verify.csv"
    write_csv(path, ["input", "oracle", "flow", "status"], rows)
    man.artifacts.append(path.name)
    return 0 if ok else 1


def cmd_perturb(settings, outdir, man):
    _, fs = _build(settings)
    schedule = error_schedule(fs)
    rows = []
    ok = True
    for idx in range(settings["inputs"]):
        base, _, _ = simulate_input(fs, idx, None, settings["lmax"])
        baseline = format_verdict(base)
        for trial in range(settings["trials"]):
            seed = settings["seed"] + 1000 * idx + trial
            pert = sample_perturbation(schedule, seed)
            verdict, _, _ = simulate_input(fs, idx, None, settings["lmax"],
                                           perturbation=pert)
            got = format_verdict(verdict)
            agree = got == baseline
            ok &= agree
            rows.append((idx, seed, baseline, got, "agree" if agree else "DISAGREE"))
    path = outdir / "perturb.csv"
    write_csv(path, ["input", "seed", "baseline", "perturbed", "status"], rows)
    man.artifacts.append(path.name)
    return 0 if ok else 1


def cmd_extend3d(settings, outdir, man):
    _, fs = _build(settings)
    window = (0.0, 1.0, 0.0, float(min(settings["lmax"], 2)))
    report = fit_window_polynomial(fs, window, settings["degree"])
    F = report["F"]
    v, u = beltrami_from_potential(F, 1, K=20)
    res = residuals(u, v, F, 1)
    lines = [
        f"window = {window}",
        f"degree = {settings['degree']}",
        f"sup_value_error = {report['sup_value_error']:.6g}",
        f"l2_value_error = {report['l2_value_error']:.6g}",
        f"sup_gradient_error = {report['sup_gradient_error']:.6g}",
        f"ln_threshold = {report['ln_threshold']:.6g}",
        f"fit_status = {report['status']}",
        f"series_order = {u.K}",
        f"curl_residual_order = {res['curl_residual_order']}",
        f"div_residual_order = {res['div_residual_order']}",
        f"plane_restriction_ok = {res['plane_restriction_ok']}",
        f"checked_through = {res['checked_through']}",
    ]
    rpath = outdir / "extend3d.txt"
    rpath.write_text("\n".join(lines) + "\n")
    spath = outdir / "series.csv"
    write_csv(spath, ["k", "component", "i", "j", "numerator", "denominator"],
              series_rows(u))
    man.artifacts.extend([rpath.name, spath.name])
    lift_ok = (res["curl_residual_order"] is None
               and res["div_residual_order"] is None
               and res["plane_restriction_ok"])
    return 0 if lift_ok else 1


def cmd_sphere(settings, outdir, man):
    _, fs = _build(settings)
    delta = delta_threshold(fs.lam) / 2.0
    rows = []
    ok = True
    for idx in range(settings["inputs"]):
        cont, _, _ = simulate_input(fs, idx, None, settings["lmax"])
        disc, _, orbit = discrete_orbit_verdict(fs, idx, None, delta, settings["lmax"])
        agree = format_verdict(cont) == format_verdict(disc) and not orbit.band_gaps
        ok &= agree
        rows.append((idx, f"{delta:.12g}", format_verdict(cont), format_verdict(disc),
                     orbit.iterates, len(orbit.band_gaps),
                     "agree" if agree else "DISAGREE"))
    path = outdir / "sphere.csv"
    write_csv(path, ["input", "delta", "continuous", "discrete",
                     "iterates", "band_gaps", "status"], rows)
    man.artifacts.append(path.name)
    return 0 if ok else 1


def cmd_estimate(settings, outdir, man):
    est = resource_estimate(settings["sb"], settings["C"])
    digits = est.fixed_digits()  # the threshold's fixed part is -fix
    text = "\n".join([
        f"space_bound = {est.s_b}",
        f"C = {est.C}",
        f"inner_exponent = {est.inner:.12g}",
        f"lnln_norm_bound = {est.lnln_h1():.12g}",
        f"ln_threshold_offset = {math.log(est.C):.12g}",
        f"ln_threshold_fixed_digits = {digits}",
        f"ln_norm_bound_fixed_digits = {digits}",
    ])
    path = outdir / "estimate.txt"
    path.write_text(text + "\n")
    man.artifacts.append(path.name)
    print(text)
    return 0


COMMANDS = {
    "compile": cmd_compile,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "perturb": cmd_perturb,
    "extend3d": cmd_extend3d,
    "sphere": cmd_sphere,
    "estimate": cmd_estimate,
}

NEEDS_MACHINE = {"compile", "simulate", "verify", "perturb", "extend3d", "sphere"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="flowcomp",
        description="Compile Turing machines into planar gradient fields and "
                    "verify computation by trajectory.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_ in [
        ("compile", "build curves and field, dump grids and plots"),
        ("simulate", "flow trajectories with verdicts, events, and plots"),
        ("verify", "compare flow verdicts against direct execution"),
        ("perturb", "robustness sweep under scheduled perturbations"),
        ("extend3d", "window fit, series lift, residual report"),
        ("sphere", "discrete time-delta orbit comparison"),
        ("estimate", "nested-exponential resource bound"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--machine", help="machine description file")
        p.add_argument("--config", help="flat key = value settings file")
        p.add_argument("--inputs", type=int, help="number of enumerated inputs")
        p.add_argument("--lmax", type=int, help="height budget")
        p.add_argument("--seed", type=int, help="base random seed")
        p.add_argument("--lambda-frac", dest="lambda_frac", type=float,
                       help="flow speed as a fraction of each level's "
                            "contraction speed limit")
        p.add_argument("--out", help="output directory")
        if name == "simulate":
            p.add_argument("--fail-on-unresolved", action="store_true",
                           dest="fail_on_unresolved",
                           help="exit 1 when any verdict is UNRESOLVED")
        if name == "perturb":
            p.add_argument("--trials", type=int, help="perturbations per input")
        if name == "extend3d":
            p.add_argument("--degree", type=int, help="fit polynomial degree")
        if name == "estimate":
            p.add_argument("--sb", type=float, help="space bound")
            p.add_argument("--C", type=float, help="estimator constant")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = resolve(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    settings["fail_on_unresolved"] = getattr(args, "fail_on_unresolved", False)
    sub = args.subcommand
    if sub in NEEDS_MACHINE and not settings["machine"]:
        print("error: --machine is required", file=sys.stderr)
        return 2
    outdir = Path(settings["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if sub in NEEDS_MACHINE:
            man = base_manifest(sub, settings)
        else:
            man = RunManifest(sub, "none", "none",
                              budgets={"sb": settings["sb"], "C": settings["C"]})
        status = COMMANDS[sub](settings, outdir, man)
    except MachineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    man.write(outdir)
    return status


if __name__ == "__main__":
    sys.exit(main())
