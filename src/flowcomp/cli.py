"""Command-line driver: compile a machine into a planar field, run and
verify flow trajectories, sweep perturbations, lift to 3D, compactify to
the sphere, and print resource estimates.

Every run writes a flat `key = value` manifest that fully determines the
artifacts; identical manifests produce byte-identical text output.  Exit
codes: 0 on success, 1 when a verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .beltrami import (FitError, beltrami_from_potential, fit_window_polynomial, residuals,
                       series_rows)
from .curves import RAMP_EPS, RHO0, curve_records
from .field import LAMBDA0, FieldSpec, check_height_budget, error_schedule, field_eval_plane
from .machine import UNRESOLVED, MachineError, enumerate_inputs, read_machine, run
from .robust import MAX_NESTED, resource_estimate, sample_perturbation
from .simulate import event_rows, format_verdict, simulate_input, trajectory_rows
from .sphere import delta_threshold, discrete_orbit_verdict

ENV_PREFIX = "FLOWCOMP_"
SERIES_ORDER = 20  # terms of extend3d's Beltrami series
MACHINE_RUNS = ("compile", "simulate", "verify", "perturb", "extend3d", "sphere")


def switch(value) -> bool:
    """A switch setting: True from its flag, or `0` or `1` from elsewhere."""
    if value not in (True, False, "0", "1"):
        raise ValueError(value)
    return value in (True, "1")


# name: (type, default, help, readers, manifest key).  A setting exists only on its
# readers, the subcommands that read it: there it has a flag, resolves flag >
# FLOWCOMP_<NAME> > config key > default, passes CHECKS and is recorded in
# manifest.txt under its key (None: no artifact moves).
SETTINGS = {
    "machine": (str, "", "machine description file", MACHINE_RUNS, None),
    "inputs": (int, 3, "number of enumerated inputs", MACHINE_RUNS, "budget.inputs"),
    "lmax": (int, 8, "height budget", MACHINE_RUNS, "budget.l_max"),
    "seed": (int, 0, "base random seed", ("perturb",), "seed.base"),
    "lambda_frac": (float, 0.5, "flow speed as a fraction of each level's "
                                "contraction speed limit", MACHINE_RUNS, "constant.lambda_frac"),
    "out": (str, "out", "output directory", (*MACHINE_RUNS, "estimate"), None),
    "trials": (int, 5, "perturbations per input", ("perturb",), "budget.trials"),
    "degree": (int, 3, "fit polynomial degree", ("extend3d",), "budget.degree"),
    "sb": (float, 2.0, "space bound", ("estimate",), "budget.sb"),
    "C": (float, 1.0, "estimator constant", ("estimate",), "budget.C"),
    "fail_on_unresolved": (switch, False, "exit 1 when any verdict is UNRESOLVED",
                           ("simulate",), None),
}


# ---------------------------------------------------------------------------
# configuration resolution: flag > environment > config file > default


def read_config(path: str) -> dict:
    """Flat `setting = value` file of UTF-8 text, a leading BOM too; blank lines
    and `#` comments ignored; each key at most once."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    out, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in SETTINGS:
            raise ValueError(f"{path}:{lineno}: key `{key}` names no setting")
        if key in first:
            raise ValueError(f"{path}:{lineno}: key `{key}` given again, "
                             f"first on line {first[key]}")
        first[key] = lineno
        out[key] = value
    return out


def _below_float_ceiling(inputs: int, lmax: int, lambda_frac: float) -> bool:
    """Check the field `main` builds (heights 0 to lmax + 1); raise its own message."""
    try:
        return check_height_budget(inputs, lmax + 1, lambda_frac) is None
    except ValueError as e:
        raise ValueError(f"--inputs {inputs} with --lmax {lmax}: {e}; "
                         "deeper levels leave the float range") from None


# Usage errors in the order reported, each checked where every setting it names
# is read: (settings, test of their values, message with them as format fields)
CHECKS = (
    (("inputs",), lambda n: n >= 1, "--inputs must be at least 1"),
    (("trials",), lambda n: n >= 1, "--trials must be at least 1"),
    (("lmax",), lambda n: n >= 1, "--lmax must be at least 1"),
    (("seed",), lambda n: n >= 0, "--seed must be at least 0"),
    (("lambda_frac",), lambda f: 0.0 < f < 1.0, "--lambda-frac must be in (0, 1)"),
    (("degree",), lambda n: n >= 1, "--degree must be at least 1"),
    (("sb",), lambda sb: sb >= 1.0, "--sb must be at least 1"),
    (("C",), lambda C: C > 0.0, "--C must be positive"),
    (("C", "sb"), lambda C, sb: not C * sb > MAX_NESTED,
     f"--C times --sb must be at most {MAX_NESTED:g}"),
    # the norm bound C e^(e^(e^(C sb))) exceeds 1, so it has a ln ln; C sb <= MAX_NESTED
    (("C", "sb"), lambda C, sb: C >= 1.0 or math.exp(C * sb) > math.log(-math.log(C)),
     "--C {} with --sb {} puts the norm bound at most 1, where it has no ln ln"),
    (("inputs", "lmax", "lambda_frac"), _below_float_ceiling, ""),
    (("machine",), lambda path: path != "", "--machine is required"),
    (("machine",), lambda path: Path(path).exists(), "machine file {} not found"),
    (("machine",), lambda path: Path(path).is_file(), "machine file {} is not a file"),
)


def resolve(args: argparse.Namespace) -> dict:
    """The settings that `args.subcommand` reads, resolved, typed and checked (or a ValueError)."""
    config = read_config(args.config) if args.config else {}
    settings = {}
    for key, (kind, default, _, readers, _) in SETTINGS.items():
        if args.subcommand not in readers:
            continue
        env = ENV_PREFIX + key.upper()
        sources = ((getattr(args, key), None), (os.environ.get(env), env),
                   (config.get(key), f"{args.config}: key `{key}`"))
        value, source = next((s for s in sources if s[0] is not None), (default, None))
        try:
            settings[key] = kind(value)
        except ValueError:
            raise ValueError(f"{source}: expected {kind.__name__}, got {value!r}") from None
    for names, ok, message in CHECKS:
        values = [settings[key] for key in names if key in settings]
        if len(values) == len(names) and not ok(*values):
            raise ValueError(message.format(*values))
    return settings


# ---------------------------------------------------------------------------
# artifact writers


def write_csv(path: Path, header, fmt: str, rows):
    """The header, then each row tuple through the %-template `fmt`, in one write.
    No field holds a comma, a quote or a line break, so this is the text that
    `csv.writer(lineterminator="\\n")` writes of the rows as `fmt` formats them."""
    fmt += "\n"
    path.write_text(",".join(header) + "\n" + "".join([fmt % row for row in rows]),
                    newline="")


def svg_trajectory(path: Path, curve, traj, l_max: int):
    """Self-contained vector plot: trajectory path over interval boxes.

    The encoded intervals are far below visual width, so boxes are drawn
    at a fixed minimum size centered on the exact anchors.
    """
    band = curve.band
    x0, x1 = 2 * band - 0.6, 2 * band + 1.6
    y0, y1 = -0.6, l_max + 0.6
    W, H = 440, 40 * (l_max + 2)
    sx = lambda x: (x - x0) / (x1 - x0) * W  # on floats and arrays alike
    sy = lambda y: H - (y - y0) / (y1 - y0) * H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    for l in range(min(l_max, len(curve.x) - 1) + 1):
        cx, cy = float(curve.x[l]), float(l)
        half = max(math.exp(min(curve.points[l].ln_half_width().ln(), 0.0)), 0.02)
        parts.append('<rect x="%.3f" y="%.3f" width="%.3f" height="8" fill="none" '
                     'stroke="#cc3333" stroke-width="1"/>'
                     % (sx(cx - half), sy(cy) - 4, sx(cx + half) - sx(cx - half)))
    if traj is not None and len(traj.samples) >= 2:
        px, py = curve.point(curve.param_of_arclength(np.array([r[1] for r in traj.samples])))
        xy = np.column_stack((sx(px), sy(py))).ravel().tolist()
        parts.append(f'<polyline points="{" ".join(["%.3f,%.3f"] * len(px)) % tuple(xy)}" '
                     'fill="none" stroke="#3355cc" stroke-width="1.5"/>')
    # the start: lambda is flat at sigma = 0, so the curve's point there is (x[0], 0)
    parts.append('<circle cx="%.3f" cy="%.3f" r="3" fill="#3355cc"/>'
                 % (sx(float(curve.x[0])), sy(0.0)))
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def write_agreement(path: Path, header, fmt: str, rows) -> int:
    """`write_csv` of rows whose last field is whether their verdicts agree,
    written `agree` or `DISAGREE`: 1 if any row disagrees, else 0."""
    write_csv(path, header, fmt, [(*row[:-1], "agree" if row[-1] else "DISAGREE") for row in rows])
    return 0 if all(row[-1] for row in rows) else 1


def write_manifest(outdir: Path, sub: str, settings: dict, artifacts: list, source: bytes):
    """Everything needed to reproduce the run, as flat `key = value` lines: the
    machine, by the bytes it was parsed from, and fixed geometry where a machine
    is read, then the settings read."""
    head, rows = [], {SETTINGS[k][4]: v for k, v in settings.items() if SETTINGS[k][4]}
    if "machine" in settings:
        head = [("machine.name", Path(settings["machine"]).stem),
                ("machine.digest", hashlib.sha256(source).hexdigest())]
        rows |= {"constant.eps": RAMP_EPS, "constant.rho0": RHO0,
                 # the top speed: the sphere time step; every level runs below it
                 "constant.lambda": settings["lambda_frac"] * LAMBDA0}
    if "degree" in settings:
        rows["budget.series_order"] = SERIES_ORDER
    groups = ("constant", "seed", "budget")
    rows = [("subcommand", sub), ("version", __version__), *head,
            *sorted(rows.items(), key=lambda row: (groups.index(row[0].split(".")[0]), row[0])),
            *(("artifact", name) for name in artifacts)]
    (outdir / "manifest.txt").write_text("".join(
        f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n" for k, v in rows))


# ---------------------------------------------------------------------------
# subcommands


def cmd_compile(settings, fs, out):
    for band in range(fs.n_bands):
        curve = fs.curve(band)
        write_csv(out(f"curve_{band}.csv"), ["s", "x", "y", "kappa"], "%.12g,%.12g,%.12g,%.12g",
                  curve_records(curve))
        svg_trajectory(out(f"curve_{band}.svg"), curve, None, settings["lmax"])
    step = 0.25
    ny = int((settings["lmax"] + 2) / step)
    nx = int((2 * fs.n_bands + 1) / step)
    x = np.tile(-0.5 + np.arange(nx + 1) * step, ny + 1)  # row by row, x fastest
    y = np.repeat(-1.0 + np.arange(ny + 1) * step, nx + 1)
    vx, vy = field_eval_plane(fs, x, y)
    write_csv(out("field_grid.csv"), ["x", "y", "vx", "vy"], "%.4f,%.4f,%.12g,%.12g",
              zip(x.tolist(), y.tolist(), vx.tolist(), vy.tolist()))
    return 0


def cmd_simulate(settings, fs, out):
    verdicts = []
    unresolved = False
    for idx in range(settings["inputs"]):
        verdict, _, traj = simulate_input(fs, idx, None, settings["lmax"], samples=True)
        unresolved |= verdict is UNRESOLVED
        verdicts.append((idx, format_verdict(verdict, settings["lmax"])))
        write_csv(out(f"trajectory_{idx}.csv"),
                  ["t", "s", "rho_sign", "ln_abs_rho", "band", "l_next"],
                  "%.12g,%.12g,%d,%.12g,%d,%d", trajectory_rows(traj))
        write_csv(out(f"events_{idx}.csv"), ["band", "l", "class", "q", "r", "s", "t"],
                  "%d,%d,%s,%s,%s,%s,%.12g", event_rows(traj))
        svg_trajectory(out(f"trajectory_{idx}.svg"), fs.curve(idx), traj, settings["lmax"])
    write_csv(out("verdicts.csv"), ["input", "verdict"], "%d,%s", verdicts)
    return 1 if (settings["fail_on_unresolved"] and unresolved) else 0


def cmd_verify(settings, fs, out):
    lmax, rows = settings["lmax"], []
    for idx, config, _ in enumerate_inputs(fs.machine, settings["inputs"]):
        verdict, _, _ = simulate_input(fs, idx, None, lmax)
        oracle = run(fs.machine, config, lmax)
        rows.append((idx, format_verdict(oracle, lmax), format_verdict(verdict, lmax),
                     verdict == oracle))
    return write_agreement(out("verify.csv"), ["input", "oracle", "flow", "status"],
                           "%d,%s,%s,%s", rows)


def cmd_perturb(settings, fs, out):
    schedule = error_schedule(fs)
    lmax, rows = settings["lmax"], []
    for idx in range(settings["inputs"]):
        base, _, _ = simulate_input(fs, idx, None, lmax)
        baseline = format_verdict(base, lmax)
        for trial in range(settings["trials"]):
            seed = settings["seed"] + 1000 * idx + trial
            pert = sample_perturbation(schedule, seed)
            verdict, _, _ = simulate_input(fs, idx, None, lmax, perturbation=pert)
            rows.append((idx, seed, baseline, format_verdict(verdict, lmax), verdict == base))
    return write_agreement(out("perturb.csv"),
                           ["input", "seed", "baseline", "perturbed", "status"],
                           "%d,%d,%s,%s,%s", rows)


def cmd_extend3d(settings, fs, out):
    window = (0.0, 1.0, 0.0, float(min(settings["lmax"], 2)))
    report = fit_window_polynomial(fs, window, settings["degree"])
    F = report["F"]
    v, u = beltrami_from_potential(F, 1, K=SERIES_ORDER)
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
    out("extend3d.txt").write_text("\n".join(lines) + "\n")
    write_csv(out("series.csv"), ["k", "component", "i", "j", "numerator", "denominator"],
              "%d,%d,%d,%d,%d,%d", series_rows(u))
    lift_ok = (res["curl_residual_order"] is None
               and res["div_residual_order"] is None
               and res["plane_restriction_ok"])
    return 0 if lift_ok else 1


def cmd_sphere(settings, fs, out):
    delta = delta_threshold(fs.lam) / 2.0
    lmax, rows = settings["lmax"], []
    for idx in range(settings["inputs"]):
        cont, _, _ = simulate_input(fs, idx, None, lmax)
        disc, _, orbit = discrete_orbit_verdict(fs, idx, None, delta, lmax)
        rows.append((idx, delta, format_verdict(cont, lmax), format_verdict(disc, lmax),
                     orbit.iterates, len(orbit.band_gaps), cont == disc and not orbit.band_gaps))
    return write_agreement(out("sphere.csv"), ["input", "delta", "continuous", "discrete",
                                               "iterates", "band_gaps", "status"],
                           "%d,%.12g,%s,%s,%d,%d,%s", rows)


def cmd_estimate(settings, fs, out):
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
    out("estimate.txt").write_text(text + "\n")
    print(text)
    return 0


COMMANDS = {
    "compile": (cmd_compile, "build curves and field, dump grids and plots"),
    "simulate": (cmd_simulate, "flow trajectories with verdicts, events, and plots"),
    "verify": (cmd_verify, "compare flow verdicts against direct execution"),
    "perturb": (cmd_perturb, "robustness sweep under scheduled perturbations"),
    "extend3d": (cmd_extend3d, "window fit, series lift, residual report"),
    "sphere": (cmd_sphere, "discrete time-delta orbit comparison"),
    "estimate": (cmd_estimate, "nested-exponential resource bound"),
}


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
    for name, (_, help_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="flat key = value settings file")
        for key, (kind, _, text, readers, _) in SETTINGS.items():
            if name in readers:
                p.add_argument("--" + key.replace("_", "-"), help=text, **(
                    {"action": "store_true", "default": None} if kind is switch
                    else {"type": kind}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = resolve(args)
        outdir = Path(settings["out"])
        outdir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    artifacts, fs, source = [], None, b""

    def out(name: str) -> Path:
        """The path of the artifact `name`, listed in the manifest in the order asked for."""
        artifacts.append(name)
        return outdir / name

    try:
        if "machine" in settings:  # read once: the bytes parsed are the bytes hashed
            machine, source = read_machine(settings["machine"])
            fs = FieldSpec(machine, n_bands=settings["inputs"], l_max=settings["lmax"] + 1,
                           lambda_frac=settings["lambda_frac"])
        status = COMMANDS[args.subcommand][0](settings, fs, out)
        write_manifest(outdir, args.subcommand, settings, artifacts, source)
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (MachineError, FitError)) else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
