"""Per-op output checks that do not trust the CLI's own status column.

Every verdict the CLI writes is compared with one recomputed here by direct
execution (`flowcomp.machine.run`); the lift report and the estimate are
compared with their exact expected values.  `check` returns a list of
problems, empty when the op is right.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import Op

from flowcomp.machine import Halted, enumerate_inputs, run, trajectory

EXPECTED_EXIT = 0
ESTIMATE_RTOL = 1e-9


def oracle_verdict(machine, config, lmax: int) -> str:
    result = run(machine, config, lmax)
    if isinstance(result, Halted):
        c = result.config
        return f"HALTED {c.q} {c.r} {c.s} {result.steps}"
    return f"UNRESOLVED {lmax}"


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def check(op: Op, rc, stdout: str) -> list[str]:
    problems = []
    if rc != EXPECTED_EXIT:
        problems.append(f"exit code {rc}, expected {EXPECTED_EXIT}")
    try:
        problems += CHECKS[op.sub](op, stdout)
        if not (op.out / "manifest.txt").is_file():
            problems.append("manifest.txt missing")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def _expected(op: Op) -> list[str]:
    return [oracle_verdict(op.machine, config, op.lmax)
            for _, config, _ in enumerate_inputs(op.machine, op.inputs)]


def _count(rows, n, what) -> list[str]:
    return [] if len(rows) == n else [f"{what}: {len(rows)} rows, expected {n}"]


def _check_verify(op: Op, stdout: str) -> list[str]:
    rows = _rows(op.out / "verify.csv")
    problems = _count(rows, op.inputs, "verify.csv")
    for i, (row, want) in enumerate(zip(rows, _expected(op))):
        if (row["input"], row["oracle"], row["flow"], row["status"]) != (str(i), want, want, "agree"):
            problems.append(f"verify.csv input {i}: {dict(row)} but oracle gives {want!r}")
    return problems


def _check_simulate(op: Op, stdout: str) -> list[str]:
    rows = _rows(op.out / "verdicts.csv")
    problems = _count(rows, op.inputs, "verdicts.csv")
    expected = _expected(op)
    for i, (row, want) in enumerate(zip(rows, expected)):
        if (row["input"], row["verdict"]) != (str(i), want):
            problems.append(f"verdicts.csv input {i}: {row['verdict']!r}, oracle {want!r}")
    for i, (_, config, _) in enumerate(enumerate_inputs(op.machine, op.inputs)):
        events = _rows(op.out / f"events_{i}.csv")
        crossings = op.lmax if op.steps[i] is None else op.steps[i]
        configs = trajectory(op.machine, config, crossings)
        problems += _count(events, crossings, f"events_{i}.csv")
        for ev, c in zip(events, configs[1:]):
            got = (ev["class"], ev["q"], ev["r"], ev["s"])
            if got != ("InsideBox", str(c.q), str(c.r), str(c.s)):
                problems.append(f"events_{i}.csv height {ev['l']}: {got}, oracle {c}")
                break
        for name in (f"trajectory_{i}.csv", f"trajectory_{i}.svg"):
            if not (op.out / name).is_file():
                problems.append(f"{name} missing")
    return problems


def _check_sphere(op: Op, stdout: str) -> list[str]:
    rows = _rows(op.out / "sphere.csv")
    problems = _count(rows, op.inputs, "sphere.csv")
    for i, (row, want) in enumerate(zip(rows, _expected(op))):
        got = (row["input"], row["continuous"], row["discrete"], row["band_gaps"], row["status"])
        if got != (str(i), want, want, "0", "agree"):
            problems.append(f"sphere.csv input {i}: {dict(row)} but oracle gives {want!r}")
    return problems


def _check_perturb(op: Op, stdout: str) -> list[str]:
    rows = _rows(op.out / "perturb.csv")
    problems = _count(rows, op.inputs * op.trials, "perturb.csv")
    expected = _expected(op)
    for row in rows:
        want = expected[int(row["input"])]
        if (row["baseline"], row["perturbed"], row["status"]) != (want, want, "agree"):
            problems.append(f"perturb.csv: {dict(row)} but oracle gives {want!r}")
    return problems


def _check_compile(op: Op, stdout: str) -> list[str]:
    problems = []
    for band in range(op.inputs):
        for name in (f"curve_{band}.csv", f"curve_{band}.svg"):
            if not (op.out / name).is_file():
                problems.append(f"{name} missing")
    step = 0.25
    ny = int((op.lmax + 2) / step)
    nx = int((2 * op.inputs + 1) / step)
    return problems + _count(_rows(op.out / "field_grid.csv"), (ny + 1) * (nx + 1),
                             "field_grid.csv")


def _check_extend3d(op: Op, stdout: str) -> list[str]:
    report = _report(op.out / "extend3d.txt")
    want = {"degree": str(op.degree), "curl_residual_order": "None",
            "div_residual_order": "None", "plane_restriction_ok": "True"}
    problems = [f"extend3d.txt {k} = {report.get(k)!r}, expected {v!r}"
                for k, v in want.items() if report.get(k) != v]
    if not _rows(op.out / "series.csv"):
        problems.append("series.csv is empty")
    return problems


def _check_estimate(op: Op, stdout: str) -> list[str]:
    text = (op.out / "estimate.txt").read_text()
    got = float(_report(op.out / "estimate.txt")["lnln_norm_bound"])
    want = math.exp(op.sb)
    problems = []
    if abs(got - want) > ESTIMATE_RTOL * want:
        problems.append(f"lnln_norm_bound = {got!r}, expected e^{op.sb} = {want!r}")
    if stdout.strip() != text.strip():
        problems.append("printed estimate differs from estimate.txt")
    return problems


CHECKS = {
    "verify": _check_verify,
    "simulate": _check_simulate,
    "sphere": _check_sphere,
    "perturb": _check_perturb,
    "compile": _check_compile,
    "extend3d": _check_extend3d,
    "estimate": _check_estimate,
}
