"""Smoke-size tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from checker import check  # noqa: E402
from tracer import EXACT_COUNTS, PER_LAYER  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _last_json(result, names):
    return json.loads(run.final_line(result, names))


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == ["verify", "lift"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in SPEC["end_to_end"])


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    result = run.run_workload("lift", 3, seconds=0.0, trace=False, setup_repeats=1)
    names = [m["name"] for m in SPEC["end_to_end"]]
    line = _last_json(result, names)
    assert line["attempted"] == workloads.UNIT["lift"] and line["failed"] == 0 and line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    lines = run.summary_lines(result)
    for name, unit in run.END_TO_END + run.SUMMARY_ONLY:
        assert any(x.startswith(name + " ") and x.endswith(" " + unit) for x in lines), name


def test_times_scale_to_the_reference_host():
    import hostspeed

    samples = [{"interpreted": t, "decimal": 0.3} for t in (0.1, 0.1, 0.3)]
    reference = hostspeed.REFERENCE_S
    assert hostspeed.scales(samples, "interpreted") == pytest.approx(
        [reference["interpreted"] / 0.1, reference["interpreted"] / 0.2])
    assert hostspeed.scales(samples, "decimal") == pytest.approx([reference["decimal"] / 0.3] * 2)
    assert [hostspeed.part_of(s) for s in ("verify", "estimate")] == ["interpreted", "decimal"]
    records = [run.OpRecord(i, "verify", "early", [], t, 4, []) for i, t in enumerate((1.0, 3.0))]
    measured = run.end_to_end(records, [2.0])
    scaled = run.end_to_end(records, [2.0], [0.5, 0.5, 0.5])
    for name, unit in run.END_TO_END + run.SUMMARY_ONLY:
        factor = {"s": 0.5, "1/s": 2.0}.get(unit, 1.0)
        if measured[name] is not None:
            assert scaled[name] == pytest.approx(measured[name] * factor), name


def test_tail_keeps_ten_ops_beyond_it():
    assert run.tail([1.0] * 10) == (None, None, None)
    times = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(times)
    assert (pct, beyond) == (90, 10) and 89.0 < value < 90.0
    assert run.tail(times[:20])[2] == 10
    assert run.tail(times[:19]) == (None, None, None)


def test_dropped_counts_only_sums_past_the_cutoff():
    from flowcomp.logmag import LogMagnitude, signed_log_add
    from tracer import _log_add_dropped

    counts = {"logmag.signed_log_add.dropped": 0}
    for gap in (1.0, 40.0, 699.0, 701.0, 5000.0):
        args = (1, LogMagnitude.from_ln(0.0), -1, LogMagnitude.from_ln(-gap))
        _log_add_dropped(counts, args, signed_log_add(*args))
    huge = (1, LogMagnitude(10**60, 0.0), 1, LogMagnitude(-10**60, 0.0))
    _log_add_dropped(counts, huge, signed_log_add(*huge))
    _log_add_dropped(counts, (0, LogMagnitude.zero(), 1, LogMagnitude()), None)
    assert counts["logmag.signed_log_add.dropped"] == 3


def test_every_per_layer_metric_is_emitted_and_counts_repeat():
    first = run.run_workload("perturb", 3, seconds=0.0, trace=True, trace_ops=1)
    second = run.run_workload("perturb", 3, seconds=0.0, trace=True, trace_ops=1)
    line = _last_json(first, [name for name, _, _ in PER_LAYER])
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert line["failed"] == 0
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    m = first["metrics"]
    assert m["simulate.segments"] > 0 and m["field.error_schedule.calls"] == 1
    assert m["simulate.rhs_evals"] <= m["curves.kappa_at_arclength.calls"]
    assert m["logmag.signed_log_add.calls"] > 0 and m["robust.normal_component.calls"] > 0


def test_checker_flags_a_corrupted_verify_row(tmp_path):
    op = next(workloads.generate("verify", 3, tmp_path))
    assert op.sub == "verify"
    rc, _, stdout, error = run.call_cli(op.argv)
    assert error is None and check(op, rc, stdout) == []
    path = op.out / "verify.csv"
    header, row, *rest = path.read_text().splitlines()
    idx, oracle, flow, status = row.split(",")
    wrong = f"UNRESOLVED {op.lmax}" if flow.startswith("HALTED") else "HALTED 1 0 0 1"
    path.write_text("\n".join([header, ",".join([idx, oracle, wrong, status]), *rest]) + "\n")
    problems = check(op, rc, stdout)
    assert problems and "verify.csv input 0" in problems[0]


def test_same_seed_same_ops_and_classes(tmp_path):
    def first_round(workdir):
        workdir.mkdir()
        ops = list(itertools.islice(workloads.generate("lift", 5, workdir), 9))
        return [([x.replace(str(workdir), "") for x in op.argv], op.cls, op.steps)
                for op in ops]

    a, b = first_round(tmp_path / "a"), first_round(tmp_path / "b")
    assert a == b
    assert [cls for argv, cls, _ in a if argv[0] == "compile"] == list(workloads.CLASSES)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
