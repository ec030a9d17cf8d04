"""Guard for the benchmark tracer's view of the program.

`perfbench/tracer.py` wraps flowcomp names by their dotted paths, and wraps
a cached property differently from a function.  A renamed target, or one
that changed kind, would otherwise show only when the benchmark runs.  The
tracer's source is read, never written.
"""

import csv
import importlib
import inspect
import itertools
import types
from collections import Counter
from functools import cached_property
from pathlib import Path

from flowcomp.cli import main
from flowcomp.field import FieldSpec
from flowcomp.machine import MachineSpec, load_machine
from flowcomp.simulate import simulate_input
from flowcomp.sphere import delta_threshold, discrete_orbit_verdict

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MACHINE = Path(__file__).resolve().parent.parent / "machines" / "right_filler.tm"
CACHED = {"CurveFamily.arc_heights", "CurveFamily._arc_maps"}


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def resolve(mod_name, path):
    """The object one TARGETS entry names, looked up as the tracer does."""
    module = importlib.import_module(f"flowcomp.{mod_name}")
    if "." not in path:
        return getattr(module, path)
    cls_name, attr = path.split(".")
    return getattr(module, cls_name).__dict__[attr]


def test_every_tracer_target_resolves_and_keeps_its_kind():
    tracer = load_tracer()
    before = {}
    for mod_name, path, _ in tracer.TARGETS:
        obj = resolve(mod_name, path)
        if path in CACHED:
            assert isinstance(obj, cached_property), path
        else:
            assert inspect.isfunction(obj), path
        before[(mod_name, path)] = obj.func if path in CACHED else obj

    spinner = MachineSpec("spin", 2, 1, 2, {(1, d): (1, d, 0) for d in range(10)})
    with tracer.Tracer() as t:
        assert len(t.names) == len(tracer.TARGETS)
        t.op_id, t.active = 0, True
        simulate_input(FieldSpec(spinner, 1, 3), 0, None, 2)
        t.active = False
        values = t.metrics(0.0)
    assert [name for name, _, _ in tracer.PER_LAYER] == list(values)
    assert values["simulate.segments"] == 2 and values["simulate.crossings"] == 2
    spans = {t.names[i] for i in t.name_id}
    assert {"curves.arc_heights", "curves._arc_maps", "field.FieldSpec"} <= spans

    for (mod_name, path), obj in before.items():
        now = resolve(mod_name, path)
        assert (now.func if path in CACHED else now) is obj, path


def test_orbit_iterate_count_is_the_one_the_tracer_reads(tmp_path):
    # the tracer's sphere.iterates counter takes len(orbit.times), which the
    # orbit builds only when read; sphere.csv writes orbit.iterates
    argv = ["sphere", "--machine", str(MACHINE), "--inputs", "2", "--lmax", "5"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    with (tmp_path / "sphere.csv").open() as f:
        written = [int(row["iterates"]) for row in csv.DictReader(f)]
    fs = FieldSpec(load_machine(MACHINE), 2, 6)
    delta = delta_threshold(fs.lam) / 2.0
    for band, count in enumerate(written):
        result = discrete_orbit_verdict(fs, band, None, delta, 5)
        orbit = result[2]
        assert len(orbit.times) == orbit.iterates == count
        counts = Counter()
        load_tracer()._orbit_iterates(counts, None, result)
        assert counts["sphere.iterates"] == count


def test_counter_hooks_run_and_repeat_on_perturb_extend3d_and_compile(tmp_path):
    # the hooks on lambda_eval, signed_log_add and the Beltrami lift run here,
    # not only in the benchmark: every op exits 0 under the tracer, every
    # metric is reported, and the exact counts repeat from run to run
    tracer = load_tracer()
    ops = [["perturb", "--machine", str(MACHINE), "--inputs", "2", "--lmax", "3",
            "--trials", "1"],
           ["extend3d", "--machine", str(MACHINE), "--lmax", "3"],
           ["compile", "--machine", str(MACHINE), "--inputs", "1", "--lmax", "3"]]
    runs = []
    for k in range(2):
        with tracer.Tracer() as t:
            t.op_id, t.active = 0, True
            for argv in ops:
                assert main(argv + ["--out", str(tmp_path / f"{argv[0]}_{k}")]) == 0, argv
            t.active = False
            runs.append(t.metrics(0.0))
    first, second = runs
    assert list(first) == [name for name, _, _ in tracer.PER_LAYER]
    assert {name: first[name] for name in tracer.EXACT_COUNTS} == \
        {name: second[name] for name in tracer.EXACT_COUNTS}
    assert first["curves.lambda_eval.points"] > 0 and first["beltrami.terms"] > 0
    assert first["logmag.signed_log_add.calls"] > 0


def test_first_verify_round_counts_are_pinned(tmp_path, capsys):
    # the per-layer counts of seed 1's first round of `verify` ops, traced as
    # the benchmark traces them; they repeat exactly, so rebuilt work shows
    # here and not only in a timed run.  solver_steps counts the trajectory
    # rows built: only `simulate` writes them
    from test_workload_pins import load_workloads

    tracer = load_tracer()
    with tracer.Tracer() as t:
        for op in itertools.islice(load_workloads().generate("verify", 1, tmp_path), 9):
            t.op_id, t.active = op.index, True
            rc = main(op.argv)
            t.active = False
            assert rc == 0, op.argv
        values = t.metrics(0.0)
    capsys.readouterr()
    assert {name: values[name] for name in ("simulate.segments", "simulate.crossings",
                                            "simulate.solver_steps", "sphere.iterates")} == {
        "simulate.segments": 48, "simulate.crossings": 48,
        "simulate.solver_steps": 350, "sphere.iterates": 168_705}
