"""Guard for the benchmark tracer's view of the program.

`perfbench/tracer.py` wraps flowcomp names by their dotted paths, and wraps
a cached property differently from a function.  A renamed target, or one
that changed kind, would otherwise show only when the benchmark runs.  The
tracer's source is read, never written.
"""

import importlib
import inspect
import types
from functools import cached_property
from pathlib import Path

from flowcomp.field import FieldSpec
from flowcomp.machine import MachineSpec
from flowcomp.simulate import IntegratorConfig, simulate_input

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
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
        simulate_input(FieldSpec(spinner, 1, 3), 0, None, IntegratorConfig(l_max=2))
        t.active = False
        values = t.metrics(0.0)
    assert [name for name, _, _ in tracer.PER_LAYER] == list(values)
    assert values["simulate.segments"] == 2 and values["simulate.crossings"] == 2
    spans = {t.names[i] for i in t.name_id}
    assert {"curves.arc_heights", "curves._arc_maps", "field.FieldSpec"} <= spans

    for (mod_name, path), obj in before.items():
        now = resolve(mod_name, path)
        assert (now.func if path in CACHED else now) is obj, path
