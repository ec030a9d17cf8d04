"""Outside-in tracer: wraps public flowcomp functions with timed spans.

Nothing inside the program is changed on disk.  `Tracer.install()` replaces
each target function, method or cached property with a wrapper that records
one span (name, start, end, parent span, op) in flat in-memory arrays, plus a
few counters read off arguments and results.  `uninstall()` restores every
original object, so timed runs never see a wrapper.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter
from functools import cached_property
from pathlib import Path
from time import perf_counter

import numpy as np

from flowcomp.logmag import FIX

# the gap in ln beyond which `signed_log_add` drops the smaller term
LOG_ADD_CUTOFF = 700.0


def _lambda_points(counts, args, result):
    counts["curves.lambda_eval.points"] += int(np.size(args[1]))


def _solver_rows(counts, args, result):
    counts["simulate.solver_steps"] += len(result[2])


def _forcing_hit(counts, args, result):
    counts["robust.normal_component.hits"] += result[0] != 0


def _log_add_dropped(counts, args, result):
    """A sum of two nonzero terms whose logs differ by more than the cutoff.

    The gap is taken from the fixed and float parts directly: calling
    `diff_ln` here would add to its own call count."""
    sign_a, a, sign_b, b = args
    if sign_a == 0 or sign_b == 0 or a.is_zero or b.is_zero:
        return
    try:
        gap = abs((a.fix - b.fix) / FIX + (a.off - b.off))
    except OverflowError:
        gap = math.inf
    counts["logmag.signed_log_add.dropped"] += int(gap > LOG_ADD_CUTOFF)


def _lift_terms(counts, args, result):
    counts["beltrami.terms"] += sum(len(p.c) for vec in result[1].coeffs for p in vec)


def _orbit_iterates(counts, args, result):
    counts["sphere.iterates"] += len(result[2].times)


# (module, attribute path, counter hook).  A dotted path names a method or a
# cached property of a class; the span is named "<module>.<last part>", or
# "<module>.<Class>" for a constructor.  Besides the functions the metrics
# name, every function that another module calls is wrapped, so that time
# spent in one module is not billed to its caller's self time.
TARGETS = [
    ("logmag", "LogMagnitude.diff_ln", None),
    ("logmag", "signed_log_add", _log_add_dropped),
    ("machine", "step", None),
    ("machine", "run", None),
    ("machine", "trajectory", None),
    ("machine", "enumerate_inputs", None),
    ("machine", "encode", None),
    ("machine", "load_machine", None),
    ("curves", "bump_profile", None),
    ("curves", "CurveFamily.__init__", None),
    ("curves", "CurveFamily.lambda_eval", _lambda_points),
    ("curves", "CurveFamily.point", None),
    ("curves", "CurveFamily.frame", None),
    ("curves", "CurveFamily.arc_heights", None),
    ("curves", "CurveFamily._arc_maps", None),
    ("curves", "CurveFamily.param_of_arclength", None),
    ("curves", "CurveFamily.kappa_at_arclength", None),
    ("curves", "BandChart.plane_to_chart", None),
    ("curves", "curve_records", None),
    ("field", "FieldSpec.__init__", None),
    ("field", "FieldSpec.curve", None),
    ("field", "FieldSpec.chart", None),
    ("field", "field_eval_plane", None),
    ("field", "potential_plane", None),
    ("field", "error_schedule", None),
    ("simulate", "integrate_segment", _solver_rows),
    ("simulate", "classify_crossing", None),
    ("simulate", "simulate_input", None),
    ("simulate", "format_verdict", None),
    ("simulate", "trajectory_rows", None),
    ("simulate", "event_rows", None),
    ("robust", "sample_perturbation", None),
    ("robust", "PerturbationSpec.normal_component", _forcing_hit),
    ("robust", "resource_estimate", None),
    ("robust", "ResourceEstimate.lnln_h1", None),
    ("beltrami", "fit_window_polynomial", None),
    ("beltrami", "beltrami_from_potential", _lift_terms),
    ("beltrami", "residuals", None),
    ("beltrami", "series_rows", None),
    ("sphere", "delta_threshold", None),
    ("sphere", "discrete_orbit_verdict", _orbit_iterates),
    ("cli", "main", None),
    ("cli", "write_csv", None),
    ("cli", "svg_trajectory", None),
]

CURVE_BUILD = ("curves.bump_profile", "curves.CurveFamily", "curves.arc_heights",
               "curves._arc_maps")

# name, unit, better; the order in which the traced run reports them
PER_LAYER = [
    ("logmag.diff_ln.calls", "count", "lower"),
    ("logmag.signed_log_add.calls", "count", "lower"),
    ("logmag.signed_log_add.dropped", "count", "lower"),
    ("logmag.self_s", "s", "lower"),
    ("machine.step.calls", "count", "lower"),
    ("machine.run.calls", "count", "lower"),
    ("machine.enumerate_inputs.calls", "count", "lower"),
    ("machine.self_s", "s", "lower"),
    ("curves.lambda_eval.calls", "count", "lower"),
    ("curves.lambda_eval.points", "count", "lower"),
    ("curves.param_of_arclength.calls", "count", "lower"),
    ("curves.kappa_at_arclength.calls", "count", "lower"),
    ("curves.plane_to_chart.calls", "count", "lower"),
    ("curves.build_s", "s", "lower"),
    ("curves.self_s", "s", "lower"),
    ("field.error_schedule.calls", "count", "lower"),
    ("field.error_schedule.s", "s", "lower"),
    ("field.field_eval_plane.calls", "count", "lower"),
    ("field.potential_plane.calls", "count", "lower"),
    ("field.self_s", "s", "lower"),
    ("simulate.segments", "count", "lower"),
    ("simulate.solver_steps", "count", "lower"),
    ("simulate.rhs_evals", "count", "lower"),
    ("simulate.crossings", "count", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("robust.sample_perturbation.s", "s", "lower"),
    ("robust.normal_component.calls", "count", "lower"),
    ("robust.normal_component.hit_frac", "ratio", "higher"),
    ("robust.resource_estimate.s", "s", "lower"),
    ("robust.self_s", "s", "lower"),
    ("beltrami.fit_window_polynomial.s", "s", "lower"),
    ("beltrami.lift.s", "s", "lower"),
    ("beltrami.terms", "count", "lower"),
    ("beltrami.self_s", "s", "lower"),
    ("sphere.discrete_orbit_verdict.s", "s", "lower"),
    ("sphere.iterates", "count", "lower"),
    ("sphere.self_s", "s", "lower"),
    ("cli.write_csv.s", "s", "lower"),
    ("cli.svg_trajectory.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def _flowcomp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "flowcomp" or name.startswith("flowcomp."))]


class Tracer:
    """Span recorder plus the monkey patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = -1
        self.active = False  # wrappers record only while set
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, after):
        if name not in self.names:  # installed again for the next op
            self.names.append(name)
        nid = self.names.index(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        import flowcomp.cli  # noqa: F401  (loads every module to patch)

        modules = _flowcomp_modules()
        for mod_name, path, after in TARGETS:
            module = sys.modules[f"flowcomp.{mod_name}"]
            parts = path.split(".")
            if len(parts) == 1:
                original = getattr(module, path)
                wrapper = self._wrap(f"{mod_name}.{path}", original, after)
                # rebind every `from .x import f` copy as well
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
                continue
            cls = getattr(module, parts[0])
            attr = parts[1]
            label = parts[0] if attr == "__init__" else attr
            member = cls.__dict__[attr]
            if isinstance(member, cached_property):
                original = member.func
                member.func = self._wrap(f"{mod_name}.{label}", original, after)
                self._undo.append(lambda m=member, f=original: setattr(m, "func", f))
            else:
                self._set(cls, attr, self._wrap(f"{mod_name}.{label}", member, after))

    def _set(self, owner, key, value):
        old = vars(owner)[key]
        setattr(owner, key, value)
        self._undo.append(lambda: setattr(owner, key, old))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis --------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return name_id, start, end, parent

    def self_times(self):
        """Span duration minus the time its direct child spans cover."""
        name_id, start, end, parent = self.arrays()
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur, dur - covered

    def metrics(self, overhead_frac: float) -> dict:
        """Every PER_LAYER metric as {name: value}."""
        name_id, _, _, parent = self.arrays()
        dur, self_t = self.self_times()
        ids = {name: i for i, name in enumerate(self.names)}
        modules = np.array([n.split(".", 1)[0] for n in self.names])
        span_module = modules[name_id] if len(name_id) else np.array([], dtype=str)

        def calls(name):
            return int(np.count_nonzero(name_id == ids[name]))

        def total(*names):
            mask = np.isin(name_id, [ids[n] for n in names])
            return float(dur[mask].sum())

        def self_s(module):
            return float(self_t[span_module == module].sum())

        build = np.isin(name_id, [ids[n] for n in CURVE_BUILD])
        parent_build = np.zeros_like(build)
        parent_build[parent >= 0] = build[parent[parent >= 0]]
        rhs = (name_id == ids["curves.kappa_at_arclength"]) & (parent >= 0)
        rhs[rhs] = name_id[parent[rhs]] == ids["simulate.integrate_segment"]
        forcing_calls = calls("robust.normal_component")
        c = self.counts
        values = {
            "logmag.diff_ln.calls": calls("logmag.diff_ln"),
            "logmag.signed_log_add.calls": calls("logmag.signed_log_add"),
            "logmag.signed_log_add.dropped": c["logmag.signed_log_add.dropped"],
            "logmag.self_s": self_s("logmag"),
            "machine.step.calls": calls("machine.step"),
            "machine.run.calls": calls("machine.run"),
            "machine.enumerate_inputs.calls": calls("machine.enumerate_inputs"),
            "machine.self_s": self_s("machine"),
            "curves.lambda_eval.calls": calls("curves.lambda_eval"),
            "curves.lambda_eval.points": c["curves.lambda_eval.points"],
            "curves.param_of_arclength.calls": calls("curves.param_of_arclength"),
            "curves.kappa_at_arclength.calls": calls("curves.kappa_at_arclength"),
            "curves.plane_to_chart.calls": calls("curves.plane_to_chart"),
            "curves.build_s": float(dur[build & ~parent_build].sum()),
            "curves.self_s": self_s("curves"),
            "field.error_schedule.calls": calls("field.error_schedule"),
            "field.error_schedule.s": total("field.error_schedule"),
            "field.field_eval_plane.calls": calls("field.field_eval_plane"),
            "field.potential_plane.calls": calls("field.potential_plane"),
            "field.self_s": self_s("field"),
            "simulate.segments": calls("simulate.integrate_segment"),
            "simulate.solver_steps": c["simulate.solver_steps"],
            "simulate.rhs_evals": int(np.count_nonzero(rhs)),
            "simulate.crossings": calls("simulate.classify_crossing"),
            "simulate.self_s": self_s("simulate"),
            "robust.sample_perturbation.s": total("robust.sample_perturbation"),
            "robust.normal_component.calls": forcing_calls,
            "robust.normal_component.hit_frac":
                c["robust.normal_component.hits"] / forcing_calls if forcing_calls else 0.0,
            "robust.resource_estimate.s": total("robust.resource_estimate"),
            "robust.self_s": self_s("robust"),
            "beltrami.fit_window_polynomial.s": total("beltrami.fit_window_polynomial"),
            "beltrami.lift.s": total("beltrami.beltrami_from_potential", "beltrami.residuals"),
            "beltrami.terms": c["beltrami.terms"],
            "beltrami.self_s": self_s("beltrami"),
            "sphere.discrete_orbit_verdict.s": total("sphere.discrete_orbit_verdict"),
            "sphere.iterates": c["sphere.iterates"],
            "sphere.self_s": self_s("sphere"),
            "cli.write_csv.s": total("cli.write_csv"),
            "cli.svg_trajectory.s": total("cli.svg_trajectory"),
            "cli.self_s": self_s("cli"),
            "trace.overhead_frac": overhead_frac,
        }
        assert list(values) == [name for name, _, _ in PER_LAYER]
        return values

    def write(self, path: Path):
        """All spans, compressed: names plus one row per span."""
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start, end=end, parent=parent,
                            op=np.frombuffer(self.op, dtype=np.int32))
