"""flowcomp benchmark: drive the real CLI in-process on seeded workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

One closed-loop client calls `flowcomp.cli.main(argv)` once per op, checks
every op's output against direct execution, and prints a human-readable
summary followed by one JSON line:

- `--trace 0` times ops for `--seconds` seconds, rounded up to a whole unit
  (`workloads.UNIT`), and reports the end-to-end metrics (`END_TO_END`),
  with times scaled to a reference host speed (see hostspeed.py);
- `--trace 1` runs each op of the workload's first round twice in a row,
  untraced and then with every public flowcomp function wrapped (see
  tracer.py), and reports the per-layer metrics (`tracer.PER_LAYER`).  Its
  op set is fixed by the seed, not by time, so its counts repeat exactly.

`--workload all` runs each workload in its own fresh process.  Full results
and the spans of a traced run go to perfbench/out/.
"""

from __future__ import annotations

import os

# single-threaded BLAS/OpenMP, set before numpy is loaded anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the CLI reads unset options from FLOWCOMP_* variables; only argv may set them
for _var in [v for v in os.environ if v.startswith("FLOWCOMP_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 9
TAIL_BEYOND = 10

# name, unit; what --trace 0 reports (BENCHMARK.json lists the same)
END_TO_END = [
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
# reported in the summary only: zero or undefined on some workloads
SUMMARY_ONLY = [("op_s.tail", "s"), ("heights_per_s", "1/s"), ("fail_frac", "ratio")]


@dataclass
class OpRecord:
    index: int
    sub: str
    cls: str
    argv: list
    seconds: float
    heights: int
    problems: list


def call_cli(argv, tracer=None):
    """(exit code, seconds, stdout, error) of one in-process CLI call."""
    from flowcomp import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # an op that raises is a failed op; the run goes on
        error = traceback.format_exc(limit=-3).strip()
    finally:
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    if rc not in (0, None) and stderr.getvalue():
        error = stderr.getvalue().strip()
    return rc, seconds, stdout.getvalue(), error


def run_ops(ops, *, seconds=None, unit=1, tracer=None, speed=None) -> list[OpRecord]:
    """Closed loop: each op starts after the previous one is checked.

    With `seconds`, ops run until that much time has passed and then on to
    the end of the current unit of `unit` ops; otherwise every op runs.
    With a list `speed`, the host-speed kernel is timed into it before every
    op and once after the last.
    """
    import hostspeed
    from checker import check

    records = []
    t0 = perf_counter()
    for op in ops:
        if (seconds is not None and records and len(records) % unit == 0
                and perf_counter() - t0 >= seconds):
            break
        if tracer is not None:
            tracer.op_id = op.index
        if speed is not None:
            speed.append(hostspeed.sample())
        rc, dt, stdout, error = call_cli(op.argv, tracer)
        problems = check(op, rc, stdout)
        if error:
            problems.append(error)
        shutil.rmtree(op.out, ignore_errors=True)
        records.append(OpRecord(op.index, op.sub, op.cls, op.argv, dt,
                                0 if problems else op.heights, problems))
    if speed is not None:
        speed.append(hostspeed.sample())
    return records


def tail(times: list[float]):
    """(value, percentile, ops beyond it) at the highest whole percentile,
    from the median up, that has at least TAIL_BEYOND ops beyond it; all
    None when even the median has fewer."""
    if len(times) > TAIL_BEYOND:
        cuts = statistics.quantiles(times, n=100, method="inclusive")
        for pct in range(99, 49, -1):
            beyond = sum(1 for t in times if t > cuts[pct - 1])
            if beyond >= TAIL_BEYOND:
                return cuts[pct - 1], pct, beyond
    return None, None, None


def measure_setup(repeats: int = SETUP_REPEATS, speed=None) -> list[float]:
    """Wall time of fresh interpreters that import flowcomp.cli, each after
    a host-speed kernel timed into the list `speed`, when given."""
    import hostspeed

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        if speed is not None:
            speed.append(hostspeed.sample())
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import flowcomp.cli"], cwd=ROOT, env=env,
                       check=True, timeout=120)
        times.append(perf_counter() - t0)
    return times


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "flowcomp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(records: list[OpRecord], setup: list[float], scales=None) -> dict:
    """Metrics of a timed run.  `scales`, when given, holds one factor for
    each set-up time and then one for each op, by which its time is multiplied."""
    scales = scales or [1.0] * (len(setup) + len(records))
    setup = [t * f for t, f in zip(setup, scales)]
    times = [r.seconds * f for r, f in zip(records, scales[len(setup):])]
    wall = sum(times)
    failed = sum(1 for r in records if r.problems)
    return {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail(times)[0],
        "ops_per_s": len(records) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "heights_per_s": sum(r.heights for r in records) / wall,
        "fail_frac": failed / len(records),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS, trace_ops: int | None = None) -> dict:
    """One workload in this process; returns the full result record."""
    import hostspeed
    import workloads
    from tracer import PER_LAYER, Tracer

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=OUT))
    try:
        stream = workloads.generate(workload, seed, workdir)
        result = {"workload": workload, "seed": seed, "trace": int(trace),
                  "environment": environment()}
        if not trace:
            hostspeed.sample()  # loads scipy.integrate before the first sample
            speed = []
            setup = measure_setup(setup_repeats, speed)
            records = run_ops(stream, seconds=seconds, unit=workloads.UNIT[workload],
                              speed=speed)
            n = len(setup)
            by_part = {part: hostspeed.scales(speed, part) for part in hostspeed.REFERENCE_S}
            scales = by_part["decimal"][:n] + [
                by_part[hostspeed.part_of(r.sub)][n + i] for i, r in enumerate(records)]
            result["host_scale"] = statistics.median(scales)
            metrics = end_to_end(records, setup, scales)
            result["measured"] = end_to_end(records, setup)
            result["host_kernel_s"] = speed
            result["setup_runs_s"] = setup
            _, pct, beyond = tail([r.seconds for r in records])
            result["tail"] = {"percentile": pct, "ops_beyond": beyond, "ops": len(records)}
            units = dict(END_TO_END + SUMMARY_ONLY)
        else:
            n = trace_ops or 3 * len(workloads.SUBCOMMANDS[workload])
            ops = [next(stream) for _ in range(n)]
            # each op untraced and then traced, so both see the same host load
            untraced, records, tracer = [], [], Tracer()
            for op in ops:
                untraced += run_ops([op])
                with tracer:
                    records += run_ops([op], tracer=tracer)
            base = sum(r.seconds for r in untraced)
            metrics = tracer.metrics((sum(r.seconds for r in records) - base) / base)
            spans = OUT / f"spans_{workload}_s{seed}.npz"
            tracer.write(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
            records = untraced + records
            units = {name: unit for name, unit, _ in PER_LAYER}
        result["metrics"] = metrics
        result["units"] = units
        result["ops"] = [vars(r) for r in records]
        result["attempted"] = len(records)
        result["failed"] = sum(1 for r in records if r.problems)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summary_lines(result: dict) -> list[str]:
    env = result["environment"]
    lines = [f"# workload {result['workload']} seed {result['seed']} trace {result['trace']}",
             "# " + " ".join(f"{k}={v}" for k, v in env.items())]
    for name, unit in result["units"].items():
        value = result["metrics"][name]
        lines.append(f"{name:36s} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    if "host_scale" in result:
        lines.append(f"# times above are scaled by factors of median {result['host_scale']:.4f}, "
                     "the reference kernel time over the kernel times next to each item "
                     f"({len(result['host_kernel_s'])} in all); as measured:")
        for name, unit in result["units"].items():
            value = result["measured"][name]
            if unit in ("s", "1/s") and value is not None:
                lines.append(f"#   {name:34s} {value:.6g} {unit}")
    if "tail" in result:
        t = result["tail"]
        if t["percentile"] is None:
            lines.append(f"# op_s.tail: {t['ops']} ops, too few for {TAIL_BEYOND} beyond the median")
        else:
            lines.append(f"# op_s.tail is p{t['percentile']} of {t['ops']} ops, "
                         f"{t['ops_beyond']} beyond it")
    by_class = {}
    for op in result["ops"]:
        by_class.setdefault((op["sub"], op["cls"]), []).append(op["seconds"])
    for (sub, cls), times in sorted(by_class.items()):
        lines.append(f"# {sub:9s} {cls or '-':6s} n={len(times):3d} "
                     f"median {statistics.median(times):.3f} s")
    for op in result["ops"]:
        if op["problems"]:
            lines.append(f"FAILED op {op['index']} {' '.join(op['argv'])}")
            lines += [f"    {p}" for p in op["problems"]]
    return lines


def final_line(result: dict, names) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": result["units"][name]}
                    for name in names},
    })


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so memory and caches do not leak."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.LMAX:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "perturb", "lift", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flowcomp" / "cli.py").is_file():
        print(f"error: flowcomp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    if args.workload == "all":
        return run_all(args)
    from tracer import PER_LAYER

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"result_{args.workload}_s{args.seed}_t{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, default=str) + "\n")
    print("\n".join(summary_lines(result)))
    names = [n for n, _, _ in PER_LAYER] if args.trace else [n for n, _ in END_TO_END]
    print(final_line(result, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
