"""sha256 pins of the benchmark's first ops: files, stdout and exit codes.

The first 9 ops of `perfbench/workloads.generate(workload, seed=1)`, and the
first 30 `lift`, 90 `perturb` and 90 `verify` ops of the held-out seed 7919,
are run through the CLI in a temporary directory, and everything they leave is
hashed: each op's exit code and stdout, then its output files by name.  The
work directory's path is replaced by a placeholder, so the digest does not
depend on where the test runs.  A speed-up of the `lift`, `perturb` or
`verify` path must keep every one of these bytes.  `workloads.py` is read,
never written.
"""

import hashlib
import importlib.util
import itertools
import os
import sys
from pathlib import Path

import pytest

from flowcomp.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

PINS = {
    "lift": "89cc3f9311ec27bd4eb7ac00734b6b23b37eaa106037706a18727378e56dcc93",
    "perturb": "437b21f1da0d236a0e8ccb5fc23df8f7ba1e8bd5c586a12a2bac7310155fa700",
    "verify": "6c3d4cff27fcb350bf564f0f6d668a11e4ae794ffb1db826f20a256cba580ec0",
}
HELD_OUT_LIFT = "5322152188938da428eded59fcbb168058a5fb613efa6d7c2ef039450a3c2a20"
HELD_OUT_PERTURB = "c6952731095467a019426cffd07a4fd62d2c0e568f3f9740d76bc8e5af97ff99"
HELD_OUT_VERIFY = "a825aa84d0cbc435352bca817634b32117bca4ebcafebeac2a6c53e5d56052a7"


def load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def digest_first_ops(workload: str, work: Path, capsys, n: int = 9, seed: int = 1) -> str:
    h = hashlib.sha256()
    place = str(work).encode()
    for op in itertools.islice(load_workloads().generate(workload, seed, work), n):
        rc = main(op.argv)
        out = capsys.readouterr().out.encode()
        h.update(b"op %d %s exit %r\n" % (op.index, op.sub.encode(), rc))
        h.update(out.replace(place, b"<work>"))
        for p in sorted(op.out.rglob("*")):
            if p.is_file():
                h.update(b"\n" + str(p.relative_to(work)).encode() + b"\n")
                h.update(p.read_bytes().replace(place, b"<work>"))
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(PINS))
def test_first_benchmark_ops_are_pinned(workload, tmp_path, capsys, monkeypatch):
    for var in [v for v in os.environ if v.startswith("FLOWCOMP_")]:
        monkeypatch.delenv(var)
    assert digest_first_ops(workload, tmp_path, capsys) == PINS[workload]


def test_held_out_lift_ops_are_pinned(tmp_path, capsys, monkeypatch):
    for var in [v for v in os.environ if v.startswith("FLOWCOMP_")]:
        monkeypatch.delenv(var)
    assert digest_first_ops("lift", tmp_path, capsys, n=30, seed=7919) == HELD_OUT_LIFT


def test_held_out_perturb_ops_are_pinned(tmp_path, capsys, monkeypatch):
    for var in [v for v in os.environ if v.startswith("FLOWCOMP_")]:
        monkeypatch.delenv(var)
    assert digest_first_ops("perturb", tmp_path, capsys, n=90, seed=7919) == HELD_OUT_PERTURB


def test_held_out_verify_ops_are_pinned(tmp_path, capsys, monkeypatch):
    for var in [v for v in os.environ if v.startswith("FLOWCOMP_")]:
        monkeypatch.delenv(var)
    assert digest_first_ops("verify", tmp_path, capsys, n=90, seed=7919) == HELD_OUT_VERIFY
