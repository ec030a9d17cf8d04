import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowcomp.cli import main, read_config

ROOT = Path(__file__).resolve().parent.parent
INC = str(ROOT / "machines" / "incrementer.tm")
SPIN = str(ROOT / "machines" / "spinner.tm")


def run(*argv):
    return main(list(argv))


def digest_dir(d: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(d.iterdir())
    }


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        run("unknown-subcommand")
    assert e.value.code == 2
    assert run("verify", "--out", str(tmp_path)) == 2  # missing --machine
    # out-of-range values are usage errors, not verification failures
    for argv in (("verify", "--machine", INC, "--lmax", "0"),
                 ("verify", "--machine", INC, "--lambda-frac", "2"),
                 ("extend3d", "--machine", INC, "--degree", "0"),
                 ("estimate", "--sb", "0"),
                 ("estimate", "--C", "0"),
                 # a run over no inputs or trials checks nothing
                 ("verify", "--machine", INC, "--inputs", "-1"),
                 ("verify", "--machine", INC, "--inputs", "0"),
                 ("simulate", "--machine", INC, "--inputs", "0"),
                 ("sphere", "--machine", INC, "--inputs", "0"),
                 ("perturb", "--machine", INC, "--trials", "-3"),
                 ("perturb", "--machine", INC, "--trials", "0")):
        assert run(*argv, "--out", str(tmp_path / "r")) == 2, argv
    # flags that no subcommand reads are gone
    for flag in ("--eps0", "--window"):
        with pytest.raises(SystemExit) as e:
            run("perturb", "--machine", INC, flag, "-1", "--out", str(tmp_path))
        assert e.value.code == 2
    capsys.readouterr()


def test_malformed_machine_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("machine bad\nstates 2\nstart 1\nthis is not a rule\n")
    assert run("verify", "--machine", str(bad), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "4" in err  # line number of the malformed rule


def test_verify_halting_machine(tmp_path, capsys):
    out = tmp_path / "v"
    assert run("verify", "--machine", INC, "--inputs", "3", "--lmax", "4",
               "--out", str(out)) == 0
    rows = (out / "verify.csv").read_text().splitlines()
    assert rows[0] == "input,oracle,flow,status"
    assert len(rows) == 4 and all(r.endswith("agree") for r in rows[1:])
    assert (out / "manifest.txt").exists()
    capsys.readouterr()


def test_simulate_looping_machine(tmp_path, capsys):
    out = tmp_path / "s"
    assert run("simulate", "--machine", SPIN, "--inputs", "1", "--lmax", "4",
               "--out", str(out)) == 0
    assert "UNRESOLVED 4" in (out / "verdicts.csv").read_text()
    assert run("simulate", "--machine", SPIN, "--inputs", "1", "--lmax", "4",
               "--fail-on-unresolved", "--out", str(tmp_path / "s2")) == 1
    svg = (out / "trajectory_0.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg and "rect" in svg
    capsys.readouterr()


def test_estimate_echo(tmp_path, capsys):
    out = tmp_path / "e"
    assert run("estimate", "--sb", "5", "--C", "1", "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "inner_exponent = 148.413159103" in text
    assert "lnln_norm_bound = 148.413159103" in text
    assert (out / "estimate.txt").read_text().strip() in text


ESTIMATE_SB5 = """space_bound = 5.0
C = 1.0
inner_exponent = 148.413159103
lnln_norm_bound = 148.413159103
ln_threshold_offset = 0
ln_threshold_fixed_digits = 95
ln_norm_bound_fixed_digits = 95
"""


def test_estimate_digit_counts(tmp_path, capsys, monkeypatch):
    from flowcomp import cli

    assert run("estimate", "--sb", "5", "--C", "1", "--out", str(tmp_path / "a")) == 0
    assert (tmp_path / "a" / "estimate.txt").read_text() == ESTIMATE_SB5
    # e^(e^10) has about 9,600 digits, past the int-to-str limit; keep the
    # estimate the run computes, which takes seconds
    seen, estimate = [], cli.resource_estimate
    monkeypatch.setattr(cli, "resource_estimate",
                        lambda *a: seen.append(estimate(*a)) or seen[0])
    assert run("estimate", "--sb", "10", "--C", "1", "--out", str(tmp_path / "b")) == 0
    report = dict(line.split(" = ") for line in
                  (tmp_path / "b" / "estimate.txt").read_text().splitlines())
    fix = seen[0].ln_h1.fix
    for key in ("ln_threshold_fixed_digits", "ln_norm_bound_fixed_digits"):
        d = int(report[key])
        assert 10 ** (d - 1) <= fix < 10**d
    capsys.readouterr()


def test_estimate_never_builds_the_fixed_point(tmp_path, capsys, monkeypatch):
    from flowcomp import robust

    def refuse(x):
        raise AssertionError("estimate built the exact fixed point")

    monkeypatch.setattr(robust, "_exp_fix", refuse)
    assert run("estimate", "--sb", "13", "--C", "1", "--out", str(tmp_path)) == 0
    report = dict(line.split(" = ") for line in
                  (tmp_path / "estimate.txt").read_text().splitlines())
    # floor(e^13 / ln 10) + 31
    assert report["ln_norm_bound_fixed_digits"] == "192168"
    assert report["ln_threshold_fixed_digits"] == "192168"
    capsys.readouterr()


# sha256 of artifacts of the incrementer at --inputs 1 --lmax 3 (extend3d at
# --degree 3), with the arc-length maps built by the Hermite rule
GOLDEN = {
    "curve_0.csv": "34ba0a30108839eb57690a07b15ce8874bd7ac1f1e31da036290a0110e8e1b94",
    "field_grid.csv": "83dfb38e8c9e706bd47baa36ec7a5b83b872eef48d5b3df5838edd68735e6880",
    "extend3d.txt": "9ff7f9fc3f12fee4d342a944ab0fee1362caa1314af8715bfe819dc03348d598",
    "series.csv": "b75593df5cb41b543641b1d00290ce1a65f3a8e635cd641531920147082959e2",
}


def test_deterministic_artifacts(tmp_path, capsys):
    golden = {}
    for argv in (("simulate", "--inputs", "2", "--lmax", "3"),
                 ("compile", "--inputs", "1", "--lmax", "3"),
                 ("extend3d", "--inputs", "1", "--lmax", "3", "--degree", "3")):
        a, b = tmp_path / argv[0] / "a", tmp_path / argv[0] / "b"
        for out in (a, b):
            assert run(*argv, "--machine", INC, "--out", str(out)) == 0
        da, db = digest_dir(a), digest_dir(b)
        # manifests name different output dirs is not the case: paths are relative
        assert da == db, argv[0]
        golden.update((name, d) for name, d in da.items() if name in GOLDEN)
    assert golden == GOLDEN
    capsys.readouterr()


def test_cli_import_loads_no_scipy():
    # the runtime needs only numpy; scipy serves the reference tests
    code = "import sys, flowcomp.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_config_file_and_env_override(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"machine = {INC}\ninputs = 2\nlmax = 3\n# comment\n")
    out = tmp_path / "c"
    assert run("verify", "--config", str(cfg), "--out", str(out)) == 0
    assert len((out / "verify.csv").read_text().splitlines()) == 3
    # env beats config
    monkeypatch.setenv("FLOWCOMP_INPUTS", "1")
    out2 = tmp_path / "c2"
    assert run("verify", "--config", str(cfg), "--out", str(out2)) == 0
    assert len((out2 / "verify.csv").read_text().splitlines()) == 2
    capsys.readouterr()


def test_read_config_rejects_garbage(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("no equals sign here\n")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        read_config(str(p))


def test_perturb_agrees(tmp_path, capsys):
    out = tmp_path / "p"
    assert run("perturb", "--machine", INC, "--inputs", "1", "--lmax", "3",
               "--trials", "2", "--seed", "7", "--out", str(out)) == 0
    rows = (out / "perturb.csv").read_text().splitlines()
    assert len(rows) == 3 and all(r.endswith("agree") for r in rows[1:])
    capsys.readouterr()


def test_compile_artifacts(tmp_path, capsys):
    out = tmp_path / "k"
    assert run("compile", "--machine", INC, "--inputs", "1", "--lmax", "3",
               "--out", str(out)) == 0
    assert (out / "curve_0.csv").read_text().startswith("s,x,y,kappa")
    assert (out / "field_grid.csv").read_text().startswith("x,y,vx,vy")
    assert (out / "curve_0.svg").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "machine.digest = " in manifest and "constant.lambda = " in manifest
    capsys.readouterr()
