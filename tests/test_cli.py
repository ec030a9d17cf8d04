import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowcomp.cli import main, read_config
from flowcomp.field import height_ceiling

ROOT = Path(__file__).resolve().parent.parent
INC = str(ROOT / "machines" / "incrementer.tm")
SPIN = str(ROOT / "machines" / "spinner.tm")
RF = str(ROOT / "machines" / "right_filler.tm")


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
                 ("estimate", "--sb", "14"),  # C * s_b above 13
                 ("estimate", "--sb", "7", "--C", "2"),
                 # a machine path that names no file
                 ("verify", "--machine", str(tmp_path / "missing.tm")),
                 ("sphere", "--machine", str(tmp_path)),
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


@pytest.mark.parametrize("inputs", [1, 3])
def test_height_budget_float_ceiling(tmp_path, capsys, inputs):
    # the field reaches level --inputs + --lmax + 1; at the ceiling every
    # subcommand runs with no RuntimeWarning (an error in this suite), one
    # past it is a usage error that names the limit.  sphere is left out at
    # the ceiling: its orbit test allocates every iterate of a height's window
    ceiling = height_ceiling(0.5)
    lmax = ceiling - 1 - inputs
    for sub in ("verify", "simulate", "perturb", "compile", "extend3d"):
        trials = ("--trials", "1") if sub == "perturb" else ()
        assert run(sub, "--machine", SPIN, "--inputs", str(inputs), "--lmax", str(lmax),
                   *trials, "--out", str(tmp_path / sub)) == 0, sub
    capsys.readouterr()
    for sub in ("verify", "simulate", "perturb", "compile", "extend3d", "sphere"):
        assert run(sub, "--machine", SPIN, "--inputs", str(inputs), "--lmax", str(lmax + 1),
                   "--out", str(tmp_path / "past")) == 2, sub
        assert f"float ceiling {ceiling}" in capsys.readouterr().err
    assert not (tmp_path / "past").exists()


def test_one_parser_serves_every_call(tmp_path, capsys):
    from flowcomp import __version__, cli

    assert cli.build_parser() is cli.build_parser()
    # usage errors and --version, twice over in one process: each call exits
    # as it would in a fresh one
    for _ in range(2):
        for argv in (("unknown-subcommand",), ("verify", "--lmax", "x"), ("--version",)):
            with pytest.raises(SystemExit) as e:
                run(*argv)
            assert e.value.code == (0 if argv == ("--version",) else 2), argv
        assert capsys.readouterr().out == f"{__version__}\n"
        assert run("verify", "--out", str(tmp_path)) == 2  # missing --machine
        assert run("estimate", "--sb", "0", "--out", str(tmp_path)) == 2
        assert "error: --sb must be at least 1" in capsys.readouterr().err
        assert run("estimate", "--sb", "2", "--out", str(tmp_path)) == 0
        assert "space_bound = 2.0" in capsys.readouterr().out


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


def test_machine_that_starts_in_its_halting_state(tmp_path, capsys):
    tm = tmp_path / "h.tm"
    tm.write_text("machine h\nstates 1\nstart 1\nhalt 1\n")
    args = ("--machine", str(tm), "--inputs", "2", "--lmax", "3", "--out")
    assert run("verify", *args, str(tmp_path / "v")) == 0
    assert (tmp_path / "v" / "verify.csv").read_text().splitlines()[1:] == [
        "0,HALTED 1 0 0 0,HALTED 1 0 0 0,agree", "1,HALTED 1 1 0 0,HALTED 1 1 0 0,agree"]
    # the start's own box is the halting visit: no segment, no event row
    assert run("simulate", *args, str(tmp_path / "s")) == 0
    for i in range(2):
        assert (tmp_path / "s" / f"events_{i}.csv").read_text() == "band,l,class,q,r,s,t\n"
    assert run("sphere", *args, str(tmp_path / "o")) == 0
    rows = (tmp_path / "o" / "sphere.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2:4] + r.split(",")[5:] for r in rows] == [
        ["HALTED 1 0 0 0", "HALTED 1 0 0 0", "0", "agree"],
        ["HALTED 1 1 0 0", "HALTED 1 1 0 0", "0", "agree"]]
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


def test_estimate_digit_counts(tmp_path, capsys, monkeypatch, estimate_sb10):
    from flowcomp import cli

    assert run("estimate", "--sb", "5", "--C", "1", "--out", str(tmp_path / "a")) == 0
    assert (tmp_path / "a" / "estimate.txt").read_text() == ESTIMATE_SB5
    # e^(e^10) has about 9,600 digits, past the int-to-str limit; the run
    # gets the shared estimate of the same arguments, whose integer is built
    seen = []
    monkeypatch.setattr(cli, "resource_estimate", lambda *a: seen.append(a) or estimate_sb10)
    assert run("estimate", "--sb", "10", "--C", "1", "--out", str(tmp_path / "b")) == 0
    assert seen == [(estimate_sb10.s_b, estimate_sb10.C)]
    report = dict(line.split(" = ") for line in
                  (tmp_path / "b" / "estimate.txt").read_text().splitlines())
    fix = estimate_sb10.ln_h1.fix
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
# --degree 3), with the arc-length maps built by the Hermite rule and the
# error schedule's closed-form M
GOLDEN = {
    "curve_0.csv": "34ba0a30108839eb57690a07b15ce8874bd7ac1f1e31da036290a0110e8e1b94",
    "field_grid.csv": "83dfb38e8c9e706bd47baa36ec7a5b83b872eef48d5b3df5838edd68735e6880",
    "extend3d.txt": "5b7f79f06e8c9c60efebf8d4b1e7c71de4e6aec277d55c7894f416742b5c4244",
    "series.csv": "0b34064a9a8237ca69f41e873b6b47388cbe2a9381748f41efd06eebbf372e01",
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


def test_large_extend3d_artifacts(tmp_path, capsys, monkeypatch):
    # right_filler at --degree 6 is the largest window polynomial the lift
    # benchmark draws; F's coefficients lie on the dyadic grid 2^-40
    from flowcomp import cli

    fits = []
    fit = cli.fit_window_polynomial
    monkeypatch.setattr(cli, "fit_window_polynomial", lambda *a: fits.append(fit(*a)) or fits[-1])
    assert run("extend3d", "--machine", RF, "--inputs", "1", "--lmax", "8",
               "--degree", "6", "--out", str(tmp_path)) == 0
    d = math.lcm(*(v.denominator for v in fits[0]["F"].c.values()))
    assert d & (d - 1) == 0 and d.bit_length() == 41
    digests = digest_dir(tmp_path)
    assert digests["series.csv"] == (
        "4767f409cf22c24af71e4a4ca7bb927ee344a557affe4a282cacc44f32a759b0")
    assert digests["extend3d.txt"] == (
        "332306b847c0418b0ef4569512578ce8f17aae8fd34fae000f7640a2c9249802")
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
