import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowcomp.cli import build_parser, main, read_config, resolve
from flowcomp.field import FieldSpec, height_ceiling
from flowcomp.machine import enumerate_inputs, load_machine, trajectory

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
    # past it is a usage error that names the limit
    ceiling = height_ceiling(0.5)
    lmax = ceiling - 1 - inputs
    for sub in ("verify", "simulate", "perturb", "compile", "extend3d", "sphere"):
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


def test_estimate_with_a_norm_bound_at_most_1_is_a_usage_error(tmp_path, capsys):
    # ln C + e^(e^(C sb)) = -1.86: the bound is below 1 and has no ln ln
    assert run("estimate", "--C", "0.01", "--sb", "1", "--out", str(tmp_path / "a")) == 2
    err = capsys.readouterr().err
    assert "--C 0.01 with --sb 1.0" in err and "at most 1" in err
    # ln ln = -0.33: the bound exceeds 1, so its ln ln is printed
    assert run("estimate", "--C", "0.1", "--sb", "1", "--out", str(tmp_path / "b")) == 0
    assert capsys.readouterr().out == ESTIMATE_C01
    # C sb = 13 is checked without exponentiating twice
    assert run("estimate", "--C", "0.001", "--sb", "13000", "--out", str(tmp_path / "c")) == 0
    capsys.readouterr()


ESTIMATE_C01 = """space_bound = 1.0
C = 0.1
inner_exponent = 1.10517091808
lnln_norm_bound = -0.332462641869
ln_threshold_offset = -2.30258509299
ln_threshold_fixed_digits = 31
ln_norm_bound_fixed_digits = 31
"""


def test_extend3d_degree_above_the_kept_samples_is_a_usage_error(tmp_path, capsys):
    # degree 10 has 66 monomials; the window keeps 63 samples of the bands
    assert run("extend3d", "--machine", INC, "--degree", "10",
               "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "degree 10 has 66 monomials" in err and "63 samples" in err


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


# sha256 of right_filler's `compile` at --inputs 2 --lmax 5: two bands, so the
# field grid spans both and the band loop writes two curves and plots
GOLDEN_RF_COMPILE = {
    "curve_0.csv": "fdd3e5187b8b3838770ff2f677e2ae84fdc71803ea06fc2f3c8982854f6257da",
    "curve_0.svg": "5a31b85bea14e7c6bf1cfb7815c7fa03c1d9c3fff6b4f337f83b0a1011d266c8",
    "curve_1.csv": "259fa69bc35153de0372cef7c6b96e950fcdbeaa51445d2b64a3792799433e22",
    "curve_1.svg": "4b8ce55bfeba2de94edd993aa6bdc306d10d0d85b265bec1d3561aad7ab24c03",
    "field_grid.csv": "f04ea5353b6e923ba27173f711d7e34da169b6b3cdf9b049edae2a942e9b2018",
    "manifest.txt": "496c2c8ad101280acfaf47f8d4e5bc903b6b42c12c2e95f4776d486082b9de3a",
}


def test_deterministic_artifacts(tmp_path, capsys):
    golden, rf = {}, {}
    for machine, argv, seen, names in (
            (INC, ("simulate", "--inputs", "2", "--lmax", "3"), golden, GOLDEN),
            (INC, ("compile", "--inputs", "1", "--lmax", "3"), golden, GOLDEN),
            (INC, ("extend3d", "--inputs", "1", "--lmax", "3", "--degree", "3"), golden, GOLDEN),
            (RF, ("compile", "--inputs", "2", "--lmax", "5"), rf, GOLDEN_RF_COMPILE)):
        run_dir = tmp_path / f"{Path(machine).stem}_{argv[0]}"
        a, b = run_dir / "a", run_dir / "b"
        for out in (a, b):
            assert run(*argv, "--machine", machine, "--out", str(out)) == 0
        da, db = digest_dir(a), digest_dir(b)
        # manifests name different output dirs is not the case: paths are relative
        assert da == db, argv[0]
        seen.update((name, d) for name, d in da.items() if name in names)
    assert golden == GOLDEN
    assert rf == GOLDEN_RF_COMPILE
    capsys.readouterr()


# sha256 of right_filler's `simulate` at --inputs 1 --lmax 24, whose tape
# integer grows to 24 nines, past 2^64
SIMULATE_RF_24 = {
    "events_0.csv": "fec9bfe915d581c73cd25826fa39addf1142cfa65e98b8f92c17ec538eaf2c89",
    "manifest.txt": "a592819480b82e6a85892a0ad940c7730ae7337b8b1b04ccc349a7db20814d41",
    "trajectory_0.csv": "6c10fd07ff278d58f056142dcf87acb531827a3eea2e414d277c95def00d923d",
    "trajectory_0.svg": "90f68a8c1604ecd286ec91f2cdfdf8ac5ad20ea7433e2a4f2343d2bda5546c21",
    "verdicts.csv": "ce659db8763864dd0abf9d63cfcdebacf92a1d665f86b87d533797a15eb1671c",
}


def test_large_tape_integers_reach_the_event_log(tmp_path, capsys):
    assert run("simulate", "--machine", RF, "--inputs", "1", "--lmax", "24",
               "--out", str(tmp_path)) == 0
    machine = load_machine(RF)
    [(_, c0, _)] = enumerate_inputs(machine, 1)
    configs = trajectory(machine, c0, 24)
    rows = [r.split(",") for r in (tmp_path / "events_0.csv").read_text().splitlines()[1:]]
    assert [(int(l), cls) for _, l, cls, *_ in rows] == [(l, "InsideBox") for l in range(1, 25)]
    # every digit of q, r and s, exactly as the machine steps them
    assert [tuple(map(int, row[3:6])) for row in rows] == [
        (c.q, c.r, c.s) for c in configs[1:]]
    assert configs[24].s == int("9" * 24) > 2**64
    assert digest_dir(tmp_path) == SIMULATE_RF_24
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


def _fresh_modules(module: str, prefixes: tuple) -> list:
    """The loaded modules named with one of `prefixes` after importing `module`
    in a fresh interpreter, sorted."""
    code = (f"import sys, {module}; "
            f"print(*sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.split()


def test_cli_import_loads_no_scipy():
    # the runtime needs only numpy; scipy serves the reference tests, and the
    # tables are written without the csv module
    assert _fresh_modules("flowcomp.cli", ("scipy", "csv")) == []


def test_package_import_loads_only_the_module_asked_for():
    # the package holds no re-exports, so the machine model loads without numpy
    assert _fresh_modules("flowcomp.machine", ("numpy",)) == []
    # the driver loads all nine modules, which the perfbench tracer patches
    assert _fresh_modules("flowcomp.cli", ("flowcomp.",)) == [
        f"flowcomp.{m}" for m in ("beltrami", "cli", "curves", "field", "logmag", "machine",
                                  "robust", "simulate", "sphere")]


# one table of each shape the CLI writes: (header, template, rows), the rows as
# the subcommands hand them over, with floats, ints past 2^64, the empty fields
# of a Miss and verdict strings with spaces
TABLES = {
    "curve": (["s", "x", "y", "kappa"], "%.12g,%.12g,%.12g,%.12g",
              [(0.0, 0.1 + 0.2, -1e-300, 2.0**70), (0.05, -0.0, math.pi * 1e15, -1 / 3)]),
    "field_grid": (["x", "y", "vx", "vy"], "%.4f,%.4f,%.12g,%.12g",
                   [(-0.5, -1.0, 0.0, -0.0), (1.25, 7.75, 1e-320, -12345.678901234567)]),
    "trajectory": (["t", "s", "rho_sign", "ln_abs_rho", "band", "l_next"],
                   "%.12g,%.12g,%d,%.12g,%d,%d",
                   [(0.0, 0.0, 0, -math.inf, 0, 1), (395.018448937, 0.05, -1, -1e6 / 7, 2, -1)]),
    "events": (["band", "l", "class", "q", "r", "s", "t"], "%d,%d,%s,%s,%s,%s,%.12g",
               [(0, 24, "InsideBox", 1, 0, int("9" * 24), 9.14719179039e26),
                (1, 3, "Miss", "", "", "", 12.5),
                (0, 1, "InsideBox", 3, 2**64 + 1, 10**40, 1e-5)]),
    "verdicts": (["input", "verdict"], "%d,%s", [(0, "HALTED 1 0 0 0"), (1, "UNRESOLVED 24")]),
    "verify": (["input", "oracle", "flow", "status"], "%d,%s,%s,%s",
               [(0, "HALTED 2 10 0 3", "HALTED 2 10 0 3", "agree"),
                (1, "UNRESOLVED 8", "HALTED 1 0 0 0", "DISAGREE")]),
    "perturb": (["input", "seed", "baseline", "perturbed", "status"], "%d,%d,%s,%s,%s",
                [(2, 2004, "UNRESOLVED 60", "UNRESOLVED 60", "agree")]),
    "series": (["k", "component", "i", "j", "numerator", "denominator"], "%d,%d,%d,%d,%d,%d",
               [(0, 2, 3, 1, -(3**90), 2**120), (19, 0, 0, 0, 1, 1)]),
    "sphere": (["input", "delta", "continuous", "discrete", "iterates", "band_gaps", "status"],
               "%d,%.12g,%s,%s,%d,%d,%s",
               [(0, 5e-05, "HALTED 1 1 0 0", "HALTED 1 1 0 0", 2**70, 0, "agree")]),
    "empty": (["input", "verdict"], "%d,%s", []),
}


@pytest.mark.parametrize("table", TABLES)
def test_write_csv_writes_what_csv_writer_writes(tmp_path, table):
    import csv

    from flowcomp.cli import write_csv

    header, fmt, rows = TABLES[table]
    # the csv path took each float as an f-string of the template's spec, and
    # every other field as it was
    specs = fmt.split(",")
    formatted = [tuple(format(v, f[1:]) if "." in f else v for f, v in zip(specs, row))
                 for row in rows]
    with (tmp_path / "ref.csv").open("w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(formatted)
    write_csv(tmp_path / "new.csv", header, fmt, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_machine_file_with_a_byte_order_mark_verifies_like_the_plain_one(tmp_path, capsys):
    bom = tmp_path / "incrementer.tm"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(INC).read_bytes())
    assert load_machine(bom) == load_machine(INC)
    assert run("verify", "--machine", INC, "--out", str(tmp_path / "plain")) == 0
    assert run("verify", "--machine", str(bom), "--out", str(tmp_path / "bom")) == 0
    assert ((tmp_path / "bom" / "verify.csv").read_bytes()
            == (tmp_path / "plain" / "verify.csv").read_bytes())
    # the digest is of the file's bytes, the mark included
    digest = hashlib.sha256(bom.read_bytes()).hexdigest()
    assert f"machine.digest = {digest}\n" in (tmp_path / "bom" / "manifest.txt").read_text()
    capsys.readouterr()


def test_undecodable_machine_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_bytes(b"machine x\nstates 2\n\xff\xfe\n")
    assert run("verify", "--machine", str(bad), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err


def test_manifest_digest_is_of_the_bytes_parsed(tmp_path, capsys, monkeypatch):
    # the file is replaced after it is read: the manifest hashes what was compiled
    from flowcomp import machine

    tm = tmp_path / "inc.tm"
    tm.write_bytes(Path(INC).read_bytes())
    parsed = []
    parse = machine.parse_machine

    def parse_then_replace(text, name):
        parsed.append(text.encode())
        tm.write_text("machine other\nstates 1\nstart 1\nhalt 1\n")
        return parse(text, name)

    monkeypatch.setattr(machine, "parse_machine", parse_then_replace)
    assert run("verify", "--machine", str(tm), "--inputs", "1", "--lmax", "2",
               "--out", str(tmp_path / "v")) == 0
    assert parsed == [Path(INC).read_bytes()]
    digest = hashlib.sha256(parsed[0]).hexdigest()
    assert f"machine.digest = {digest}\n" in (tmp_path / "v" / "manifest.txt").read_text()
    capsys.readouterr()


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


def test_config_with_a_byte_order_mark_resolves_like_the_plain_one(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(b"lmax = 3\ninputs = 2\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    argv = ["verify", "--machine", INC, "--out", str(tmp_path / "v"), "--config"]
    parse = build_parser().parse_args
    assert resolve(parse(argv + [str(marked)])) == resolve(parse(argv + [str(plain)]))
    assert read_config(str(marked)) == {"lmax": "3", "inputs": "2"}


def test_config_that_is_not_utf8_is_a_usage_error_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfel\x00m\x00a\x00x\x00 \x00=\x00 \x003\x00\n\x00")
    assert run("verify", "--machine", INC, "--config", str(cfg), "--out", str(tmp_path / "v")) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "not UTF-8" in err


def test_perturb_agrees(tmp_path, capsys):
    out = tmp_path / "p"
    assert run("perturb", "--machine", INC, "--inputs", "1", "--lmax", "3",
               "--trials", "2", "--seed", "7", "--out", str(out)) == 0
    rows = (out / "perturb.csv").read_text().splitlines()
    assert len(rows) == 3 and all(r.endswith("agree") for r in rows[1:])
    capsys.readouterr()


# sha256 of `perturb` on the spinner, 2 inputs, 60 heights, 3 trials: exit code,
# stdout and every file, with the output directory's path replaced
PERTURB_SPINNER_60 = "966f95c2957c79d598c8bb52b495b37f63989e883f1af2177db2b4a879055bdd"


def test_perturb_to_height_60_is_pinned(tmp_path, capsys):
    rc = run("perturb", "--machine", SPIN, "--inputs", "2", "--lmax", "60",
             "--trials", "3", "--out", str(tmp_path))
    place = str(tmp_path).encode()
    h = hashlib.sha256(b"exit %d\n" % rc)
    h.update(capsys.readouterr().out.encode().replace(place, b"<out>"))
    for p in sorted(tmp_path.iterdir()):
        h.update(b"\n" + p.name.encode() + b"\n" + p.read_bytes().replace(place, b"<out>"))
    assert h.hexdigest() == PERTURB_SPINNER_60


def test_perturb_flies_only_boxes_with_a_bump(tmp_path, capsys, monkeypatch):
    # the schedule once stopped at band + height <= l_max, and this run of the
    # spinner, which never halts, flew boxes (3, 5), (4, 4) and (4, 5) with no bump
    from flowcomp.robust import PerturbationSpec

    flown, forcing = [], PerturbationSpec.forcing

    def recorded(self, fs, band, l):
        flown.append(((band, l), self.schedule.thresholds))
        return forcing(self, fs, band, l)

    monkeypatch.setattr(PerturbationSpec, "forcing", recorded)
    assert run("perturb", "--machine", SPIN, "--inputs", "5", "--lmax", "6",
               "--out", str(tmp_path)) == 0
    assert {box for box, _ in flown} >= {(3, 5), (4, 4), (4, 5)}
    assert all(box in thresholds for box, thresholds in flown)
    capsys.readouterr()


def test_only_perturbed_runs_build_forcing_kernels(tmp_path, capsys, monkeypatch):
    def refuse(self, band, l):
        raise AssertionError(f"forcing kernel of box ({band}, {l}) built")

    monkeypatch.setattr(FieldSpec, "forcing_kernel", refuse)
    for sub in ("compile", "simulate", "verify", "sphere", "extend3d"):
        assert run(sub, "--machine", INC, "--inputs", "2", "--lmax", "3",
                   "--out", str(tmp_path / sub)) == 0, sub
    with pytest.raises(AssertionError, match="forcing kernel"):
        run("perturb", "--machine", INC, "--inputs", "1", "--lmax", "3", "--trials", "1",
            "--out", str(tmp_path / "perturb"))
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


# sha256 of each parser's --help at 80 columns: the top-level parser, then
# every subcommand's
HELP = {
    None: "7ce0b42c5cc94a6efdc1d94ac2afe727638bff8af022308314c2c19cb00e5729",
    "compile": "1998d5493a6fa83a2c71ba70ddec2604a99b8a231acea808fd7d86f448bcff79",
    "simulate": "210b0b4799ed52599a27c9757ee44cd23ff9b8f1a412e0313ea23f4e8a290ca3",
    "verify": "b131dda90f6dd1718efaf027546d19d1b4a94579e04bcbdb7d5ecb514624f005",
    "perturb": "f07987f3cf843deff87d7bcba6e286db946676a4e834dd186a222fb221d03af9",
    "extend3d": "9bce0bc50bd28e0c5a783fede27b5567c3ce138d9f796c04f818959661a370c6",
    "sphere": "43826d2ecb24341696e210ed0519470ea5b038be5180f82410e4469210563b09",
    "estimate": "cdf1d50190b9ec8c37996ca748932c1beeb5eaf8b88c779ca8d9e56c49500232",
}


def test_help_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for sub, digest in HELP.items():
        with pytest.raises(SystemExit) as e:
            run(*([sub] if sub else []), "--help")
        assert e.value.code == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (sub, text)


def test_estimate_manifest(tmp_path, capsys):
    # estimate reads no machine, so its manifest names none
    from flowcomp import __version__

    assert run("estimate", "--sb", "3", "--out", str(tmp_path)) == 0
    assert (tmp_path / "manifest.txt").read_text() == (
        f"subcommand = estimate\nversion = {__version__}\n"
        "budget.C = 1.0\nbudget.sb = 3.0\nartifact = estimate.txt\n")
    capsys.readouterr()


def test_manifest_records_config_and_env(tmp_path, capsys, monkeypatch):
    # inputs from --config, lmax from the environment, the rest defaults; verify
    # reads no seed, so FLOWCOMP_SEED is neither checked nor recorded
    from flowcomp import __version__

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"machine = {INC}\ninputs = 2\n")
    monkeypatch.setenv("FLOWCOMP_LMAX", "3")
    monkeypatch.setenv("FLOWCOMP_SEED", "11")
    assert run("verify", "--config", str(cfg), "--out", str(tmp_path / "v")) == 0
    digest = hashlib.sha256(Path(INC).read_bytes()).hexdigest()
    assert (tmp_path / "v" / "manifest.txt").read_text() == (
        f"subcommand = verify\nversion = {__version__}\n"
        f"machine.name = incrementer\nmachine.digest = {digest}\n"
        "constant.eps = 0.01\nconstant.lambda = 0.000562583616298279\n"
        "constant.lambda_frac = 0.5\nconstant.rho0 = 0.03125\n"
        "budget.inputs = 2\nbudget.l_max = 3\nartifact = verify.csv\n")
    capsys.readouterr()


def test_setting_without_a_flag_is_range_checked(tmp_path, capsys, monkeypatch):
    # only where it is read: verify has no --trials and ignores FLOWCOMP_TRIALS
    monkeypatch.setenv("FLOWCOMP_TRIALS", "0")
    assert run("verify", "--machine", INC, "--inputs", "1", "--lmax", "2",
               "--out", str(tmp_path / "v")) == 0
    assert "budget.trials" not in (tmp_path / "v" / "manifest.txt").read_text()
    capsys.readouterr()
    assert run("perturb", "--machine", INC, "--out", str(tmp_path / "p")) == 2
    assert capsys.readouterr().err == "error: --trials must be at least 1\n"
    assert not (tmp_path / "p").exists()


def test_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # numpy refuses a negative seed; perturb, which reads it, rejects one
    # before any work, and the subcommands that read no seed ignore it
    assert run("perturb", "--machine", INC, "--seed", "-5", "--out", str(tmp_path / "p")) == 2
    assert capsys.readouterr().err == "error: --seed must be at least 0\n"
    assert not (tmp_path / "p").exists()
    monkeypatch.setenv("FLOWCOMP_SEED", "-5")
    for sub in ("verify", "estimate"):
        machine = () if sub == "estimate" else ("--machine", INC, "--lmax", "2")
        assert run(sub, *machine, "--out", str(tmp_path / sub)) == 0, sub
        with pytest.raises(SystemExit) as e:
            run(sub, *machine, "--seed", "-5", "--out", str(tmp_path / sub))
        assert e.value.code == 2  # and it has no --seed flag
    capsys.readouterr()


def test_out_that_is_no_directory_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("x")
    for out in (taken, taken / "below"):
        assert run("estimate", "--sb", "2", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert taken.read_text() == "x"


@pytest.mark.parametrize("var, value, sub", [
    ("FLOWCOMP_SB", "14", "verify"),  # C times s_b past 13, where no s_b is read
    ("FLOWCOMP_LMAX", "400", "estimate"),  # past the float ceiling
    ("FLOWCOMP_MACHINE", "/nope", "estimate"),
    ("FLOWCOMP_DEGREE", "x", "sphere"),
    ("FLOWCOMP_FAIL_ON_UNRESOLVED", "yes", "verify"),  # simulate's switch, bad value and all
])
def test_unread_settings_are_ignored(tmp_path, capsys, monkeypatch, var, value, sub):
    monkeypatch.setenv(var, value)
    machine = () if sub == "estimate" else ("--machine", SPIN, "--inputs", "1", "--lmax", "2")
    assert run(sub, *machine, "--out", str(tmp_path)) == 0
    capsys.readouterr()


def test_switch_resolves_like_every_setting(tmp_path, capsys, monkeypatch):
    # fail_on_unresolved: flag > FLOWCOMP_FAIL_ON_UNRESOLVED > config key > off,
    # read from the environment and the config as 0 or 1; spinner never halts
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fail_on_unresolved = 1\n")
    base = ("simulate", "--machine", SPIN, "--inputs", "1", "--lmax", "3", "--out", str(tmp_path))
    assert run(*base) == 0
    assert run(*base, "--config", str(cfg)) == 1
    monkeypatch.setenv("FLOWCOMP_FAIL_ON_UNRESOLVED", "0")
    assert run(*base, "--config", str(cfg)) == 0
    assert run(*base, "--config", str(cfg), "--fail-on-unresolved") == 1
    monkeypatch.setenv("FLOWCOMP_FAIL_ON_UNRESOLVED", "1")
    assert run(*base) == 1
    assert "fail_on_unresolved" not in (tmp_path / "manifest.txt").read_text()
    capsys.readouterr()


def test_bad_switch_value_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # anything but 0 or 1 from the config or the environment names its source
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fail_on_unresolved = yes\n")
    argv = ("simulate", "--machine", SPIN, "--config", str(cfg), "--out", str(tmp_path / "s"))
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: key `fail_on_unresolved`: expected switch, got 'yes'\n")
    monkeypatch.setenv("FLOWCOMP_FAIL_ON_UNRESOLVED", "true")
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        "error: FLOWCOMP_FAIL_ON_UNRESOLVED: expected switch, got 'true'\n")
    assert not (tmp_path / "s").exists()


def test_bad_env_value_names_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLOWCOMP_LMAX", "abc")
    assert run("verify", "--machine", INC, "--out", str(tmp_path / "v")) == 2
    assert capsys.readouterr().err == "error: FLOWCOMP_LMAX: expected int, got 'abc'\n"
    assert not (tmp_path / "v").exists()


def test_bad_config_value_names_the_file_and_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda_frac = 0.5\ninputs = x\n")
    assert run("verify", "--machine", INC, "--config", str(cfg), "--out", str(tmp_path / "v")) == 2
    assert capsys.readouterr().err == f"error: {cfg}: key `inputs`: expected int, got 'x'\n"
    assert not (tmp_path / "v").exists()


def test_config_key_must_name_a_setting(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"machine = {INC}\nlmx = 50\n")
    assert run("verify", "--config", str(cfg), "--out", str(tmp_path / "v")) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: key `lmx` names no setting\n"
    assert not (tmp_path / "v").exists()
    # one file serves several subcommands: a setting verify does not read is
    # allowed there, and neither checked nor recorded
    cfg.write_text(f"machine = {INC}\nlmax = 2\ntrials = 0\nsb = 99\n")
    assert run("verify", "--config", str(cfg), "--out", str(tmp_path / "v")) == 0
    manifest = (tmp_path / "v" / "manifest.txt").read_text()
    assert "budget.l_max = 2" in manifest and "trials" not in manifest and "sb" not in manifest
    capsys.readouterr()


@pytest.mark.parametrize("sub", ["compile", "simulate", "verify", "perturb", "extend3d",
                                 "sphere", "estimate"])
def test_readers_column_is_what_each_subcommand_reads(tmp_path, capsys, monkeypatch, sub):
    # main and the handler read the resolved settings through a mapping that
    # records each key; the manifest writer gets a plain copy, since it records
    # whatever it is given
    from flowcomp import cli

    read = set()

    class Recorded(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    resolve, write_manifest = cli.resolve, cli.write_manifest
    monkeypatch.setattr(cli, "resolve", lambda args: Recorded(resolve(args)))
    monkeypatch.setattr(cli, "write_manifest",
                        lambda outdir, name, settings, *rest:
                        write_manifest(outdir, name, dict(settings), *rest))
    machine = () if sub == "estimate" else ("--machine", INC, "--inputs", "1", "--lmax", "2")
    assert run(sub, *machine, "--out", str(tmp_path)) == 0
    assert read == {key for key, row in cli.SETTINGS.items() if sub in row[3]}
    capsys.readouterr()
