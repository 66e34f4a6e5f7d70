"""End-to-end runs of the command-line entry point, in process."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torus_lqg.cli as cli
from torus_lqg import __version__
from torus_lqg.chaos import sample_total_masses
from torus_lqg.checks import CheckResult
from torus_lqg.config import FieldResolution, MonteCarloConfig
from torus_lqg.gff import RngStream, evaluate_on_grid, sample_gff
from torus_lqg.green import GreenEvalConfig, green, green_grid
from torus_lqg.lqft import LQFTParams
from torus_lqg.lqg import (
    MatterCFT,
    _in_fundamental_domain,
    build_density_table,
    joint_law_sampler,
    params_from_matter,
    template_from_matter,
)
from torus_lqg.modular import wrap_centered
from torus_lqg.special import dedekind_eta, theta1, theta_aux


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as info:  # a usage error that argparse reports
        code = info.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert f"torus-lqg {__version__}" in capsys.readouterr().out


def test_special_eval_matches_library(capsys):
    tau = 0.3 + 1.2j
    for fn, z, want in (
        ("eta", (), dedekind_eta(tau)),
        ("theta1", ("--z", "0.17,0.23"), theta1(0.17 + 0.23j, tau)),
        ("theta3", (), theta_aux(3, tau)),
    ):
        code, out, _ = run(capsys, "special-fn", "eval", "--fn", fn, "--tau", "0.3,1.2", *z)
        assert code == 0
        doc = json.loads(out)
        assert abs(complex(*doc["value"]) - want) < 1e-15
        assert doc["meta"]["config"]["fn"] == fn
    assert doc["meta"]["version"] == __version__
    assert "duration_s" in doc["meta"]


def test_green_eval_to_file(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    appendix = ("--mode", "appendix", "--tolerance", "1e-10")
    for tau, x, flags, want in (
        ("0,1", "0.3,0.4", (), green(1j, (0.3, 0.4))),
        ("0.3,1.2", "0.3,0.4", (), green(0.3 + 1.2j, (0.3, 0.4))),
        ("0.3,1.2", "0.3,0.4", appendix,
         green(0.3 + 1.2j, (0.3, 0.4), GreenEvalConfig(mode="appendix", tolerance=1e-10))),
        # within 1e-2 of the lattice, on the one theta1 series as every point
        ("0.3,1.2", "0.004,0.002", (), green(0.3 + 1.2j, (0.004, 0.002))),
    ):
        code, _, _ = run(
            capsys, "green", "eval", "--tau", tau, "--x", x, *flags, "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert abs(doc["green"] - want) < 1e-15


def test_modular_reduce(capsys):
    code, out, _ = run(capsys, "modular", "reduce", "--tau", "2.3,0.8")
    assert code == 0
    doc = json.loads(out)
    red = complex(*doc["reduced"])
    assert abs(red - complex(-30.0 / 73.0, 80.0 / 73.0)) < 1e-12
    w = doc["witness"]
    assert w["a"] * w["d"] - w["b"] * w["c"] == 1


def test_usage_errors_exit_1(tmp_path, capsys):
    bad_int = tmp_path / "bad_int.cfg"
    bad_int.write_text("replicas = abc\n")
    bad_tau = tmp_path / "bad_tau.cfg"
    bad_tau.write_text("check-kpz.tau = 1,2,3\n")
    bad_kind = tmp_path / "bad_kind.cfg"
    bad_kind.write_text("kind = bogus\n")
    bad_mode = tmp_path / "bad_mode.cfg"
    bad_mode.write_text("mode = bogus\n")
    data = tmp_path / "trace.csv"
    data.write_text("step,value\n0,1.0\n1,0.5\n")
    for argv in (
        ["green", "eval", "--tau", "0,1"],              # missing required --x
        ["green", "eval", "--tau", "0,1", "--x", "0.3,0.4", "--bogus"],
        ["nonsense"],
        # a config value the flag would reject is a usage error too
        ["--config", str(bad_int), "gmc", "sample", "--tau", "0,1",
         "--out", str(tmp_path / "m.csv")],
        ["--config", str(bad_tau), "lqft", "check-kpz"],
        ["lqft", "check-kpz", "--mu-list", ""],
        # argparse checks choices on flag text only, so config values need their own check
        ["--config", str(bad_kind), "lqg", "plot", str(data), "--out", str(tmp_path / "t.svg")],
        ["--config", str(bad_mode), "green", "eval", "--tau", "0,1", "--x", "0.3,0.4"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert "_float_list" not in err
    assert "invalid choice: 'bogus'" in err
    assert not (tmp_path / "t.svg").exists()


def test_validation_error_exits_1(tmp_path, capsys):
    out = tmp_path / "masses.csv"
    for argv, needle in (
        (["special-fn", "eval", "--fn", "theta1", "--tau", "0,1"], "--z"),
        (["gmc", "sample", "--tau", "0,1", "--gamma", "0", "--replicas", "4",
          "--cutoff", "4", "--out", str(out)], "gamma"),
        *((["green", "eval", "--tau", "0,1", "--x", "0.3,0.4", "--mode", "appendix",
            "--tolerance", tol], "tolerance") for tol in ("0", "-1", "nan", "inf")),
        # density-table arguments outside the domain are refused up front
        *((["lqg", cmd, "--matter", "pure", *flag, "--replicas", "4", "--cutoff", "4",
            "--out", str(out)], needle)
          for cmd in ("modulus-density", "sample-joint")
          for flag, needle in ((["--t-max", "nan"], "t_max"), (["--t-max", "inf"], "t_max"),
                               (["--re-cells", "-3"], "cell counts"),
                               (["--im-cells", "-2"], "cell counts"),
                               (["--re-cells", "0"], "cell counts"),
                               (["--tail-tol", "0"], "tail_tol"))),
        # one antithetic pair gives no standard error
        (["lqg", "modulus-density", "--matter", "pure", "--cutoff", "8", "--replicas", "2",
          "--no-cache", "--out", str(out)], "two pairs"),
        (["lqft", "partition", "--tau", "0,1", "--gamma", "1", "--insertions", "0.2,0.3,0.8",
          "--replicas", "2", "--cutoff", "4"], "two pairs"),
        (["lqft", "check-kpz", "--replicas", "2", "--cutoff", "4"], "two pairs"),
        # a table of no cells is refused, not written as a lone column line
        *((["green", "table", "--tau", "0,1", "--grid", g, "--out", str(out)], "--grid")
          for g in ("0", "-3")),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")
        assert needle in err
        assert "Traceback" not in err
    assert not out.exists()


_TINY = ("--replicas", "4", "--cutoff", "4")


BAD_INPUTS = (
    # a modulus with a non-finite part, or below the real axis, from require_tau
    (("gmc", "sample", "--tau", "nan,1", *_TINY), "got (nan+1j)"),
    (("gmc", "sample", "--tau", "0,inf", *_TINY), "got infj"),
    (("gff", "sample", "--tau", "inf,1", "--cutoff", "4"), "got (inf+1j)"),
    (("special-fn", "eval", "--fn", "eta", "--tau", "nan,1"), "got (nan+1j)"),
    (("modular", "reduce", "--tau", "0,inf"), "got infj"),
    (("modular", "reduce", "--tau", "nan,1"), "got (nan+1j)"),
    (("modular", "reduce", "--tau", "0,-1"), "got -1j"),
    (("green", "eval", "--tau", "nan,1", "--x", "0.3,0.4"), "got (nan+1j)"),
    (("lqft", "partition", "--tau", "nan,1", "--gamma", "1", "--insertions", "0.2,0.3,0.8",
      *_TINY), "got (nan+1j)"),
    # a non-finite insertion or torus point, from InsertionSet and green
    *((("lqft", "partition", "--tau", "0,1", "--gamma", "1", "--insertions", triple, *_TINY),
       f"insertion ({triple.replace(',', ', ')}) is not finite")
      for triple in ("nan,0.3,0.8", "inf,0.3,0.8", "0.2,0.3,nan")),
    (("green", "eval", "--tau", "0,1", "--x", "inf,0.3"),
     "torus point must be finite, got x = (inf, 0.3)"),
    # a malformed number or matter, from the flag's parser, named with its form
    (("lqg", "modulus-density", "--matter", "ffpower:1.2"),
     "argument --matter: expected ffpower:<c_m>, c_m one number at most 1, got 'ffpower:1.2'"),
    (("lqg", "modulus-density", "--matter", "ffpower:abc"),
     "argument --matter: expected ffpower:<c_m>"),
    (("lqft", "partition", "--tau", "0,1", "--gamma", "1", "--insertions", "0,0,abc"),
     "argument --insertions: expected X1,X2,ALPHA triples joined by ';', got '0,0,abc'"),
)


@pytest.mark.parametrize("argv, needle", BAD_INPUTS, ids=[" ".join(a) for a, _ in BAD_INPUTS])
def test_bad_modulus_or_number_exits_1(tmp_path, capsys, argv, needle):
    out = tmp_path / "out.txt"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") or "\nerror: " in err
    assert needle in err
    assert "Traceback" not in err and "invalid _" not in err
    assert not out.exists()


def test_unwritable_out_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # an --out that cannot be opened fails before the handler computes
    # anything, and no file is left behind
    def no_compute(*args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, "green_grid", no_compute)
    (tmp_path / "file").write_text("")
    for out, needle in ((tmp_path / "missing" / "g.csv", "No such file or directory"),
                        (tmp_path / "file" / "g.csv", "Not a directory"),
                        (tmp_path, "Is a directory")):
        code, _, err = run(capsys, "green", "table", "--tau", "0,1", "--grid", "4",
                           "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err and str(out) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_cache_dir_under_a_file_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("TORUS_LQG_CACHE_DIR", str(tmp_path / "file" / "cache"))
    out = tmp_path / "d.csv"
    code, _, err = run(capsys, "lqg", "modulus-density", "--matter", "pure", "--t-max", "12",
                       *_TINY, "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Not a directory" in err
    assert not out.exists()


_SMALL_TABLE = ("--cutoff", "4", "--replicas", "8", "--re-cells", "3", "--im-cells", "4",
                "--no-cache")


@pytest.mark.parametrize("matter, t_max, code, needle", (
    ("ising", "30", 0, None),
    ("ffpower:0.7", "30", 0, None),
    ("ising", None, 2, "increase t_max"),
    ("ffpower:0.7", None, 2, "increase t_max"),
    ("ffpower:1", "30", 2, "dressing root equals Q"),
))
def test_matter_through_the_cli(tmp_path, capsys, matter, t_max, code, needle):
    out = tmp_path / "d.csv"
    flags = ("--t-max", t_max) if t_max else ()
    got, _, err = run(capsys, "lqg", "modulus-density", "--matter", matter, *flags,
                      *_SMALL_TABLE, "--out", str(out))
    assert got == code, err
    if needle:
        assert err.startswith("numeric failure:") and needle in err
        assert not out.exists()
        return
    # every one of the 3 x 4 cell centers lies in the fundamental domain
    rows = np.array([[float(v) for v in ln.split(",")] for ln in csv_parts(out)[1][1:]])
    assert rows.shape == (12, 4)
    assert np.all(_in_fundamental_domain(rows[:, 0], rows[:, 1]))
    assert np.all(rows[:, 2] > 0)


def test_critical_eps_outside_unit_interval_exits_1(tmp_path, capsys):
    out = tmp_path / "masses.csv"
    for eps in ("1.5", "1.0"):
        code, _, err = run(
            capsys, "gmc", "sample", "--tau", "0,1", "--critical", "--eps", eps,
            "--replicas", "4", "--cutoff", "4", "--out", str(out),
        )
        assert code == 1
        assert "eps in (0, 1)" in err
        assert not out.exists()


def test_numeric_failure_exits_2(tmp_path, capsys):
    out = tmp_path / "table.csv"
    for argv in (
        ["green", "eval", "--tau", "0,1", "--x", "0.3,0.4",
         "--mode", "eigen", "--eigen-cutoff", "50", "--tolerance", "1e-9"],
        # alpha = 3 >= Q = 2.5: every Pi vanishes, so the KPZ ratio is undefined
        ["lqft", "check-kpz", "--insertions", "0.1,0.1,3.0", "--replicas", "4",
         "--cutoff", "4"],
        # alpha = 3 >= Q = 2.5 makes the covariance ratio 0/0
        ["lqft", "check-modular", "--alpha", "3", "--replicas", "4", "--cutoff", "4"],
        # theta1 itself, near e^(pi*40000), overflows
        ["special-fn", "eval", "--fn", "theta1", "--tau", "0,1", "--z", "0,200"],
        # no insertions (or s = sum(alpha) <= 0) break the torus Seiberg bound
        *(["lqg", cmd, "--matter", "pure", "--n", n, "--replicas", "4", "--cutoff", "4",
           "--out", str(out)]
          for cmd in ("modulus-density", "sample-joint") for n in ("0", "-1")),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "numeric failure" in err
    assert err == "numeric failure: sum of insertion weights must be positive, got 0\n"
    assert not out.exists()
    # a NaN |Im z| has no term count: it fails at once, not after the term cap
    code, _, err = run(capsys, "special-fn", "eval", "--fn", "theta1", "--tau", "0,1", "--z", "0,nan")
    assert code == 2
    assert err == "numeric failure: theta series diverges at a non-finite |Im z|\n"
    # 2e6 terms: refused from the closed-form count, before any term is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(
            capsys, "special-fn", "eval", "--fn", "theta1", "--tau", "0,1", "--z", "0,1e6"
        )
    assert code == 2
    assert err == (
        "numeric failure: theta series needs more than 200000 terms for tolerance 1e-12\n"
    )


def test_unrepresentable_moment_exits_2(tmp_path, capsys, monkeypatch):
    # from Im tau ~ 500 up, e^{gamma H} overflows at the insertion and
    # E[I^-1] reads 0: exit 2 naming tau, not a zero value or a dropped cell
    monkeypatch.setenv("TORUS_LQG_CACHE_DIR", str(tmp_path / "cache"))
    gamma = "1.632993161855452"
    with np.errstate(all="ignore"):
        code, out, err = run(
            capsys, "lqft", "partition", "--tau", "0,574", "--gamma", gamma,
            "--insertions", f"0,0,{gamma}", "--cutoff", "4", "--replicas", "8",
        )
        assert (code, out) == (2, "")
        assert err.startswith("numeric failure: ") and "tau = 0,574" in err
        table = tmp_path / "deep.csv"
        code, _, err = run(
            capsys, "lqg", "modulus-density", "--matter", "pure", "--t-max", "3000",
            "--cutoff", "4", "--replicas", "8", "--out", str(table),
        )
    assert code == 2 and err.startswith("numeric failure: ") and err.count("\n") == 1
    assert not table.exists()
    records = [json.loads(f.read_text()) for f in (tmp_path / "cache").glob("*.json")]
    assert records and all(0 < r["moment"] < math.inf for r in records)


def test_partition_with_a_huge_prefactor_exits_0(capsys):
    # Gamma(s/gamma) = Gamma(180) alone overflows a float; the estimate,
    # near 1e266, does not, and the prefactor stays in log space
    code, out, err = run(
        capsys, "lqft", "partition", "--tau", "0,1", "--gamma", "0.1",
        "--insertions", "0.2,0.3,9;0.7,0.6,9",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert 1e250 < doc["value"] < math.inf
    assert 0 < doc["std_error"] < doc["value"]


def test_green_in_the_cusp_exits_0(capsys):
    # q^((n+1/2)^2) underflows and sin((2n+1)*pi*z) overflows, but their
    # product, kept in log space, is finite
    argv = ("green", "eval", "--tau", "0,100", "--x", "0.3,0.9")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    code, ref, err = run(capsys, *argv, "--mode", "appendix")
    assert code == 0, err
    assert abs(json.loads(ref)["green"] - 24.085543677521756) < 1e-12
    assert abs(json.loads(out)["green"] - 24.085543677521756) < 1e-9


def test_appendix_green_deep_in_the_cusp_is_finite(capsys):
    argv = ("green", "eval", "--tau", "0,900", "--x", "0.3,0.5")
    code, out, err = run(capsys, *argv, "--mode", "appendix", "--tolerance", "1e-10")
    assert code == 0, err
    value = json.loads(out)["green"]
    assert math.isfinite(value)
    code, ref, err = run(capsys, *argv)
    assert code == 0, err
    assert abs(value - json.loads(ref)["green"]) < 1e-8


@pytest.mark.parametrize("cmd, pairs", (
    (("green", "table", "--grid", "2"), (("--tau", "-0.4,0.9"),)),
    (("green", "eval"), (("--tau", "-0.4,0.9"), ("--x", "-0.3,0.4"))),
    (("special-fn", "eval", "--fn", "theta1"), (("--tau", "-0.4,0.9"), ("--z", "-0.1,-0.2"))),
))
def test_pair_with_a_negative_first_part_after_a_space(tmp_path, capsys, cmd, pairs):
    # "--tau -0.4,0.9" reads as "--tau=-0.4,0.9", not as an unknown option
    texts = []
    for k, opts in enumerate(([a for pair in pairs for a in pair], [f"{f}={v}" for f, v in pairs])):
        out = tmp_path / f"{k}.out"
        code, _, err = run(capsys, *cmd, *opts, "--out", str(out))
        assert code == 0, err
        texts.append([ln for ln in out.read_text().splitlines()
                      if "duration_s" not in ln and "command" not in ln])
    assert texts[0] == texts[1]


def test_eta_in_the_cusp_exits_0(capsys):
    code, out, _ = run(capsys, "special-fn", "eval", "--fn", "eta", "--tau", "0,300")
    assert code == 0
    assert complex(*json.loads(out)["value"]) == dedekind_eta(300j)


@pytest.mark.parametrize("argv", (
    # the deep cusp on the grid path, where the columns' term counts differ
    ["green", "table", "--tau", "0,12", "--grid", "64"],
    ["green", "table", "--tau", "-0.4,0.9", "--grid", "1"],
    ["lqft", "check-kpz", "--replicas", "32", "--cutoff", "12"],
    ["lqft", "check-modular", "--replicas", "400", "--seed", "23"],
), ids=" ".join)
def test_command_exits_0(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path / "t.csv")] if argv[0] == "green" else []
    code, _, err = run(capsys, *argv, *out)
    assert code == 0, err


@pytest.mark.parametrize("cells", (["--re-cells", "1"], ["--im-cells", "1", "--tail-tol", "1"]))
def test_sample_joint_with_one_cell_along_an_axis(tmp_path, capsys, cells):
    # a table axis with a single center is constant: no division by a zero spacing
    out = tmp_path / "one.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(
            capsys, "lqg", "sample-joint", "--matter", "pure", "--t-max", "12", "--cutoff", "8",
            "--replicas", "32", "--samples", "20", "--no-cache", "--out", str(out), *cells,
        )
    assert code == 0, err
    assert len([ln for ln in out.read_text().splitlines() if not ln.startswith("#")]) == 21


def test_check_quick_suite(capsys):
    # --quick, then the full battery (gmc-mean-mass, partition-modular, the variance check at cutoff 15000)
    for flags in (["--quick"], []):
        code, out, _ = run(capsys, "check", "all", *flags)
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out


def test_check_failure_exits_3(capsys, monkeypatch):
    bad = [CheckResult(name="stub", passed=False, detail="forced", seconds=0.0)]
    monkeypatch.setattr(cli, "run_checks", lambda quick: bad)
    code, out, _ = run(capsys, "check", "all", "--quick")
    assert code == 3
    assert "[FAIL] stub" in out


@pytest.mark.parametrize(
    "cmd, target, figures",
    [
        ("check-kpz", "kpz_scaling", ([0.0, 1e-9, 0.0], 1e-9, False)),
        ("check-modular", "modular_partition_ratio", (1.2, 0.05, 4.0, False)),
    ],
)
def test_lqft_check_failure_exits_3(capsys, monkeypatch, cmd, target, figures):
    monkeypatch.setattr(cli, target, lambda *args: figures)
    code, out, _ = run(capsys, "lqft", cmd)
    assert code == 3
    assert json.loads(out)["passed"] is False


def strip_duration(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("# duration_s"))


def test_gmc_sample_csv_deterministic(tmp_path, capsys):
    out = tmp_path / "masses.csv"
    args = [
        "gmc", "sample", "--tau", "0,1", "--gamma", "1.0",
        "--replicas", "8", "--seed", "4", "--cutoff", "8", "--out", str(out),
    ]
    assert run(capsys, *args)[0] == 0
    ta = out.read_text()
    assert run(capsys, *args)[0] == 0
    tb = out.read_text()
    assert ta.startswith(f"# torus-lqg {__version__}")
    assert "replica,total_mass" in ta
    assert len([ln for ln in ta.splitlines() if not ln.startswith("#")]) == 9
    assert strip_duration(ta) == strip_duration(tb)


def test_gmc_sample_csv_names_its_pairs(tmp_path, capsys):
    # an odd replica count ends on a lone replica and reruns bit for bit
    out = tmp_path / "masses.csv"
    args = ["gmc", "sample", "--tau", "0,1", "--replicas", "7", "--cutoff", "8", "--out", str(out)]
    assert run(capsys, *args)[0] == 0
    ta = out.read_text()
    assert run(capsys, *args)[0] == 0
    assert strip_duration(ta) == strip_duration(out.read_text())
    assert "# pairs: rows 2j and 2j+1 are an antithetic pair" in ta
    assert len([ln for ln in ta.splitlines() if not ln.startswith("#")]) == 8


def test_gmc_sample_of_one_pair_is_valid(tmp_path, capsys):
    # gmc sample reports masses, not a standard error, so one pair is enough
    out = tmp_path / "two.csv"
    args = ["gmc", "sample", "--tau", "0,1", "--replicas", "2", "--cutoff", "8", "--out", str(out)]
    assert run(capsys, *args)[0] == 0
    assert len([ln for ln in out.read_text().splitlines() if not ln.startswith("#")]) == 3


# seeded commands whose outputs repeat bit for bit in a fresh interpreter
RERUNS = (
    ["gff", "sample", "--tau", "0,1", "--cutoff", "4", "--seed", "3", "--stream", "2",
     "--out", "gff.csv"],
    # the tilted setup of one modulus
    ["lqft", "partition", "--tau", "0.3,1.2", "--gamma", "1.0",
     "--insertions", "0.2,0.3,0.8;0.7,0.6,0.5", "--replicas", "64", "--cutoff", "8",
     "--out", "part.json"],
    ["lqg", "sample-joint", "--matter", "pure", "--t-max", "12", "--cutoff", "8",
     "--replicas", "32", "--samples", "50", "--no-cache", "--out", "joint.csv"],
    # a tilted moment table; 33 replicas end on a lone replica
    ["lqg", "modulus-density", "--matter", "pure", "--t-max", "12", "--cutoff", "8",
     "--replicas", "33", "--no-cache", "--out", "density.csv"],
    ["gmc", "sample", "--tau", "0,1", "--replicas", "7", "--cutoff", "8", "--seed", "3",
     "--out", "pairs.csv"],
    ["gmc", "sample", "--tau", "0,1", "--critical", "--eps", "0.08", "--cutoff", "8",
     "--replicas", "7", "--seed", "3", "--out", "crit.csv"],
    # the synthesis product along m at the inherited BLAS thread count
    ["gmc", "sample", "--tau", "0,1", "--replicas", "7", "--cutoff", "32", "--seed", "3",
     "--out", "c32.csv"],
    # the Green table, written in row blocks
    ["green", "table", "--tau", "0.3,1.2", "--grid", "256", "--out", "green.csv"],
)


def test_reruns_in_fresh_interpreters_are_bit_identical(tmp_path):
    # two fresh interpreters, each in its own directory at its own hash seed,
    # run every command; their outputs agree but for the duration lines
    src = str(Path(cli.__file__).parents[1])
    code = ("import json, sys, torus_lqg.cli as cli; "
            "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))")
    sides = []
    for seed in ("1", "2"):
        cwd = tmp_path / seed
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        sides.append((cwd, subprocess.Popen([sys.executable, "-c", code, json.dumps(RERUNS)],
                                            cwd=cwd, env=env, stderr=subprocess.PIPE, text=True)))
    for _, proc in sides:
        err = proc.communicate(timeout=120)[1]
        assert proc.returncode == 0, err
    for argv in RERUNS:
        a, b = ([ln for ln in (cwd / argv[-1]).read_text().splitlines() if "duration_s" not in ln]
                for cwd, _ in sides)
        assert a == b, argv


def test_ci_workflow_runs_no_inline_python():
    # every check lives in tier 1; CI adds only the installed-CLI and cache steps
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    assert "python -c" not in workflow.read_text()
    # the --help loop names every command of the CLI, `check` standing for its group
    loop = re.search(r"for cmd in (.*?); do", workflow.read_text(), re.S).group(1)
    helped = re.findall(r'"([^"]+)"', loop)
    assert helped == [g if g == "check" else f"{g} {c}" for g, c in cli._COMMANDS]


def oracle_fmt_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    return str(v)


def oracle_body(columns, rows) -> list[str]:
    """The row-wise CSV body the writer once built: the column line, one line per row."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(oracle_fmt_cell(v) for v in row))
    return lines


def csv_parts(path) -> tuple[list[str], list[str]]:
    """(header lines, body lines) of a CLI CSV, which ends in one newline."""
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.split("\n")[:-1]
    header = [ln for ln in lines if ln.startswith("#")]
    return header, lines[len(header):]


@pytest.mark.parametrize("grid", (64, 65))
def test_green_table_matches_row_oracle(tmp_path, capsys, grid):
    # 64^2 rows fill one row block exactly, 65^2 spill into a second
    out = tmp_path / "g.csv"
    code, _, err = run(capsys, "green", "table", "--tau", "0.3,1.2", "--grid", str(grid),
                       "--out", str(out))
    assert code == 0, err
    u = (np.arange(grid) + 0.5) / grid
    x1, x2 = np.meshgrid(u, u, indexing="ij")
    vals = green_grid(0.3 + 1.2j, wrap_centered(u), wrap_centered(u), 0.0)
    rows = [(float(x1[i, j]), float(x2[i, j]), float(vals[i, j]))
            for i in range(grid) for j in range(grid)]
    assert (grid * grid > cli._BLOCK_ROWS) == (grid == 65)
    assert csv_parts(out)[1] == oracle_body(["x1", "x2", "green"], rows)


def test_empty_csv_writes_its_column_line():
    # no command writes an empty table (green table --grid 0 is a usage error),
    # but the writer keeps its column line for zero rows
    record = {"version": __version__, "command": "-", "config": {}, "seed": "-",
              "duration_s": 0.0}
    empty = np.zeros(0)
    text = "".join(cli._render("csv", (["x1", "x2", "green"], [empty, empty, empty]), record))
    assert text.endswith("\n# duration_s: 0.000\nx1,x2,green\n")


def test_sampled_csvs_match_row_oracle(tmp_path, capsys):
    # gff sample at G = 84 has 7056 rows, two row blocks
    assert 84 * 84 > cli._BLOCK_ROWS
    out = tmp_path / "f.csv"
    argv = ["gff", "sample", "--tau", "0.2,1.1", "--cutoff", "20", "--grid", "84", "--seed", "3",
            "--stream", "2", "--out", str(out)]
    assert run(capsys, *argv)[0] == 0
    vals = evaluate_on_grid(sample_gff(0.2 + 1.1j, 20, RngStream(3, 2)), 84)
    g = vals.shape[0]
    rows = [(i, j, i / g, j / g, float(vals[i, j])) for i in range(g) for j in range(g)]
    assert csv_parts(out)[1] == oracle_body(["i", "j", "x1", "x2", "value"], rows)

    argv = ["gmc", "sample", "--tau", "0,1", "--replicas", "7", "--cutoff", "8", "--seed", "3",
            "--out", str(out)]
    assert run(capsys, *argv)[0] == 0
    masses = sample_total_masses(1j, 1.0, LQFTParams(1.0).q, MonteCarloConfig(7, 3),
                                 FieldResolution(8, 4))
    header, body = csv_parts(out)
    assert header[-1] == f"# {cli._PAIRS}"
    assert body == oracle_body(["replica", "total_mass"],
                               [(r, float(m)) for r, m in enumerate(masses)])


def test_lqg_csvs_match_row_oracle(tmp_path, capsys):
    flags = ["--matter", "pure", "--t-max", "12", "--cutoff", "8", "--replicas", "16",
             "--seed", "2", "--no-cache"]
    matter = MatterCFT.pure_gravity()
    params = params_from_matter(matter, mu=1.0)
    ins = template_from_matter(matter, params, [(0.0, 0.0)])
    table = build_density_table(matter, params, ins, MonteCarloConfig(16, 2),
                                FieldResolution(8, 4), re_cells=12, im_cells=12, t_max=12.0,
                                tail_tol=1e-3)
    out = tmp_path / "d.csv"
    assert run(capsys, "lqg", "modulus-density", *flags, "--out", str(out))[0] == 0
    re_c, im_c = table.re_centers, table.im_centers
    rows = [(float(re_c[a]), float(im_c[b]), float(table.density[a, b]),
             float(table.std_error[a, b]))
            for a in range(len(re_c)) for b in range(len(im_c)) if table.density[a, b] > 0]
    assert csv_parts(out)[1] == oracle_body(["re_tau", "im_tau", "density", "std_error"], rows)

    assert run(capsys, "lqg", "sample-joint", *flags, "--samples", "50", "--out", str(out))[0] == 0
    sampler = joint_law_sampler(matter, params, ins, table, 50, RngStream(2, 1))
    rows = [(k, smp.tau.real, smp.tau.imag, smp.volume) for k, smp in enumerate(sampler)]
    assert csv_parts(out)[1] == oracle_body(["sample", "re_tau", "im_tau", "volume"], rows)


RECORD = {"version": __version__, "command": "c", "config": {}, "seed": 0, "duration_s": 0.0}


@st.composite
def csv_columns(draw):
    """A float64 column drawn from a small pool of bit patterns, so values repeat, and an
    int64 column of the same length."""
    special = st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-5])
    bits = st.one_of(st.integers(-2**63, 2**63 - 1),
                     special.map(lambda v: int(np.float64(v).view(np.int64))))
    pool = np.array(draw(st.lists(bits, min_size=1, max_size=6)), dtype=np.int64)
    n = draw(st.integers(0, 40))
    pick = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    ints = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
    return pool[pick].view(np.float64), np.array(ints, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(cols=csv_columns(), block=st.integers(1, 7))
@example(cols=(np.array([], dtype=float), np.array([], dtype=np.int64)), block=4096)
def test_csv_cells_are_repr_and_str(cols, block):
    floats, ints = cols
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        text = "".join(cli._render("csv", (["x", "n"], [floats, ints], "note"), RECORD))
    lines = text.split("\n")
    assert lines[5:7] == ["# note", "x,n"] and lines[-1] == ""
    body = lines[7:-1]
    assert len(body) == len(floats)
    for line, v, k in zip(body, floats, ints):
        assert line == f"{float(v)!r},{int(k)}"


def test_csv_cells_keep_their_text_across_block_edges():
    # more than two blocks of 4096 rows; -0.0 and 0.0, and NaNs of several
    # payloads and signs, sit on both sides of each block edge
    specials = np.array([-0.0, 0.0, math.inf, -math.inf, 5e-324, 0.1, 1e16])
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0x7FF8DEADBEEF0001], dtype=np.uint64).view(np.float64)
    pool = np.concatenate([specials, nans, np.linspace(-1.0, 1.0, 40)])
    n = 2 * cli._BLOCK_ROWS + 77
    pick = np.random.default_rng(5).integers(0, len(pool), n)
    for edge in (cli._BLOCK_ROWS, 2 * cli._BLOCK_ROWS):
        pick[edge - 2 : edge + 2] = [0, 1, 7, 8]
    floats = pool[pick]
    ints = np.random.default_rng(6).integers(-3, 4, n) * 2**61 - 1
    text = "".join(cli._render("csv", (["x", "n"], [floats, ints]), RECORD))
    body = text.split("\n")[6:-1]
    assert body == [f"{float(v)!r},{int(k)}" for v, k in zip(floats, ints)]
    assert body[cli._BLOCK_ROWS - 2].startswith("-0.0,")
    assert body[cli._BLOCK_ROWS - 1].startswith("0.0,")


# ---------------------------------------------------------------- lazy parser


def eager_parser():
    """build_parser with every group and every command filled up front."""
    parser, _ = cli.build_parser()

    def fill(p):
        for action in p._actions:
            if isinstance(action, cli._LazySubparsers):
                for name, sub in action.choices.items():
                    action.fill(name)
                    fill(sub)

    fill(parser)
    return parser


def parser_levels():
    """argv of the top level, every group and every (group, cmd); `check`
    is both the group and its one command."""
    levels = [[]]
    for group, cmd in cli._COMMANDS:
        if [group] not in levels:
            levels.append([group])
        if group != "check":
            levels.append([group, cmd])
    return levels


def exit_of(call, argv, capsys):
    with pytest.raises(SystemExit) as info:
        call(argv)
    out = capsys.readouterr()
    return info.value.code, out.out, out.err


def level_parser(parser, argv):
    for name in argv:
        (action,) = [a for a in parser._actions if isinstance(a, cli._LazySubparsers)]
        parser = action.choices[name]
    return parser


@pytest.mark.parametrize("argv", parser_levels(), ids=lambda a: " ".join(a) or "top")
def test_lazy_help_and_usage_errors_equal_an_eager_tree(argv, capsys):
    eager = eager_parser()
    p = level_parser(eager, argv)
    flags = [a for a in p._actions if a.option_strings and a.dest != "help"]
    subs = [a for a in p._actions if isinstance(a, cli._LazySubparsers)]
    errors = [argv + ["bogus"]] if subs else []
    if flags and argv:
        # a value error raised by this level's own parser, not the top one
        opt = flags[0].option_strings[-1]
        errors.append(argv + ([f"{opt}=x"] if flags[0].nargs == 0 else [opt]))
    for case in [argv + ["--help"], *errors]:
        want = exit_of(eager.parse_args, case, capsys)
        got = exit_of(cli.main, case, capsys)
        assert got == want
        assert got[0] == (0 if case[-1] == "--help" else 1)
        usage = f"usage: torus-lqg {' '.join(argv)}".rstrip()
        assert (got[1] if got[0] == 0 else got[2]).startswith(usage)


@pytest.mark.parametrize("key", list(cli._COMMANDS), ids=" ".join)
def test_dispatch_fills_only_the_chosen_command(key, monkeypatch, capsys):
    ran = []

    def spy(key, flags):
        return lambda p: (ran.append(key), flags(p))

    monkeypatch.setattr(cli, "_COMMANDS", {k: (h, kind, spy(k, f))
                                          for k, (h, kind, f) in cli._COMMANDS.items()})
    argv = [key[0]] if key[0] == "check" else list(key)
    assert exit_of(cli.main, argv + ["--help"], capsys)[0] == 0
    assert ran == [key]
    parser, registry = cli.build_parser()
    assert registry == {} and ran == [key]


def test_a_run_fills_one_command_once(tmp_path, monkeypatch, capsys):
    # --config parses argv a second time; the chosen command is filled once
    ran = []
    handler, kind, flags = cli._COMMANDS[("green", "eval")]
    monkeypatch.setitem(cli._COMMANDS, ("green", "eval"),
                        (handler, kind, lambda p: (ran.append(1), flags(p))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = appendix\n")
    code, out, _ = run(capsys, "--config", str(cfg), "green", "eval",
                       "--tau", "0,1", "--x", "0.3,0.4")
    assert code == 0 and json.loads(out)["meta"]["config"]["mode"] == "appendix"
    assert ran == [1]


def test_config_file_defaults_yield_to_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\nreplicas = 8\ncutoff = 8\n")
    base = ["--config", str(cfg), "gmc", "sample", "--tau", "0,1"]
    out = tmp_path / "c.csv"
    assert run(capsys, *base, "--out", str(out))[0] == 0
    assert "# seed: 9" in out.read_text()
    # --se is a unique prefix of --seed, which argparse accepts
    for flag in (["--seed", "3"], ["--seed=3"], ["--se", "3"]):
        assert run(capsys, *base, *flag, "--out", str(out))[0] == 0
        assert "# seed: 3" in out.read_text()
    # a scoped key turns a store-true flag on; a key scoped to another
    # subcommand leaves this one untouched
    cfg.write_text("replicas = 4\ncutoff = 4\ngmc.sample.critical = yes\n"
                   "lqg.modulus-density.matter = bogus\n")
    assert run(capsys, *base, "--out", str(out))[0] == 0
    assert '"critical": true' in out.read_text()


def test_config_file_missing_exits_1(capsys):
    code, _, err = run(
        capsys, "--config", "/no/such/file.cfg", "modular", "reduce", "--tau", "0,2"
    )
    assert code == 1
    assert "config" in err


HEAT_CSV = (
    "re_tau,im_tau,density\n"
    "-0.25,1.0,0.1\n"
    "0.25,1.0,0.3\n"
    "-0.25,2.0,0.2\n"
    "0.25,2.0,0.4\n"
)


def test_plot_heatmap(tmp_path, capsys):
    data = tmp_path / "density.csv"
    data.write_text(HEAT_CSV)
    out = tmp_path / "density.svg"
    code, _, _ = run(capsys, "lqg", "plot", str(data), "--out", str(out))
    assert code == 0
    svg = out.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert "<svg" in svg and svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") >= 4
    assert ">density<" in svg          # title from the data file stem
    assert f"torus-lqg {__version__}" in svg


def test_plot_line(tmp_path, capsys):
    data = tmp_path / "trace.csv"
    data.write_text("step,value\n0,1.0\n1,0.5\n2,0.25\n")
    out = tmp_path / "trace.svg"
    code, _, _ = run(capsys, "lqg", "plot", str(data), "--kind", "line", "--out", str(out))
    assert code == 0
    svg = out.read_text()
    assert "<polyline" in svg
    assert svg.count("<circle") == 3


def test_plot_schema_mismatch_writes_nothing(tmp_path, capsys):
    data = tmp_path / "wrong.csv"
    data.write_text("a,b\n1,2\n")
    out = tmp_path / "wrong.svg"
    code, _, err = run(capsys, "lqg", "plot", str(data), "--out", str(out))
    assert code == 1
    assert "re_tau" in err
    assert not out.exists()


def test_plot_missing_file_exits_1(tmp_path, capsys):
    out = tmp_path / "x.svg"
    code, _, err = run(capsys, "lqg", "plot", str(tmp_path / "absent.csv"), "--out", str(out))
    assert code == 1
    assert "cannot read" in err
