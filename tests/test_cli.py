"""End-to-end runs of the command-line entry point, in process."""

import json
import math
import warnings

import pytest

import torus_lqg.cli as cli
from torus_lqg import __version__
from torus_lqg.checks import CheckResult
from torus_lqg.green import green
from torus_lqg.special import dedekind_eta


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert f"torus-lqg {__version__}" in capsys.readouterr().out


def test_special_eval_matches_library(capsys):
    code, out, _ = run(capsys, "special-fn", "eval", "--fn", "eta", "--tau", "0.3,1.2")
    assert code == 0
    doc = json.loads(out)
    want = dedekind_eta(0.3 + 1.2j)
    assert abs(complex(*doc["value"]) - want) < 1e-15
    assert doc["meta"]["version"] == __version__
    assert doc["meta"]["config"]["fn"] == "eta"
    assert "duration_s" in doc["meta"]


def test_green_eval_to_file(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, _, _ = run(
        capsys, "green", "eval", "--tau", "0,1", "--x", "0.3,0.4", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert abs(doc["green"] - green(1j, (0.3, 0.4))) < 1e-15


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
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")
        assert needle in err
        assert "Traceback" not in err
    assert not out.exists()


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
        # sin((2n+1)*pi*z) overflows before its tiny coefficient damps it
        ["special-fn", "eval", "--fn", "theta1", "--tau", "0,1", "--z", "0,200"],
        ["green", "eval", "--tau", "0,100", "--x", "0.3,0.9"],
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


def test_eta_in_the_cusp_exits_0(capsys):
    code, out, _ = run(capsys, "special-fn", "eval", "--fn", "eta", "--tau", "0,300")
    assert code == 0
    assert complex(*json.loads(out)["value"]) == dedekind_eta(300j)


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
    code, out, _ = run(capsys, "check", "all", "--quick")
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
