"""Command-line entry point.

One executable wires all modules: deterministic seeded experiments in,
CSV/JSON/SVG artifacts out.  Every output embeds the tool version, the
resolved configuration, the seeds, and the wall-clock duration, so a
result file is its own provenance record.  Numeric payloads are
reproduced bit for bit when config and seeds are fixed; the duration
line is the one declared exception.

Exit codes: 0 success, 1 validation or usage error, 2 numeric failure,
3 failed check suite.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .cache import MomentCache
from .chaos import sample_total_masses
from .checks import KPZ_TOLERANCE, kpz_scaling, modular_partition_ratio, run_checks
from .config import FieldResolution, MonteCarloConfig
from .errors import NumericError, SchemaMismatch, TorusLQGError, ValidationError
from .gff import RngStream, evaluate_on_grid, sample_gff
from .green import GreenEvalConfig, green, green_grid
from .lqft import InsertionSet, LQFTParams, partition_function
from .lqg import (
    MatterCFT,
    build_density_table,
    joint_law_sampler,
    params_from_matter,
    template_from_matter,
)
from .modular import reduce_to_fundamental, wrap_centered
from .special import dedekind_eta, theta1, theta_aux
from .svg import render_heatmap, render_line


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (not argparse's default 2) per the CLI contract.
    A word that starts like a negative number (`--tau -0.4,0.9`) is a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _numbers(text: str, what: str, count: int | None = None) -> tuple[float, ...]:
    """The comma-separated numbers of a flag's text, exactly count of them
    when count is given; anything else is a usage error naming what the
    flag expects."""
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        values = ()
    if not values or count not in (None, len(values)):
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return values


def _tau(text: str) -> complex:
    return complex(*_numbers(text, "RE,IM pair", 2))


def _point(text: str) -> tuple[float, float]:
    return _numbers(text, "X1,X2 pair", 2)


def _insertions(text: str) -> tuple:
    return tuple(_numbers(c, "X1,X2,ALPHA triples joined by ';'", 3) for c in text.split(";"))


def _float_list(text: str) -> tuple[float, ...]:
    return _numbers(text, "comma-separated numbers")


_FFPOWER = "ffpower:<c_m>, c_m one number at most 1"


def _matter(text: str) -> MatterCFT:
    if text == "pure":
        return MatterCFT.pure_gravity()
    if text == "ising":
        return MatterCFT.ising()
    if text.startswith("ffpower:"):
        try:
            return MatterCFT.free_field_power(_numbers(text[len("ffpower:"):], _FFPOWER, 1)[0])
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(f"expected {_FFPOWER}, got {text!r}: {exc}")
    raise argparse.ArgumentTypeError(
        f"matter must be pure, ising, or ffpower:<c_m>, got {text!r}"
    )


def _json_safe(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (tuple, list)):
        return [_json_safe(x) for x in v]
    if isinstance(v, MatterCFT):
        return {"kind": v.kind, "central_charge": v.central_charge}
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


_SKIP_IN_CONFIG = {"group", "cmd", "config", "out", "data", "func"}


def _provenance(args, argv, t0: float) -> dict:
    """The one provenance record: JSON `meta`, and the CSV/SVG header lines."""
    config = {
        k: _json_safe(v)
        for k, v in sorted(vars(args).items())
        if k not in _SKIP_IN_CONFIG and not k.startswith("_")
    }
    return {
        "version": __version__,
        "command": " ".join(argv),
        "config": config,
        "seed": config.get("seed", "-"),
        "duration_s": round(time.time() - t0, 3),
    }


_BLOCK_ROWS = 4096


def _cells(column: np.ndarray) -> np.ndarray:
    """The CSV cells of a column as an object array: `str` of an integer, `repr`
    of a float64, each distinct value (a float64 by its int64 bit pattern, so
    -0.0 stays apart from 0.0) formatted once and taken back to its rows."""
    if column.dtype.kind in "iu":
        distinct, at = np.unique(column, return_inverse=True)
        text = map(str, distinct.tolist())
    else:
        bits = np.asarray(column, dtype=np.float64).view(np.int64)
        distinct, at = np.unique(bits, return_inverse=True)
        text = map(repr, distinct.view(np.float64).tolist())
    return np.array(list(text), dtype=object)[at]


def _render(kind: str, result, record: dict):
    """The output text of a handler's result, as pieces, by the subcommand's kind.

    `text`: the report as is; `json`: a payload dict; `svg`: a builder
    that takes the header lines; each is one piece, rendered here.
    `csv`: (columns, data, *extra header lines) with one 1-d array per
    column in data, yielded by `_csv_pieces` as the header, then rows in
    blocks of _BLOCK_ROWS; a cell is `repr` of a float64, `str` of an integer.
    """
    if kind == "text":
        return [result]
    if kind == "json":
        return [json.dumps({"meta": record, **result}, sort_keys=True, indent=2) + "\n"]
    header = [
        f"torus-lqg {record['version']}",
        f"command: {record['command']}",
        "config: " + json.dumps(record["config"], sort_keys=True),
        f"seed: {record['seed']}",
        f"duration_s: {record['duration_s']:.3f}",
    ]
    if kind == "svg":
        return [result(header)]
    columns, data, *notes = result
    return _csv_pieces([f"# {h}" for h in header + notes] + [",".join(columns)], data)


def _csv_pieces(head: list[str], data):
    """Yield the head lines, then the rows in blocks of _BLOCK_ROWS, formatted lazily.

    A block is one join of a (rows, 2 * columns) object array: column k's
    cells at 2k, then "," after every cell but the last, which is "\n"."""
    data = [np.asarray(c) for c in data]
    yield "\n".join(head) + "\n"
    block = np.full((min(_BLOCK_ROWS, len(data[0])), 2 * len(data)), ",", dtype=object)
    block[:, -1] = "\n"
    for start in range(0, len(data[0]), _BLOCK_ROWS):
        rows = block[: len(data[0]) - start]
        for k, c in enumerate(data):
            rows[:, 2 * k] = _cells(c[start : start + _BLOCK_ROWS])
        yield "".join(rows.ravel().tolist())


def _write(args, argv, t0: float, result) -> None:
    """The one output path: render a handler's result, write it to --out or stdout.

    A CSV is written block by block as `_render` formats it, so no string of
    the whole file is built; a cell is `repr` of a float64, `str` of an integer.
    """
    pieces = _render(args._kind, result, _provenance(args, argv, t0))
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as f:
            f.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# ---------------------------------------------------------------- handlers


def _cmd_special_eval(args, write):
    tau = args.tau
    if args.fn == "eta":
        val = dedekind_eta(tau)
    elif args.fn == "theta1":
        if args.z is None:
            raise ValidationError("theta1 needs --z RE,IM")
        val = complex(theta1(complex(*args.z), tau))
    else:
        val = theta_aux(int(args.fn[-1]), tau)
    write({"fn": args.fn, "tau": _json_safe(tau), "value": _json_safe(complex(val))})
    return 0


def _cmd_modular_reduce(args, write):
    red = reduce_to_fundamental(args.tau)
    w = red.witness
    write(
        {
            "tau": _json_safe(args.tau),
            "reduced": _json_safe(red.tau),
            "witness": {"a": w.a, "b": w.b, "c": w.c, "d": w.d},
        }
    )
    return 0


def _cmd_green_eval(args, write):
    cfg = GreenEvalConfig(
        mode=args.mode, eigen_cutoff=args.eigen_cutoff, tolerance=args.tolerance
    )
    val = green(args.tau, args.x, cfg)
    write({"tau": _json_safe(args.tau), "x": list(args.x), "green": float(val)})
    return 0


def _cmd_green_table(args, write):
    g = args.grid
    if g < 1:
        raise ValidationError(f"--grid must be at least 1, got {g}")
    u = (np.arange(g) + 0.5) / g
    x1, x2 = np.meshgrid(u, u, indexing="ij")
    vals = green_grid(args.tau, wrap_centered(u), wrap_centered(u), 0.0)
    write((["x1", "x2", "green"], [x1.ravel(), x2.ravel(), vals.ravel()]))
    return 0


def _cmd_gff_sample(args, write):
    fld = sample_gff(args.tau, args.cutoff, RngStream(args.seed, args.stream))
    vals = evaluate_on_grid(fld, args.grid)
    g = vals.shape[0]
    i, j = np.indices(vals.shape).reshape(2, -1)
    write((["i", "j", "x1", "x2", "value"], [i, j, i / g, j / g, vals.ravel()]))
    return 0


_PAIRS = (
    "pairs: rows 2j and 2j+1 are an antithetic pair (replica 2j+1 has the "
    "negated modes of replica 2j); take standard errors from pair means"
)


def _cmd_gmc_sample(args, write):
    gamma = 2.0 if args.critical else args.gamma
    q = LQFTParams(gamma).q
    res = FieldResolution(args.cutoff, args.grid_factor, eps=args.eps)
    mc = MonteCarloConfig(replicas=args.replicas, seed=args.seed)
    masses = sample_total_masses(args.tau, gamma, q, mc, res, critical=args.critical)
    write((["replica", "total_mass"], [np.arange(len(masses)), masses], _PAIRS))
    return 0


def _cmd_lqft_partition(args, write):
    params = LQFTParams(gamma=args.gamma, mu=args.mu)
    ins = InsertionSet(args.insertions)
    mc = MonteCarloConfig(replicas=args.replicas, seed=args.seed)
    res = FieldResolution(args.cutoff, args.grid_factor)
    est = partition_function(params, args.tau, ins, mc, res)
    write(
        {
            "value": est.value,
            "std_error": est.std_error,
            "replicas": est.replicas,
            "diagnostic": est.diagnostic,
        }
    )
    return 0


def _cmd_lqft_check_kpz(args, write):
    ins = InsertionSet(args.insertions)
    mc = MonteCarloConfig(replicas=args.replicas, seed=args.seed)
    res = FieldResolution(args.cutoff, args.grid_factor)
    found, worst, passed = kpz_scaling(args.gamma, args.tau, ins, mc, res, args.mu_list)
    write(
        {
            "residuals": {str(mu): r for mu, r in zip(args.mu_list, found)},
            "max_residual": worst,
            "tolerance": KPZ_TOLERANCE,
            "passed": passed,
        }
    )
    return 0 if passed else 3


def _cmd_lqft_check_modular(args, write):
    mc = MonteCarloConfig(replicas=args.replicas, seed=args.seed)
    res = FieldResolution(args.cutoff, args.grid_factor)
    ratio, se, dev, passed = modular_partition_ratio(args.tau, args.gamma, args.alpha, mc, res)
    write(
        {
            "ratio": ratio,
            "std_error": se,
            "deviation_se": dev,
            "passed": passed,
        }
    )
    return 0 if passed else 3


def _build_table(args):
    matter = args.matter
    params = params_from_matter(matter, mu=args.mu)
    pts = [(k / args.n, k / args.n) for k in range(args.n)]
    ins = template_from_matter(matter, params, pts)
    mc = MonteCarloConfig(replicas=args.replicas, seed=args.seed)
    res = FieldResolution(args.cutoff, args.grid_factor)
    cache = None if args.no_cache else MomentCache()
    return params, ins, build_density_table(
        matter,
        params,
        ins,
        mc,
        res,
        re_cells=args.re_cells,
        im_cells=args.im_cells,
        t_max=args.t_max,
        tail_tol=args.tail_tol,
        cache=cache,
    )


def _cmd_lqg_density(args, write):
    _, _, table = _build_table(args)
    a, b = np.nonzero(table.density > 0)
    data = [table.re_centers[a], table.im_centers[b], table.density[a, b], table.std_error[a, b]]
    write((["re_tau", "im_tau", "density", "std_error"], data))
    return 0


def _cmd_lqg_sample_joint(args, write):
    params, ins, table = _build_table(args)
    rng = RngStream(args.seed, 1)
    smps = list(joint_law_sampler(args.matter, params, ins, table, args.samples, rng))
    tau = np.array([smp.tau for smp in smps], dtype=complex)
    data = [np.arange(len(smps)), tau.real, tau.imag, [smp.volume for smp in smps]]
    write((["sample", "re_tau", "im_tau", "volume"], data))
    return 0


def _read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    columns: list[str] = []
    rows: list[list[float]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if not columns:
            columns = [c.strip() for c in ln.split(",")]
            continue
        try:
            rows.append([float(p) for p in ln.split(",")])
        except ValueError:
            raise SchemaMismatch(f"non-numeric data row in {path}: {ln!r}")
    return columns, rows


def _cmd_lqg_plot(args, write):
    columns, rows = _read_csv(args.data)
    title = Path(args.data).stem
    if args.kind == "heatmap":
        needed = ("re_tau", "im_tau", "density")
        if not all(c in columns for c in needed):
            raise SchemaMismatch(
                f"heatmap needs columns {needed}, file has {tuple(columns)}"
            )
        if not rows:
            raise SchemaMismatch("no data rows to plot")
        ix = [columns.index(c) for c in needed]
        write(
            lambda header: render_heatmap(
                [r[ix[0]] for r in rows],
                [r[ix[1]] for r in rows],
                [r[ix[2]] for r in rows],
                title,
                header,
            )
        )
    else:
        if len(columns) != 2:
            raise SchemaMismatch(
                f"line plot needs exactly two columns, file has {tuple(columns)}"
            )
        if not rows:
            raise SchemaMismatch("no data rows to plot")
        write(
            lambda header: render_line(
                [r[0] for r in rows], [r[1] for r in rows], title, header
            )
        )
    return 0


def _cmd_check(args, write):
    results = run_checks(quick=args.quick)
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.name:24s} {r.detail}  ({r.seconds:.2f}s)\n")
    failed = [r for r in results if not r.passed]
    scope = "quick" if args.quick else "full"
    lines.append(f"{len(results) - len(failed)}/{len(results)} {scope} checks passed\n")
    write("".join(lines))
    return 0 if not failed else 3


# ---------------------------------------------------------------- parser


def _add_mc_flags(p, replicas=1000):
    p.add_argument("--replicas", type=int, default=replicas)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cutoff", type=int, default=16)
    p.add_argument("--grid-factor", type=int, default=4, dest="grid_factor")


def _special_eval_flags(p):
    p.add_argument("--fn", required=True,
                   choices=["eta", "theta1", "theta2", "theta3", "theta4"])
    p.add_argument("--tau", type=_tau, required=True)
    p.add_argument("--z", type=_point, default=None)
    p.add_argument("--out")


def _modular_reduce_flags(p):
    p.add_argument("--tau", type=_tau, required=True)
    p.add_argument("--out")


def _green_eval_flags(p):
    p.add_argument("--tau", type=_tau, required=True)
    p.add_argument("--x", type=_point, required=True)
    p.add_argument("--mode", choices=["closed", "eigen", "appendix"], default="closed")
    p.add_argument("--eigen-cutoff", type=int, default=200, dest="eigen_cutoff")
    p.add_argument("--tolerance", type=float, default=1e-2)
    p.add_argument("--out")


def _green_table_flags(p):
    p.add_argument("--tau", type=_tau, required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--out", required=True)


def _gff_sample_flags(p):
    p.add_argument("--tau", type=_tau, required=True)
    p.add_argument("--cutoff", type=int, default=32)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", required=True)


def _gmc_sample_flags(p):
    p.add_argument("--tau", type=_tau, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--critical", action="store_true")
    p.add_argument("--eps", type=float, default=None)
    _add_mc_flags(p)
    p.add_argument("--out", required=True)


def _lqft_partition_flags(p):
    p.add_argument("--tau", type=_tau, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--insertions", type=_insertions, required=True)
    _add_mc_flags(p)
    p.add_argument("--out")


def _lqft_check_kpz_flags(p):
    p.add_argument("--tau", type=_tau, default=complex(0.2, 1.3))
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--insertions", type=_insertions,
                   default=((0.1, 0.3, 0.9), (0.6, 0.1, 0.4)))
    p.add_argument("--mu-list", type=_float_list, default=(0.5, 2.0, 10.0), dest="mu_list")
    _add_mc_flags(p, replicas=256)
    p.add_argument("--out")


def _lqft_check_modular_flags(p):
    p.add_argument("--tau", type=_tau, default=complex(0.0, 2.0))
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    _add_mc_flags(p, replicas=2000)
    p.add_argument("--out")


def _lqg_table_flags(p, samples=False):
    p.add_argument("--matter", type=_matter, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--re-cells", type=int, default=12, dest="re_cells")
    p.add_argument("--im-cells", type=int, default=12, dest="im_cells")
    p.add_argument("--t-max", type=float, default=8.0, dest="t_max")
    p.add_argument("--tail-tol", type=float, default=1e-3, dest="tail_tol")
    p.add_argument("--no-cache", action="store_true", dest="no_cache")
    _add_mc_flags(p, replicas=256)
    if samples:
        p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", required=True)


def _lqg_plot_flags(p):
    p.add_argument("data")
    p.add_argument("--kind", choices=["heatmap", "line"], default="heatmap")
    p.add_argument("--out", required=True)


def _check_flags(p):
    p.add_argument("scope", choices=["all"])
    p.add_argument("--quick", action="store_true")


# (group, cmd) -> (handler, output kind, flag function), in help order.  The
# one command of `check` is named by its `scope` positional, so the group's
# own parser is that command's parser.
_COMMANDS = {
    ("special-fn", "eval"): (_cmd_special_eval, "json", _special_eval_flags),
    ("modular", "reduce"): (_cmd_modular_reduce, "json", _modular_reduce_flags),
    ("green", "eval"): (_cmd_green_eval, "json", _green_eval_flags),
    ("green", "table"): (_cmd_green_table, "csv", _green_table_flags),
    ("gff", "sample"): (_cmd_gff_sample, "csv", _gff_sample_flags),
    ("gmc", "sample"): (_cmd_gmc_sample, "csv", _gmc_sample_flags),
    ("lqft", "partition"): (_cmd_lqft_partition, "json", _lqft_partition_flags),
    ("lqft", "check-kpz"): (_cmd_lqft_check_kpz, "json", _lqft_check_kpz_flags),
    ("lqft", "check-modular"): (_cmd_lqft_check_modular, "json", _lqft_check_modular_flags),
    ("lqg", "modulus-density"): (_cmd_lqg_density, "csv", _lqg_table_flags),
    ("lqg", "sample-joint"): (_cmd_lqg_sample_joint, "csv",
                              partial(_lqg_table_flags, samples=True)),
    ("lqg", "plot"): (_cmd_lqg_plot, "svg", _lqg_plot_flags),
    ("check", "all"): (_cmd_check, "text", _check_flags),
}


class _LazySubparsers(argparse._SubParsersAction):
    """Subparsers whose parsers are filled only when argparse selects one:
    `fill(name, parser)` adds the chosen parser's commands or flags, once,
    before the parser reads the rest of the arguments."""

    def __init__(self, *args, fill, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill
        self._filled = set()

    def fill(self, name: str) -> None:
        if name not in self._filled:
            self._filled.add(name)
            self._fill(name, self.choices[name])

    def __call__(self, parser, namespace, values, option_string=None):
        self.fill(values[0])
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> tuple[_Parser, dict]:
    """The parser and its (group, cmd) -> subcommand parser map.

    The top parser and the group parsers exist at once; a group's commands,
    and a command's flags, from _COMMANDS, are added when argparse selects
    that group or command, so one invocation builds one command's parser.
    The map holds the command parsers filled so far.
    """
    parser = _Parser(prog="torus-lqg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"torus-lqg {__version__}")
    parser.add_argument("--config", help="key = value defaults, overridden by flags")
    registry: dict[tuple[str, str], argparse.ArgumentParser] = {}

    def fill_command(key, p):
        handler, kind, flags = _COMMANDS[key]
        registry[key] = p
        p.set_defaults(func=handler, _kind=kind)
        flags(p)

    def fill_group(group, p):
        if group == "check":
            return fill_command(("check", "all"), p)
        cmds = p.add_subparsers(dest="cmd", required=True, action=_LazySubparsers,
                                fill=lambda cmd, sub: fill_command((group, cmd), sub))
        for g, cmd in _COMMANDS:
            if g == group:
                cmds.add_parser(cmd)

    groups = parser.add_subparsers(dest="group", required=True, action=_LazySubparsers,
                                   fill=fill_group)
    for group in dict.fromkeys(g for g, _ in _COMMANDS):
        groups.add_parser(group)
    return parser, registry


def _config_defaults(path: str, parser: _Parser, registry: dict, argv: list) -> argparse.Namespace:
    """Parse argv again with each `key = value` line of the file as an option default.

    Keys are `group.cmd.dest`, `cmd.dest` or `dest`; the longest match
    wins.  Values are strings that argparse converts like flag text, so a
    flag given on the command line still overrides them, and a value
    outside an option's choices is a usage error wherever the run uses it.
    """
    cfg = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValidationError(f"config line is not KEY = VALUE: {ln!r}")
        k, v = ln.split("=", 1)
        cfg[k.strip()] = v.strip()
    choices = []
    for (group, cmd), p in registry.items():
        for action in p._actions:
            if not action.option_strings or action.dest == "help":
                continue
            for key in (f"{group}.{cmd}.{action.dest}", f"{cmd}.{action.dest}", action.dest):
                if key in cfg:
                    value = cfg[key]
                    if isinstance(action, argparse._StoreTrueAction):
                        value = value.lower() in ("1", "true", "yes", "on")
                    elif action.choices is not None:
                        choices.append((p, action, value))
                    p.set_defaults(**{action.dest: value})
                    break
    args = parser.parse_args(argv)
    # argparse checks choices on flag text only, never on defaults
    for p, action, value in choices:
        if getattr(args, action.dest, None) is value:
            try:
                p._check_value(action, value)
            except argparse.ArgumentError as exc:
                p.error(str(exc))
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        if args.config:
            args = _config_defaults(args.config, parser, registry, argv)
        return args.func(args, partial(_write, args, argv, t0))
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2
    except (TorusLQGError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
