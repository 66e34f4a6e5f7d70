"""The benchmark's workloads: the ops of one pass and the check on each.

Every op but one is a real CLI invocation, `torus_lqg.cli.main(argv)`
called in-process, so exit codes and output files are exactly those of
the executable.  The joint (modulus, volume, measure) step of
`density-table` is reachable only through the API.  A check that fails
marks its op as failed; the pass goes on.

Workloads, and why each was chosen:

- mc-ladder: nearly all time goes to the replica loop (mode draw, inverse
  FFT, exp-sum) at one tau, on a cutoff ladder.  It exercises a batched
  replica engine and bypasses the density-table and cache layers.
- density-table: a cold 138-point modulus-density table (138 x 256
  replica loops that redraw identical modes), the same table warm from
  the cache, joint sampling from the warm cache, a heatmap, and the
  joint-law sampler.  It exercises common random numbers and uses the
  cache both ways, writes cold and reads warm.
- analytic: the deterministic kernels (q-series, Green function, the
  `regularized_variance` box sum inside `check all --quick`) with almost
  no replica work.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import time
import traceback
from pathlib import Path

import numpy as np

from torus_lqg import cache, chaos, cli, lqg
from torus_lqg.config import FieldResolution, MonteCarloConfig
from torus_lqg.gff import RngStream

MC_TAU = "0,1"
# (cutoff, replicas): each rung takes a similar share of a pass
MC_RUNGS = ((8, 6000), (16, 3000), (32, 800), (64, 200))
MC_SPECIAL_REPLICAS = 3000
MC_INSERTIONS = "0.2,0.3,0.8;0.7,0.6,0.5"
DENSITY_ARGS = ["--matter", "pure", "--t-max", "12", "--cutoff", "8", "--replicas", "256"]
DENSITY_POINTS = 138
JOINT_SAMPLES = 2000
API_JOINT_SAMPLES = 100
MASS_SE_BOUND = 5.0
HEADER = ("torus-lqg ", "command: ", "config: ", "seed: ", "duration_s: ")


@contextlib.contextmanager
def _cache_counts():
    """Count MomentCache hits, misses and puts while the block runs."""
    cls = cache.MomentCache
    get, put = cls.get, cls.put
    n = {"hits": 0, "misses": 0, "puts": 0}

    def counted_get(self, key):
        rec = get(self, key)
        n["misses" if rec is None else "hits"] += 1
        return rec

    def counted_put(self, key, record):
        n["puts"] += 1
        return put(self, key, record)

    cls.get, cls.put = counted_get, counted_put
    try:
        yield n
    finally:
        cls.get, cls.put = get, put


class Pass:
    """One pass of a workload: its ops in turn, each timed and checked.

    Each op's time leaves out what `sampler` spent inside it, and its
    normalized time uses the speed sampled while it ran.  `cache` holds
    the moment-cache counts of the op just run, for its check; `values`
    holds the pass's cache hit and miss totals and the figures' inputs.
    """

    def __init__(self, tracer, sampler, workdir: Path):
        self.tracer = tracer
        self.sampler = sampler
        self.dir = workdir
        self.ops: list[dict] = []
        self.values: dict[str, float] = {"cache.get.hits": 0, "cache.get.misses": 0}
        self.cache: dict[str, int] = {}
        self.bytes_written = 0

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def _timed(self, name: str, root: str, call, check) -> None:
        """Time `call()`, which returns (check argument, problem or None)."""
        t0 = time.perf_counter()
        with self.tracer.op(root), _cache_counts() as self.cache:
            arg, problem = call()
        t1 = time.perf_counter()
        seconds = (t1 - t0) - self.sampler.sampled_s(t0, t1)
        self.values["cache.get.hits"] += self.cache["hits"]
        self.values["cache.get.misses"] += self.cache["misses"]
        if problem is None:
            try:
                problem = check(arg)
            except Exception:
                problem = "check raised: " + traceback.format_exc(limit=2)
        self.ops.append({
            "op": name,
            "s": seconds,
            "norm_s": seconds / self.sampler.slowdown(t0, t1),
            "problem": problem,
        })

    def cli(self, name: str, argv: list[str], check) -> None:
        """Run one CLI op; `check(stdout)` returns a problem or None."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            problem = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:
                    rc, problem = None, traceback.format_exc(limit=3)
            if problem is None and rc != 0:
                problem = f"exit code {rc}: {err.getvalue().strip()[-300:]}"
            return out.getvalue(), problem

        self._timed(name, "cli", call, check)
        if "--out" in argv:
            target = Path(argv[argv.index("--out") + 1])
            self.bytes_written += target.stat().st_size if target.exists() else 0
        self.bytes_written += len(out.getvalue().encode())

    def api(self, name: str, fn, check) -> None:
        """Run one API op; `check(result)` returns a problem or None."""

        def call():
            try:
                return fn(), None
            except Exception:
                return None, traceback.format_exc(limit=3)

        self._timed(name, "api", call, check)


def read_csv(path: str):
    """(header lines, column names, rows as a float array) of a CLI CSV."""
    header, columns, rows = [], None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            header.append(line[2:])
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, columns, np.array(rows, dtype=float).reshape(len(rows), -1)


def header_problem(header: list[str], seed: int | None = None) -> str | None:
    for prefix in HEADER:
        if not any(line.startswith(prefix) for line in header):
            return f"header lacks {prefix.strip()!r}"
    if seed is not None and f"seed: {seed}" not in header:
        return f"header does not record seed {seed}"
    return None


def read_json(path: str, seed: int | None = None):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    meta = doc.get("meta", {})
    missing = [k for k in ("version", "command", "config", "seed", "duration_s")
               if k not in meta]
    if missing:
        raise ValueError(f"JSON meta lacks {missing}")
    if seed is not None and meta["seed"] != seed:
        raise ValueError(f"JSON meta records seed {meta['seed']}, not {seed}")
    return doc


def _positive_finite(a) -> bool:
    a = np.asarray(a, dtype=float)
    return a.size > 0 and bool(np.all(np.isfinite(a)) and np.all(a > 0))


def _in_domain(tau: complex) -> bool:
    tol = 1e-12
    return abs(tau.real) <= 0.5 + tol and abs(tau) >= 1.0 - tol and tau.imag > 0


def _counts_problem(p: Pass, hits: int, misses: int, puts: int) -> str | None:
    want = {"hits": hits, "misses": misses, "puts": puts}
    return None if p.cache == want else f"cache counts {p.cache}, expected {want}"


# ------------------------------------------------------------ mc-ladder


def mc_ladder(p: Pass, seed: int) -> None:
    s = str(seed)
    tau, gamma = complex(*map(float, MC_TAU.split(","))), 1.0
    expected = chaos.expected_total_mass(tau, gamma, 2.0 / gamma + gamma / 2.0)

    def subcritical(path, replicas):
        def check(_):
            header, cols, rows = read_csv(path)
            problem = header_problem(header, seed)
            if problem:
                return problem
            if cols != ["replica", "total_mass"] or rows.shape[0] != replicas:
                return f"expected {replicas} replica rows, got {rows.shape}"
            m = rows[:, 1]
            if not _positive_finite(m):
                return "masses not finite and positive"
            dev = abs(m.mean() - expected) / (m.std(ddof=1) / math.sqrt(len(m)))
            if dev > MASS_SE_BOUND:
                return f"mean mass {m.mean():.6g} is {dev:.1f} SE from {expected:.6g}"
            return None

        return check

    for cutoff, replicas in MC_RUNGS:
        out = p.path(f"gmc_c{cutoff}.csv")
        p.cli(f"gmc_c{cutoff}",
              ["gmc", "sample", "--tau", MC_TAU, "--gamma", "1", "--cutoff", str(cutoff),
               "--replicas", str(replicas), "--seed", s, "--out", out],
              subcritical(out, replicas))

    out = p.path("gmc_critical_c16.csv")

    def critical(_):
        header, _, rows = read_csv(out)
        problem = header_problem(header, seed)
        if problem:
            return problem
        if rows.shape[0] != MC_SPECIAL_REPLICAS or not _positive_finite(rows[:, 1]):
            return "critical masses not finite and positive"
        return None

    p.cli("gmc_critical_c16",
          ["gmc", "sample", "--tau", MC_TAU, "--critical", "--eps", "0.08",
           "--cutoff", "16", "--replicas", str(MC_SPECIAL_REPLICAS), "--seed", s,
           "--out", out], critical)

    out = p.path("lqft_c16.json")

    def partition(_):
        doc = read_json(out, seed)
        value, se = doc["value"], doc["std_error"]
        if not _positive_finite([value, se]) or doc["replicas"] != MC_SPECIAL_REPLICAS:
            return f"partition value {value} SE {se} not finite and positive"
        p.values["partition_rse"] = se / value
        return None

    p.cli("lqft_c16",
          ["lqft", "partition", "--tau", "0,2", "--gamma", "1",
           "--insertions", MC_INSERTIONS, "--cutoff", "16",
           "--replicas", str(MC_SPECIAL_REPLICAS), "--seed", s, "--out", out],
          partition)


def mc_ladder_figures(op_s: dict, values: dict) -> list[tuple[str, float, str]]:
    figures = [
        (f"us_per_replica_c{c}", op_s[f"gmc_c{c}"] / r * 1e6, "us")
        for c, r in MC_RUNGS
    ]
    figures += [
        ("us_per_replica_critical_c16",
         op_s["gmc_critical_c16"] / MC_SPECIAL_REPLICAS * 1e6, "us"),
        ("lqft_us_per_replica_c16", op_s["lqft_c16"] / MC_SPECIAL_REPLICAS * 1e6, "us"),
    ]
    if "partition_rse" in values:
        figures.append(("s_to_1pct_rse_partition",
                        op_s["lqft_c16"] * (values["partition_rse"] / 0.01) ** 2, "s"))
    return figures


# -------------------------------------------------------- density-table


def density_table(p: Pass, seed: int) -> None:
    s = str(seed)
    table = p.path("density.csv")
    argv = ["lqg", "modulus-density", *DENSITY_ARGS, "--seed", s, "--out", table]
    cold_text = {}

    def rows_problem():
        header, cols, rows = read_csv(table)
        problem = header_problem(header, seed)
        if problem:
            return problem
        if rows.shape[0] != DENSITY_POINTS:
            return f"expected {DENSITY_POINTS} density rows, got {rows.shape[0]}"
        if not _positive_finite(rows[:, 2:4]):
            return "density or std_error not finite and positive"
        rse = rows[:, cols.index("std_error")] / rows[:, cols.index("density")]
        p.values["table_median_rse"] = float(np.median(rse))
        return None

    def body(text):
        return [ln for ln in text.splitlines() if not ln.startswith("# duration_s")]

    def cold(_):
        cold_text["text"] = Path(table).read_text(encoding="utf-8")
        return rows_problem() or _counts_problem(p, 0, DENSITY_POINTS, DENSITY_POINTS)

    p.cli("density_cold", argv, cold)

    def warm(_):
        if body(Path(table).read_text(encoding="utf-8")) != body(cold_text.get("text", "")):
            return "warm table differs from the cold table"
        return _counts_problem(p, DENSITY_POINTS, 0, 0)

    p.cli("density_warm", argv, warm)

    joint = p.path("joint.csv")

    def sample_joint(_):
        header, cols, rows = read_csv(joint)
        problem = header_problem(header, seed)
        if problem:
            return problem
        if cols != ["sample", "re_tau", "im_tau", "volume"] or rows.shape[0] != JOINT_SAMPLES:
            return f"expected {JOINT_SAMPLES} joint rows, got {rows.shape}"
        if not all(_in_domain(complex(a, b)) for a, b in rows[:, 1:3]):
            return "a sampled tau lies outside the fundamental domain"
        if not _positive_finite(rows[:, 3]):
            return "a sampled volume is not finite and positive"
        return _counts_problem(p, DENSITY_POINTS, 0, 0)

    p.cli("sample_joint",
          ["lqg", "sample-joint", *DENSITY_ARGS, "--seed", s,
           "--samples", str(JOINT_SAMPLES), "--out", joint], sample_joint)

    svg = p.path("density.svg")

    def plot(_):
        text = Path(svg).read_text(encoding="utf-8")
        header = [ln[5:-4] for ln in text.splitlines() if ln.startswith("<!-- ")]
        problem = header_problem(header)
        if problem:
            return problem
        if text.count("<rect") <= DENSITY_POINTS or not text.rstrip().endswith("</svg>"):
            return "heatmap lacks one rect per cell"
        return None

    p.cli("plot_heatmap", ["lqg", "plot", table, "--kind", "heatmap", "--out", svg], plot)

    # the joint-law sampler needs the table as an object: load it from the
    # warm cache as an op of its own, so that `joint_law_api` times the
    # sampler alone
    matter = lqg.MatterCFT.pure_gravity()
    params = lqg.params_from_matter(matter)
    ins = lqg.template_from_matter(matter, params, [(0.0, 0.0)])
    loaded = {}

    def joint_table():
        loaded["table"] = lqg.build_density_table(
            matter, params, ins, MonteCarloConfig(replicas=256, seed=seed),
            FieldResolution(8), t_max=12.0, cache=cache.MomentCache(),
        )
        return loaded["table"]

    def table_check(tab):
        cells = int(np.count_nonzero(tab.density))
        if cells != DENSITY_POINTS or not _positive_finite(tab.density[tab.density != 0]):
            return f"expected {DENSITY_POINTS} finite positive table cells, got {cells}"
        return _counts_problem(p, DENSITY_POINTS, 0, 0)

    p.api("joint_table", joint_table, table_check)

    def joint_law():
        return list(lqg.joint_law_sampler(
            matter, params, ins, loaded["table"], API_JOINT_SAMPLES, RngStream(seed, 1),
            res=FieldResolution(16),
        ))

    def joint_check(samples):
        if len(samples) != API_JOINT_SAMPLES:
            return f"expected {API_JOINT_SAMPLES} joint samples, got {len(samples)}"
        for smp in samples:
            if not _in_domain(smp.tau) or not _positive_finite(smp.volume):
                return f"joint sample tau {smp.tau} volume {smp.volume} out of range"
            m = np.asarray(smp.measure)
            if not (np.all(np.isfinite(m)) and np.all(m >= 0)):
                return "joint measure not finite and nonnegative"
            if abs(m.sum() - smp.volume) > 1e-9 * smp.volume:
                return f"joint measure mass {m.sum()} differs from volume {smp.volume}"
        return None

    p.api("joint_law_api", joint_law, joint_check)


def density_table_figures(op_s: dict, values: dict) -> list[tuple[str, float, str]]:
    figures = [
        ("ms_per_tau_point", op_s["density_cold"] / DENSITY_POINTS * 1e3, "ms"),
        ("warm_rerun_s", op_s["density_warm"], "s"),
        ("joint_samples_per_s", API_JOINT_SAMPLES / op_s["joint_law_api"], "1/s"),
    ]
    if "table_median_rse" in values:
        figures.append(("s_to_1pct_rse_table",
                        op_s["density_cold"] * (values["table_median_rse"] / 0.01) ** 2,
                        "s"))
    return figures


# -------------------------------------------------------------- analytic


def analytic(p: Pass, seed: int) -> None:
    rng = random.Random(seed)
    tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6))
    z = (rng.uniform(0.05, 0.95), rng.uniform(-0.3, 0.3))

    def pair(c: complex) -> str:
        return f"{c.real!r},{c.imag!r}"

    got: dict[str, complex] = {}

    def special(name, fn, at, zz=None, check=None):
        out = p.path(f"{name}.json")
        # the --flag=value form keeps a leading minus sign from reading as a flag
        argv = ["special-fn", "eval", "--fn", fn, f"--tau={pair(at)}", "--out", out]
        if zz is not None:
            argv.insert(4, f"--z={zz[0]!r},{zz[1]!r}")

        def read(_):
            got[name] = complex(*read_json(out)["value"])
            return check() if check else None

        p.cli(name, argv, read)

    def rel(a: complex, b: complex) -> float:
        return abs(a - b) / max(abs(b), 1e-300)

    eta_i = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    special("eta_i", "eta", 1j, check=lambda: (
        None if rel(got["eta_i"], eta_i) <= 1e-12 else f"eta(i) = {got['eta_i']}"))
    special("eta_tau", "eta", tau)
    special("eta_tau_plus_1", "eta", tau + 1, check=lambda: (
        None if rel(got["eta_tau_plus_1"], cmath.exp(1j * math.pi / 12) * got["eta_tau"])
        <= 1e-12 else "eta(tau + 1) != exp(i pi / 12) eta(tau)"))
    special("theta2", "theta2", tau)
    special("theta3", "theta3", tau)
    special("theta4", "theta4", tau, check=lambda: (
        None if rel(got["theta2"] ** 4 + got["theta4"] ** 4, got["theta3"] ** 4) <= 1e-10
        else "Jacobi identity theta3^4 = theta2^4 + theta4^4 fails"))
    special("theta1_z", "theta1", tau, z)
    special("theta1_minus_z", "theta1", tau, (-z[0], -z[1]), check=lambda: (
        None if rel(got["theta1_minus_z"], -got["theta1_z"]) <= 1e-12
        else "theta1 is not odd in z"))

    def checks(stdout):
        if "8/8 quick checks passed" not in stdout or "[FAIL]" in stdout:
            return "check all --quick did not pass 8/8: " + stdout.strip()[-200:]
        return None

    p.cli("check_quick", ["check", "all", "--quick"], checks)

    out = p.path("green.csv")
    grid = 256

    def green_table(_):
        header, cols, rows = read_csv(out)
        problem = header_problem(header)
        if problem:
            return problem
        if cols != ["x1", "x2", "green"] or rows.shape[0] != grid * grid:
            return f"expected {grid * grid} green rows, got {rows.shape}"
        g = rows[:, 2].reshape(grid, grid)
        if not np.all(np.isfinite(g)):
            return "green table not finite"
        odd = float(np.max(np.abs(g - g[::-1, ::-1])))
        return None if odd <= 1e-9 else f"green table not even under x -> -x ({odd:.2e})"

    p.cli("green_table",
          ["green", "table", "--tau", "0.3,1.2", "--grid", str(grid), "--out", out],
          green_table)


def analytic_figures(op_s: dict, values: dict) -> list[tuple[str, float, str]]:
    return [("check_quick_s", op_s["check_quick"], "s")]


WORKLOADS = {
    "mc-ladder": (mc_ladder, mc_ladder_figures),
    "density-table": (density_table, density_table_figures),
    "analytic": (analytic, analytic_figures),
}
