"""Benchmark of the torus-lqg toolkit, one workload per invocation.

    python3 perfbench/run.py --workload mc-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One client runs the workload's ops in turn (a closed loop) in
passes until `--seconds` is used up, and every op's output is checked.
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

- `--trace 0` reports the end-to-end metrics: `wall_ref_s`, the median
  pass (each op's median time over the passes, summed over the
  workload's ops); `peak_rss_mb`; and `setup_s`, the median over fresh
  interpreters of importing the package and building the CLI parser.
  Times are in reference seconds (see `probe.py`).  The workload's own
  figures (µs per replica per rung, ms per tau point, raw `wall_s`, ...)
  are printed above the result as `# figure` lines.
- `--trace 1` alternates untraced and traced passes and reports the
  per-layer metrics of `tracing.py` (medians over traced passes) plus the
  tracing overhead, traced minus untraced `wall_ref_s`.

BLAS/OpenMP pools are pinned to one thread, and the benchmark with its
probe and set-up processes to one CPU.  Every pass gets a fresh
moment-cache directory, so the user's cache is never read or written.
Details of each run go to `.perfbench_out/`, with the spans of a traced
run as gzipped JSON lines.  The exit code is 0 when the run completed,
whether or not its checks passed, and 2 when it could not run.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

E2E = (("wall_ref_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SETUP_RUNS = 9
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import torus_lqg.cli as cli; "
    "cli.build_parser(); print(time.perf_counter() - t0)"
)


def measure_setup(probe) -> float:
    """Median import-plus-parser time over fresh interpreters, after one
    warm-up, each in reference seconds at the mean of the speeds probed
    right before and right after it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    before = probe.slowdown()
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        after = probe.slowdown()
        times.append(float(done.stdout.split()[-1]) / (0.5 * (before + after)))
        before = after
    return statistics.median(times[1:])


def environment(seed: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(ln.split(":", 1)[1].strip() for ln in fh
                         if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_pass(workload, seed, tracer, probe, workdir: Path, traced: bool) -> dict:
    from probe import Sampler
    from workloads import Pass

    workdir.mkdir(parents=True)
    os.environ["TORUS_LQG_CACHE_DIR"] = str(workdir / "cache")
    sampler = Sampler(probe)
    p = Pass(tracer, sampler, workdir)
    if traced:
        tracer.reset()
        tracer.install()
    t0 = time.perf_counter()
    try:
        with sampler:
            workload(p, seed)
    except Exception as exc:  # a crash ends the pass but not the run
        p.ops.append({"op": "pass", "s": 0.0, "norm_s": 0.0,
                      "problem": f"pass crashed: {exc!r}"})
    finally:
        tracer.uninstall()
    record = {
        "traced": traced,
        "elapsed_s": time.perf_counter() - t0,
        "ops": p.ops,
        "values": p.values,
        "slowdowns": [s for _, s in sampler.samples],
        "bytes_written": p.bytes_written,
        "store_bytes": dir_bytes(workdir / "cache") if (workdir / "cache").exists() else 0,
    }
    if traced:
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def per_layer(record: dict) -> dict[str, float]:
    from tracing import PER_LAYER, SPANS, layer_totals

    calls, self_s = layer_totals(record["spans"])
    m = {name: 0 for name, _, _ in PER_LAYER}
    for name, *_ in SPANS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m.update({k: v for k, v in record["counts"].items() if k in m})
    m["cache.get.hits"] = record["values"]["cache.get.hits"]
    m["cache.get.misses"] = record["values"]["cache.get.misses"]
    m["cli.calls"] = calls.get("cli", 0)
    m["cli.self_s"] = self_s.get("cli", 0.0)
    m["cli.bytes_written"] = record["bytes_written"]
    m["cache.store_bytes"] = record["store_bytes"]
    return m


def median_pass(passes: list[dict], key: str = "norm_s") -> dict[str, float]:
    """Each op's median time over the passes."""
    names = dict.fromkeys(op["op"] for p in passes for op in p["ops"])
    return {name: statistics.median(op[key] for p in passes for op in p["ops"]
                                    if op["op"] == name)
            for name in names}


def check_warm_rerun(record: dict) -> None:
    """In a traced density pass, fail the warm rerun if it drew replicas."""
    for op_id, op in enumerate(record["ops"]):
        if op["op"] != "density_warm" or op["problem"]:
            continue
        drawn = sum(1 for name, _, _, _, span_op in record["spans"]
                    if span_op == op_id
                    and name in ("gff.generator", "gff.draw_hermitian_modes"))
        if drawn:
            op["problem"] = f"warm rerun drew replicas ({drawn} spans)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torus_lqg" / "__init__.py").is_file():
        print(f"error: no torus_lqg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from probe import Probe
    from tracing import PER_LAYER, Tracer, write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload, figures_of = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    env = environment(args.seed)
    # one CPU for the benchmark and, inherited, its probe and set-up
    # processes: the probe measures the speed of the CPU the ops ran on
    env["cpu_pinned"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu_pinned"]})
    traced_run = bool(args.trace)
    tracer = Tracer()
    passes: list[dict] = []
    with Probe() as probe:
        setup_s = None if traced_run else measure_setup(probe)
        start = time.perf_counter()
        try:
            while True:
                traced = traced_run and len(passes) % 2 == 1
                passes.append(run_pass(workload, args.seed, tracer, probe,
                                       scratch / f"pass{len(passes)}", traced))
                elapsed = time.perf_counter() - start
                typical = statistics.median(p["elapsed_s"] for p in passes)
                enough = len(passes) >= (2 if traced_run else 1)
                if enough and elapsed + typical > args.seconds:
                    break
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    for p in passes:
        if p["traced"]:
            check_warm_rerun(p)
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["problem"]]
    untraced = [p for p in passes if not p["traced"]]
    op_s = median_pass(untraced)
    values = untraced[0]["values"]
    wall_ref_s = sum(op_s.values())

    try:
        figures = figures_of(op_s, values)
    except KeyError as exc:
        figures = []
        print(f"# figures unavailable: missing {exc}")
    figures += [
        ("wall_ref_s", wall_ref_s, "s"),
        ("wall_s", sum(median_pass(untraced, "s").values()), "s"),
        ("slowdown", statistics.median(s for p in untraced for s in p["slowdowns"]), "1"),
        ("fail_frac", len(failed) / len(ops), "1"),
    ]
    for name, value, unit in figures:
        print(f"# figure {name} {value!r} {unit}")
    for name in dict.fromkeys(op["op"] for op in failed):
        problem = next(op["problem"] for op in failed if op["op"] == name)
        print(f"# FAIL {name}: {problem.strip().splitlines()[-1]}")

    if traced_run:
        layers = [per_layer(p) for p in passes if p["traced"]]
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name, _, _ in PER_LAYER}
        traced_wall = sum(median_pass([p for p in passes if p["traced"]]).values())
        metrics["trace.untraced_wall_ref_s"] = wall_ref_s
        metrics["trace.traced_wall_ref_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall_ref_s
        units = {name: unit for name, unit, _ in PER_LAYER}
        absent = tracer.absent
        write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz",
                    [p["spans"] for p in passes if p["traced"]])
    else:
        metrics = {"setup_s": setup_s, "wall_ref_s": wall_ref_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(E2E)
        absent = []
    if absent:
        print(f"# absent spans: {', '.join(absent)}")

    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "figures": {name: {"value": v, "unit": u} for name, v, u in figures},
        "absent_spans": absent,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print("# environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
