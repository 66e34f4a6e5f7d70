"""Run-to-run spread of the end-to-end metrics, as the benchmark is judged.

    python3 perfbench/spread.py --workloads mc-ladder,density-table --seeds 1-10

Runs `run.py` untraced for `run_seconds` of `BENCHMARK.json`, once per
(seed, workload), one run at a time, seeds in the outer loop, and prints
for each metric, and for each `# figure` of the workload, its median and
the distance between the first and third quartiles as a share of the
median.  The whole summary goes to `.perfbench_out/spread.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            detail = ROOT / ".perfbench_out" / f"{w}-seed{seed}-trace0.json"
            figures = json.loads(detail.read_text())["figures"]
            result["metrics"].update({f"figure.{k}": v for k, v in figures.items()})
            runs[w].append(result)
            print(f"{w} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if not k.startswith("figure.")),
                  flush=True)

    summary = {}
    for w, results in runs.items():
        summary[w] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            spread = None
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            summary[w][name] = {"median": median, "spread": spread, "values": values}
            print(f"{w:14s} {name:40s} median {median:.6g}  spread {spread}")
        summary[w]["failed"] = sum(r["failed"] for r in results)
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_out" / "spread.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
