"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads figures grid_pool critical_temp \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 [--out summary.json]

Runs bench/run.py once per workload and seed, one after another, and
prints for each metric the median with its unit and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json. Quartiles are
those of statistics.quantiles(values, n=4). Exits 1 if any run fails
its output checks or any spread other than setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["returncode"] = proc.returncode
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summarize(results: list, bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": bound,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        ok &= all(r["correct"] and r["returncode"] == 0 for r in results)
        stats = summarize(results, bounds)
        summary[workload] = {
            "seeds": args.seeds,
            "elapsed_s": [r["elapsed_s"] for r in results],
            "correct": [r["correct"] for r in results],
            "metrics": stats,
        }
        print(f"{workload}: runs took {min(summary[workload]['elapsed_s']):.1f}"
              f"-{max(summary[workload]['elapsed_s']):.1f} s")
        for name, s in stats.items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (above bound/3)"
            if name != "setup_s" and s["spread"] > s["bound"]:
                flag, ok = "  EXCEEDS BOUND", False
            print(f"  {name:<14} median {s['median']:.6g} {units[name]}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
