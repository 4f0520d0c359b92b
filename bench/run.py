"""omneg benchmark: time the CLI in-process, check every output, trace layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs untraced and
traced passes side by side and reports the per-layer metrics. --quick
makes one pass over reduced inputs. Human-readable lines come first, a
full report goes to bench/_work/, and the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
is 1 when any output check fails and 2 when the package is missing.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, so nproc pool workers fit nproc cores;
# set before numpy is imported here, in pool workers and in set-up processes
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

# (name, unit); every workload reports all of them with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)
# functions whose per-layer metrics go into the result line; the full
# report covers every wrapped function
LAYER_FUNCTIONS = (
    "params.derive",
    "params.SystemParams.__post_init__",
    "steady_state.cavity_amplitude",
    "dynamics.build_drift",
    "dynamics.build_diffusion",
    "dynamics.stability",
    "dynamics.steady_covariance",
    "smallmat.eigenvalues",
    "smallmat.solve",
    "smallmat.kron",
    "smallmat.frob_norm",
    "smallmat.det",
    "entanglement.log_negativity",
    "sweep.evaluate_point",
    "sweep.run_sweep",
    "sweep.write_csv",
    "sweep.figure_spec",
    "sweep.critical_temperature",
    "config.load_config",
    "cli.main",
)
FUNCTION_STATS = (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"), ("share", "ratio"))
MODULE_STATS = (("self_s", "s"), ("share", "ratio"))
EXTRA_LAYER = (
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("sweep.write_csv.bytes", "B"),
    ("sweep.write_csv.mb_per_s", "MB/s"),
    ("sweep.critical_temperature.evals_per_search", "count"),
    ("sweep.pool.overhead_s", "s"),
    ("sweep.pool.parallel_efficiency", "ratio"),
    ("dynamics.steady_covariance.mflops_computed", "MFLOP/s"),
)
# operation count of Gaussian elimination on the 36x36 vectorized
# Lyapunov system plus its two triangular solves: 2n^3/3 + 2n^2
SOLVE_FLOPS = 2 * 36**3 // 3 + 2 * 36**2
SETUP_REPEATS = 5


def per_layer_names(modules) -> list:
    """(name, unit) of every per-layer metric in the result line."""
    names = [
        (f"{fn}.{stat}", unit) for fn in LAYER_FUNCTIONS for stat, unit in FUNCTION_STATS
    ]
    names += [(f"{m}.{stat}", unit) for m in modules for stat, unit in MODULE_STATS]
    return names + list(EXTRA_LAYER)


def tail(samples):
    """(value, percentile) of the highest percentile with ten samples above it.

    With fewer than 21 samples no such percentile lies above the
    median, and the median is reported instead.
    """
    xs = sorted(samples)
    index = len(xs) - 11
    if index < (len(xs) - 1) / 2:
        return statistics.median(xs), 50.0
    return xs[index], 100.0 * index / (len(xs) - 1)


def environment(load_avg) -> dict:
    import numpy
    import workloads

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": workloads.nproc(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load_avg_at_start": list(load_avg),
    }


def measure_setup(repeats: int) -> list:
    """Wall seconds of fresh `python -c "import omneg"` processes.

    Output is captured so that the wait ends on the pipe closing; a
    plain wait with a timeout polls in steps of up to 50 ms.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import omneg"],
            cwd=ROOT,
            check=True,
            timeout=120,
            capture_output=True,
        )
        times.append(time.perf_counter() - start)
    return times


class Tally:
    """Call durations and operation counts of one kind of pass."""

    def __init__(self):
        self.calls = []
        self.walls = []
        self.attempted = 0
        self.failed = 0


def run_pass(calls, tally: Tally, tracer=None) -> float:
    """Run calls through omneg.cli.main, check each, return the summed time.

    With a tracer, its wrappers are in place only during the timed call,
    so the checks that follow leave no spans.
    """
    from omneg import cli

    wall = 0.0
    for call in calls:
        buf = io.StringIO()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(call.argv)
        except Exception:  # a crash fails the call's operations; keep measuring
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        failed = call.ops
        if rc is not None:
            try:
                failed = call.check(rc, buf.getvalue())
            except (OSError, ValueError):
                traceback.print_exc()
        tally.calls.append((call.label, elapsed))
        tally.attempted += call.ops
        tally.failed += failed
        wall += elapsed
    tally.walls.append(wall)
    return wall


def keep_going(deadline: float, laps: list, quick: bool) -> bool:
    return not quick and time.perf_counter() + 0.5 * statistics.median(laps) < deadline


def measure(workload, seconds: float, quick: bool):
    tally, laps = Tally(), []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        run_pass(workload.pass_calls(), tally)
        laps.append(time.perf_counter() - start)
        if not keep_going(deadline, laps, quick):
            return tally


def end_to_end(tally: Tally, setup_times, rss_mb: float):
    durations = [t for _, t in tally.calls]
    value, pct = tail(durations)
    wall = statistics.median(tally.walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "ops_per_s": (tally.attempted - tally.failed) / len(tally.walls) / wall,
        "call_ms_p50": 1e3 * statistics.median(durations),
        "call_ms_tail": 1e3 * value,
        "peak_rss_mb": rss_mb,
    }
    by_label = {}
    for label, t in tally.calls:
        by_label.setdefault(label, []).append(t)
    extra = {
        "call_tail_percentile": pct,
        "call_samples": len(durations),
        "passes": len(tally.walls),
        "pass_s": tally.walls,
        "setup_samples_s": setup_times,
        "median_s_by_call": {k: statistics.median(v) for k, v in sorted(by_label.items())},
    }
    return metrics, extra


def measure_traced(workload, seconds: float, quick: bool):
    """Alternate untraced and traced passes; aggregate spans per layer."""
    import tracer

    untraced, traced, parallel, laps = Tally(), Tally(), Tally(), []
    totals, root_s, csv_bytes, evals, names = {}, 0.0, 0, 0, []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        plain_calls, traced_calls = workload.trace_pair()
        run_pass(plain_calls, untraced)
        tr = tracer.Tracer()
        run_pass(traced_calls, traced, tr)
        names = tr.names
        agg = tracer.aggregate(tr.spans)
        root_s += agg["root_s"]
        for name, entry in agg["functions"].items():
            into = totals.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        evals += tracer.count_under(tr.spans, "params.derive", "sweep.critical_temperature")
        csv_bytes += sum(os.path.getsize(c.out) for c in traced_calls if c.out)
        if workload.workers > 1:
            run_pass(workload.pass_calls(), parallel)
        laps.append(time.perf_counter() - start)
        if not keep_going(deadline, laps, quick):
            break
    rounds = len(traced.walls)
    traced_wall = sum(traced.walls)
    serial_s = statistics.median(untraced.walls)
    parallel_s = statistics.median(parallel.walls) if parallel.walls else serial_s

    def fn(name):
        return totals.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    functions = {}
    for name in names:
        entry = fn(name)
        functions[name] = {
            "calls": entry["calls"] / rounds,
            "self_s": entry["self_s"] / rounds,
            "us_per_call": 1e6 * entry["incl_s"] / entry["calls"] if entry["calls"] else 0.0,
            "share": entry["self_s"] / traced_wall,
            "incl_share": entry["incl_s"] / traced_wall,
        }
    modules = sorted({name.split(".", 1)[0] for name in names})
    metrics = {}
    for name in LAYER_FUNCTIONS:
        if name in functions:
            for stat, _ in FUNCTION_STATS:
                metrics[f"{name}.{stat}"] = functions[name][stat]
    for module in modules:
        own = [v for k, v in functions.items() if k.split(".", 1)[0] == module]
        metrics[f"{module}.self_s"] = sum(v["self_s"] for v in own)
        metrics[f"{module}.share"] = sum(v["self_s"] for v in own) * rounds / traced_wall
    metrics["trace.overhead_s"] = statistics.median(traced.walls) - serial_s
    metrics["trace.unattributed_share"] = (traced_wall - root_s) / traced_wall
    if "sweep.write_csv" in functions:
        write = fn("sweep.write_csv")
        metrics["sweep.write_csv.bytes"] = csv_bytes / rounds
        metrics["sweep.write_csv.mb_per_s"] = (
            csv_bytes / write["incl_s"] / 1e6 if write["incl_s"] else 0.0
        )
    if "sweep.critical_temperature" in functions and "params.derive" in functions:
        searches = fn("sweep.critical_temperature")["calls"]
        metrics["sweep.critical_temperature.evals_per_search"] = (
            evals / searches if searches else 0.0
        )
    workers = workload.workers
    metrics["sweep.pool.overhead_s"] = parallel_s - serial_s / workers
    metrics["sweep.pool.parallel_efficiency"] = serial_s / (workers * parallel_s)
    if "dynamics.steady_covariance" in functions:
        cov = fn("dynamics.steady_covariance")
        metrics["dynamics.steady_covariance.mflops_computed"] = (
            cov["calls"] * SOLVE_FLOPS / cov["incl_s"] / 1e6 if cov["incl_s"] else 0.0
        )
    extra = {
        "rounds": rounds,
        "untraced_pass_s": untraced.walls,
        "traced_pass_s": traced.walls,
        "parallel_pass_s": parallel.walls,
        "trace_overhead_share": metrics["trace.overhead_s"] / serial_s,
        "functions": functions,
    }
    tallies = (untraced, traced, parallel)
    return metrics, extra, modules, tallies


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def print_metrics(metrics: dict, units: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one pass, reduced inputs")
    args = parser.parse_args(argv)

    load_avg = os.getloadavg()
    if not (SRC / "omneg" / "__init__.py").is_file():
        print(f"error: no omneg package under {SRC}", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import omneg
    import workloads

    if not Path(omneg.__file__).resolve().is_relative_to(SRC):
        print(f"error: omneg imported from {omneg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(load_avg)
    setup_times = measure_setup(1 if args.quick else SETUP_REPEATS)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workdir, workloads.nproc(), args.quick
        )
        prelude = Tally()
        run_pass(workload.prelude(), prelude)
        if args.trace:
            metrics, extra, modules, tallies = measure_traced(workload, args.seconds, args.quick)
            units = dict(per_layer_names(modules))
        else:
            tally = measure(workload, args.seconds, args.quick)
            metrics, extra = end_to_end(tally, setup_times, peak_rss_mb())
            units = dict(END_TO_END)
            tallies = (tally,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = prelude.attempted + sum(t.attempted for t in tallies)
    failed = prelude.failed + sum(t.failed for t in tallies)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": extra,
        "workload_info": workload.report(),
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"failed_frac  {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    print_metrics(metrics, units)
    if args.trace:
        functions = extra["functions"]
        largest = sorted(functions, key=lambda k: -functions[k]["incl_share"])[:8]
        print("inclusive share of traced time (with children):")
        for fname in largest:
            print(f"  {fname:<44} {functions[fname]['incl_share']:.3f}")
    print(json.dumps(report["workload_info"], sort_keys=True))
    print(f"full report: {WORK / name}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
