"""otclu benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table

Each workload runs in its own child process (`worker.py`). A child does a
fixed amount of work, sized from S so that it takes about S seconds at the
speed the library had when this benchmark was written (UNIT_S): whole
`pretrain` calls, or passes over the cluster input files. Fixed work makes
the counts of attempted and failed operations depend on the seed and S only.
With --trace 0 one child runs the work sized for S seconds and the
end-to-end metrics are printed. With --trace 1 an untraced child and a
traced child each run the work sized for S/2 seconds; the per-layer metrics
come from the traced child, and the gap between the two is the tracing
overhead. Lines starting with '#' describe
the run; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Raw samples, counts and spans are
written under .bench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("pretrain-paper", "pretrain-small", "cluster-files")
TIME_LIMIT_S = 170.0
IMPORT_REPEATS = 3
# Seconds one unit of work took when this benchmark was written (2-vCPU VM,
# see NOTES.md): a `pretrain` call that aborts after 16-19 epochs, a call
# that aborts after 10-13 epochs, a pass over the nine cluster files.
UNIT_S = {"pretrain-paper": 22.0, "pretrain-small": 1.25, "cluster-files": 2.7}
# An end-to-end pretrain-paper run makes two calls, so that the tail (the
# 11th slowest of 21 or more epochs) sits at or above the median.
MIN_UNITS = {"pretrain-paper": 2}
IMPORT_PROBE = ("import time; start = time.perf_counter(); import otclu.cli; "
                "print(time.perf_counter() - start)")

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("clouds_per_s", "1/s", "higher"),
    ("cluster_ms_p50", "ms", "lower"),
    ("cluster_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("marginal_residual_digits", "digits", "higher"),
)


class BenchError(RuntimeError):
    pass


def per_layer_specs():
    specs = []
    for span in SPANS:
        specs += [(f"{span}_ms", "ms", "lower"), (f"{span}.calls", "calls/op", "lower"),
                  (f"{span}.share", "frac", "lower")]
    specs += [("cloud.load_cloud_mb_per_s", "MB/s", "higher"),
              ("clustering.cost_spread_over_eps_max", "ratio", "lower"),
              ("trace_overhead_frac", "frac", "lower")]
    return specs


def import_seconds(deadline: float) -> float:
    """Median time to import the library in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        try:
            done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT / "src",
                                  capture_output=True, text=True, check=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"importing the library failed: {exc}") from None
        times.append(float(done.stdout))
    return statistics.median(times)


def units(workload: str, seconds: float, trace: int) -> int:
    """Units of work that take about `seconds` at the reference speed."""
    least = 1 if trace else MIN_UNITS.get(workload, 1)
    return max(least, round(seconds / UNIT_S[workload]))


def spawn(workload: str, seed: int, units: int, trace: int, deadline: float) -> dict:
    """Run one workload in a child process and return its raw result."""
    stem = f"{workload}-seed{seed}-trace{trace}"
    result = RUNS / f"{stem}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--units", str(units),
           "--trace", str(trace), "--result", str(result)]
    if trace:
        cmd += ["--spans", str(RUNS / f"{stem}-spans.json.gz")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{workload} worker exited with code {code}")
    return json.loads(result.read_text())


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def end_to_end(raw: dict, import_s: float) -> dict:
    if not raw["op_ms"]:
        raise BenchError(f"{raw['workload']}: no operation completed")
    return {
        "setup_s": import_s + statistics.median(raw["setup_s"]),
        "clouds_per_s": raw["clouds"] / raw["busy_s"],
        "cluster_ms_p50": statistics.median(raw["op_ms"]),
        "cluster_ms_tail": tail(raw["op_ms"])[0],
        "peak_rss_mb": raw["peak_rss_mb"],
        "marginal_residual_digits": -math.log10(max(raw["residual_max"], sys.float_info.min)),
    }


def per_layer(base: dict, traced: dict) -> dict:
    out = {}
    ops = max(traced["started"], 1)
    for span, stats in traced["layers"].items():
        out[f"{span}_ms"] = stats["median_ms"]
        out[f"{span}.calls"] = stats["calls"] / ops
        out[f"{span}.share"] = stats["self_s"] / traced["wall_s"]
    load_s = traced["layers"]["cloud.load_cloud"]["self_s"]
    out["cloud.load_cloud_mb_per_s"] = traced["load_bytes"] / 1e6 / load_s if load_s else 0.0
    out["clustering.cost_spread_over_eps_max"] = traced["spread_over_eps_max"]
    out["trace_overhead_frac"] = (statistics.median(traced["op_ms"])
                                  / statistics.median(base["op_ms"]) - 1.0)
    return out


def describe(workload, seed, seconds, trace, raws, metrics, specs):
    """Human-readable lines, each starting with '#'."""
    last = raws[-1]
    env = last["env"]
    lines = [f"# otclu bench  workload={workload} seed={seed} seconds={seconds} "
             f"units={last['units']} trace={trace}",
             f"# env  nproc={env['nproc']} cpus_usable={env['cpus_usable']} "
             f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
             f"blas_thread_env={env['blas_thread_env'] or 'unset'}",
             f"# inputs_sha256={last['inputs_sha256']}"
             + (f" checkpoint_sha256={last['checkpoint_sha256']}" if "checkpoint_sha256" in last else "")]
    for name, unit, better in specs:
        lines.append(f"#   {name:<40} {metrics[name]:>14.6g} {unit:<8} ({better} is better)")
    attempted = sum(r["attempted"] for r in raws)
    failed = sum(r["failed"] for r in raws)
    op = "epochs" if workload.startswith("pretrain") else "requests"
    lines.append(f"#   {'failed_frac':<40} {failed / attempted:>14.6g} {'frac':<8} (lower is better)"
                 f"  {failed} of {attempted} {op}")
    if not trace:
        _, pct, n = tail(last["op_ms"])
        lines.append(f"#   cluster_ms_tail is p{pct:.1f} of {n} {op}; cluster_ms_* are ms per cloud"
                     f"; marginal_residual_max={last['residual_max']:.6g}")
    reasons = {}
    for raw in raws:
        for reason, count in raw["errors"].items():
            reasons[reason] = reasons.get(reason, 0) + count
    lines += [f"#   failure x{count}: {reason}" for reason, count in reasons.items()]
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    RUNS.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        work = units(workload, seconds / 2, trace)
        base = spawn(workload, seed, work, 0, deadline)
        traced = spawn(workload, seed, work, 1, deadline)
        raws, specs, metrics = [base, traced], per_layer_specs(), per_layer(base, traced)
    else:
        import_s = import_seconds(deadline)
        raws = [spawn(workload, seed, units(workload, seconds, trace), 0, deadline)]
        specs, metrics = END_TO_END, end_to_end(raws[0], import_s)
    for line in describe(workload, seed, seconds, trace, raws, metrics, specs):
        print(line)
    return {
        "correct": all(r["wrong"] == 0 for r in raws),
        "attempted": sum(r["attempted"] for r in raws),
        "failed": sum(r["failed"] for r in raws),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "otclu" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = results[args.workload] if args.workload != "all" else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
