#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a fresh google-benchmark JSON run against the committed
BENCH_*.json baselines and fails when any benchmark's real_time
regressed by more than the threshold (default 15%).

Usage:
    bench/check_regression.py --fresh-dir <dir> [--baseline-dir <dir>]
                              [--threshold-pct 15] [--strict] [SUITE ...]

SUITE names are the bare suite part (static_closure, batch_service);
without any, every BENCH_*.json in the baseline dir that also exists in
the fresh dir is compared. Benchmarks present on only one side are
reported but never fail the gate (new benchmarks land before their
baseline does); aggregate rows (mean/median/stddev) are ignored, and
benchmarks whose baseline runs under --floor-ms (default 1ms) are
reported but never gated — at sub-millisecond durations scheduler
jitter alone exceeds any percentage threshold.

On shared machines the *effective* CPU speed drifts between measurement
windows (neighbours, frequency scaling), shifting every benchmark in a
run by the same factor. The gate therefore normalizes each suite by the
median fresh/baseline ratio before applying the threshold: uniform
drift cancels, while a genuine code regression stands out against the
rest of the suite. The printed table shows both the raw delta and the
drift-corrected one; a change that slows the *whole* suite uniformly is
exactly what the raw column is there to catch by eye. Pass
--no-drift-correction on dedicated quiet hardware.

On such quiet hardware the drift correction is not just unnecessary, it
actively masks uniform regressions, and 15% is too forgiving. --strict
gates on raw deltas at a 10% threshold; setting OODBSEC_QUIET_BENCH=1
in the environment implies --strict, so CI runners on dedicated
machines opt the whole bench_check target in without touching CMake.
An explicit --threshold-pct still wins over the strict default.

The committed baselines and the fresh run must both come from Release
builds (run_bench_json.sh enforces this) and from the same host shape:
the gate reads google-benchmark's `context.num_cpus` on both sides and
refuses to compare (exit 2) when they differ or either side lacks it.
A baseline recorded on another shape has to be re-recorded
(`bench_record`), not compared.
"""

import argparse
import json
import os
import pathlib
import statistics
import sys

STRICT_THRESHOLD_PCT = 10.0


def load_num_cpus(path):
    """Returns the host's CPU count recorded in a report's context, or None."""
    with open(path) as fp:
        return json.load(fp).get("context", {}).get("num_cpus")


def load_results(path):
    """Returns {benchmark name: real_time in ns} for one JSON report.

    With --benchmark_repetitions the report carries one row per
    repetition under the same name; the minimum is kept — scheduling
    noise on a shared machine only ever adds time, so min-of-reps is the
    noise-robust estimate of the true cost.
    """
    with open(path) as fp:
        report = json.load(fp)
    results = {}
    for bench in report.get("benchmarks", []):
        # Skip repetition aggregates; compare the raw iterations rows.
        if bench.get("run_type") == "aggregate":
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        ns = bench["real_time"] * scale
        results[bench["name"]] = min(results.get(bench["name"], ns), ns)
    return results


def compare(name, baseline, fresh, threshold_pct, floor_ms, drift_correct):
    """Prints a per-benchmark table; returns the list of regressions."""
    shared = [n for n in baseline if n in fresh and baseline[n] > 0]
    drift = 1.0
    if drift_correct and shared:
        drift = statistics.median(fresh[n] / baseline[n] for n in shared)
    regressions = []
    width = max((len(n) for n in baseline), default=20)
    print(f"== {name} (run-wide drift {100.0 * (drift - 1.0):+.1f}%)")
    for bench_name in sorted(baseline):
        if bench_name not in fresh:
            print(f"   {bench_name:<{width}}  (missing from fresh run)")
            continue
        base_ns = baseline[bench_name]
        fresh_ns = fresh[bench_name]
        delta_pct = ((fresh_ns - base_ns) / base_ns) * 100.0 if base_ns else 0.0
        corrected_pct = (
            ((fresh_ns / drift - base_ns) / base_ns) * 100.0 if base_ns else 0.0
        )
        flag = ""
        if corrected_pct > threshold_pct:
            if base_ns < floor_ms * 1e6:
                # Sub-floor benchmarks carry absolute jitter larger than
                # any percentage threshold; report, don't gate.
                flag = "  (over threshold, below gating floor)"
            else:
                flag = f"  REGRESSION (> {threshold_pct:g}%)"
                regressions.append((bench_name, corrected_pct))
        print(
            f"   {bench_name:<{width}}  {base_ns / 1e6:10.3f}ms"
            f" -> {fresh_ns / 1e6:10.3f}ms  raw {delta_pct:+7.1f}%"
            f"  corrected {corrected_pct:+7.1f}%{flag}"
        )
    for bench_name in sorted(set(fresh) - set(baseline)):
        print(f"   {bench_name:<{width}}  (new; no baseline yet)")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("suites", nargs="*", help="suite names, e.g. static_closure")
    parser.add_argument("--baseline-dir", default=".", type=pathlib.Path)
    parser.add_argument("--fresh-dir", required=True, type=pathlib.Path)
    parser.add_argument("--threshold-pct", default=None, type=float)
    parser.add_argument(
        "--floor-ms",
        default=1.0,
        type=float,
        help="benchmarks whose baseline is below this are never gated",
    )
    parser.add_argument(
        "--no-drift-correction",
        action="store_true",
        help="gate on raw deltas without median drift normalization",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="quiet-hardware gate: raw deltas, 10%% threshold "
        "(implied by OODBSEC_QUIET_BENCH=1 in the environment)",
    )
    args = parser.parse_args()

    strict = args.strict or os.environ.get("OODBSEC_QUIET_BENCH") == "1"
    if strict:
        args.no_drift_correction = True
    if args.threshold_pct is None:
        args.threshold_pct = STRICT_THRESHOLD_PCT if strict else 15.0
    if strict:
        print(
            "strict mode: raw deltas, "
            f"threshold {args.threshold_pct:g}% (quiet hardware)"
        )

    if args.suites:
        baselines = [args.baseline_dir / f"BENCH_{s}.json" for s in args.suites]
    else:
        baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines under {args.baseline_dir}")
        return 2

    all_regressions = []
    for baseline_path in baselines:
        fresh_path = args.fresh_dir / baseline_path.name
        if not baseline_path.exists():
            print(f"error: baseline {baseline_path} does not exist")
            return 2
        if not fresh_path.exists():
            print(f"== {baseline_path.name}: no fresh run at {fresh_path}, skipped")
            continue
        base_cpus = load_num_cpus(baseline_path)
        fresh_cpus = load_num_cpus(fresh_path)
        if base_cpus is None or fresh_cpus is None or base_cpus != fresh_cpus:
            print(
                f"error: {baseline_path.name}: host shape differs "
                f"(baseline num_cpus={base_cpus}, fresh num_cpus={fresh_cpus});"
                " re-record the baseline on this host with bench_record"
            )
            return 2
        all_regressions += compare(
            baseline_path.name,
            load_results(baseline_path),
            load_results(fresh_path),
            args.threshold_pct,
            args.floor_ms,
            not args.no_drift_correction,
        )

    if all_regressions:
        print(f"\nFAIL: {len(all_regressions)} benchmark(s) regressed:")
        for bench_name, delta_pct in all_regressions:
            print(f"  {bench_name}: {delta_pct:+.1f}%")
        return 1
    print("\nOK: no benchmark regressed beyond the threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
