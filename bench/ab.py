#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark: a base commit against
the working tree.

Usage (from the repository root):

    bench/ab.py --base <rev> --workload <name> [--workload <name> ...]
                [--seed 1] [--pairs 10]

It exports <rev> with `git archive` into .ab_build/base/ (the
repository's own worktrees and index are left alone; a later run with
the same base reuses the export and its build). Each side gets its own
CARGO_TARGET_DIR under .ab_build/, where run.py builds it in Release on
its first run. Per workload it then runs N pairs of

    python3 e2ebench/run.py --workload W --seed S --seconds T --trace 0

one on each side, alternating which side goes first, with T the
benchmark's own `run_seconds`, and reads each run's final JSON line. A
run with `correct` false or `failed` > 0 stops the tool (exit 1), and
so do runs from different host shapes (the `host` line: nproc, build
type, compiler; exit 2).

For every end-to-end metric of BENCHMARK.json it prints both medians
with their q1..q3, the ratio change/base, wins/N and two verdicts:

* gain: *improved* when the change wins at least nine tenths of the
  pairs (ties count for neither side) and the medians differ, in the
  better direction, by more than the base's q3 - q1; *regressed* is
  the mirror image; anything else is *unresolved*.
* bound: *within* or *exceeds* the metric's bound on the change of the
  median in the worse direction; *unresolved* when the base's own
  spread, (q3 - q1) / median, exceeds the bound, unless every change
  run beats every base run.

bench/ab_test.py pins both rules on canned samples.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".ab_build"


def quartiles(xs):
    """(q1, median, q3) with linear interpolation between order stats."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def wins(base, change, direction):
    """(change wins, base wins) over the pairs; ties count for neither."""
    won = sum(better(c, b, direction) for b, c in zip(base, change))
    lost = sum(better(b, c, direction) for b, c in zip(base, change))
    return won, lost


def gain_verdict(base, change, direction):
    """improved / regressed / unresolved by the paired rule."""
    won, lost = wins(base, change, direction)
    b1, b_med, b3 = quartiles(base)
    c_med = statistics.median(change)
    gap = abs(c_med - b_med)
    if 10 * won >= 9 * len(base) and better(c_med, b_med, direction) \
            and gap > b3 - b1:
        return "improved"
    if 10 * lost >= 9 * len(base) and better(b_med, c_med, direction) \
            and gap > b3 - b1:
        return "regressed"
    return "unresolved"


def bound_verdict(base, change, direction, bound):
    """within / exceeds / unresolved against BENCHMARK.json's bound."""
    b1, b_med, b3 = quartiles(base)
    c_med = statistics.median(change)
    if b_med == 0:
        return "within" if not better(b_med, c_med, direction) else "exceeds"
    if (b3 - b1) / abs(b_med) > bound:
        every = all(better(c, b, direction) for c in change for b in base)
        return "within" if every else "unresolved"
    worse = (c_med - b_med) / abs(b_med)
    if direction == "higher":
        worse = -worse
    return "exceeds" if worse > bound else "within"


def fail(message, code=1):
    print(f"ab: {message}", file=sys.stderr)
    sys.exit(code)


def run_once(source, build_dir, workload, seed, seconds):
    """One benchmark run; returns (host shape, final JSON record)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=source, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    host = next((json.loads(line[5:]) for line in lines
                 if line.startswith("host ")), None)
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{source}: {workload} printed no result (exit {proc.returncode})")
    if not record.get("correct") or record.get("failed", 1) > 0:
        fail(f"{source}: {workload} seed {seed} run was not correct: "
             f"{lines[-1]}")
    return host, record


def table(workload, seed, samples, spec):
    """The per-metric rows for one workload, as markdown lines."""
    rows = [f"{workload}, seed {seed}, {len(samples['base'])} pairs",
            "",
            "| metric | base median (q1..q3) | change median (q1..q3) "
            "| ratio | wins | gain | bound |",
            "|---|---|---|---|---|---|---|"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in samples["base"]
                if name in r["metrics"]]
        change = [r["metrics"][name]["value"] for r in samples["change"]
                  if name in r["metrics"]]
        if not base or len(base) != len(change):
            continue
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        won, _ = wins(base, change, metric["better"])
        ratio = f"{cm / bm:.3f}" if bm else "n/a"
        rows.append(
            f"| {name} | {bm:.4g} ({b1:.4g}..{b3:.4g}) "
            f"| {cm:.4g} ({c1:.4g}..{c3:.4g}) | {ratio} "
            f"| {won}/{len(base)} "
            f"| {gain_verdict(base, change, metric['better'])} "
            f"| {bound_verdict(base, change, metric['better'], metric['bound'])} |")
    return rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_src = SCRATCH / "base"
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", args.base + "^{commit}"], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    stamp = base_src / ".ab_commit"
    # Re-export only for a new base, so its build stays incremental.
    if not stamp.is_file() or stamp.read_text() != commit:
        shutil.rmtree(base_src, ignore_errors=True)
        shutil.rmtree(SCRATCH / "base-build", ignore_errors=True)
        base_src.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", str(base_src)],
                       input=archive.stdout, check=True)
        stamp.write_text(commit)
    sides = {"base": (base_src, SCRATCH / "base-build"),
             "change": (ROOT, SCRATCH / "change-build")}

    hosts = set()
    for workload in args.workload:
        samples = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for side in order:
                host, record = run_once(*sides[side], workload, args.seed,
                                        spec["run_seconds"])
                hosts.add(json.dumps(host, sort_keys=True))
                if len(hosts) > 1:
                    fail(f"refusing mixed host shapes: {sorted(hosts)}", 2)
                samples[side].append(record)
            print(f"ab: {workload} pair {pair + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)
        print("\n".join(table(workload, args.seed, samples, spec)) + "\n",
              flush=True)
    print(f"host {next(iter(hosts))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
