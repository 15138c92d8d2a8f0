#!/usr/bin/env python3
"""oodbsec end-to-end benchmark runner.

Run from the repository root:

  python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Builds the benchmark (Release, CMake) into $CARGO_TARGET_DIR or
      .bench_build/, then runs one measurement. The last stdout line is the
      JSON result; the full record, host shape included, is written to
      .bench_results/<workload>-seed<n>-trace<t>.json.

  python3 e2ebench/run.py smoke
      Runs every workload at smoke size (seconds, not minutes), traced and
      untraced, and checks that each prints every metric of BENCHMARK.json
      with its unit and passes its correctness checks.

  python3 e2ebench/run.py compare <base-record> <new-record>...
      Compares records of the same workload against the bounds in
      BENCHMARK.json. Refuses records from different host shapes (nproc,
      build type, compiler) and non-Release records.
"""
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["audit_deep", "audit_wide", "guard_stream", "policy_churn"]


def die_with_parent():
    """Runs in the benchmark child: it is killed if this script dies."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("oodbsec sources (src/) not found next to the benchmark")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "e2ebench")


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    binary = build()
    spec = load_spec()
    names = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [binary, "--workload", workload, "--seed", "1", "--seconds",
                 "1", "--trace", str(trace), "--smoke"],
                stdout=subprocess.PIPE, text=True, timeout=170,
                preexec_fn=die_with_parent)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            missing = [n for n, unit in names[trace].items()
                       if metrics.get(n, {}).get("unit") != unit]
            ok = proc.returncode == 0 and result.get("correct") and not missing
            failures += not ok
            print(f"{workload:14s} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} "
                  f"({result.get('attempted', 0)} checks"
                  f"{', missing ' + ', '.join(missing) if missing else ''})")
    sys.exit(1 if failures else 0)


def compare(paths):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    base = records[0]
    for record in records:
        if record["host"]["build_type"] != "Release":
            fail(f"refusing a {record['host']['build_type']} record")
        if record["host"] != base["host"]:
            fail(f"refusing to compare host shapes {base['host']} and "
                 f"{record['host']}")
        if record["workload"] != base["workload"]:
            fail("records are of different workloads")
    for record in records[1:]:
        print(f"{record['workload']}: seed {base['seed']} -> {record['seed']}")
        for name, metric in bounds.items():
            old = base["metrics"].get(name, {}).get("value")
            new = record["metrics"].get(name, {}).get("value")
            if not old or new is None:
                continue
            change = (new - old) / old
            worse = change if metric["better"] == "lower" else -change
            flag = "REGRESSION" if worse > metric["bound"] else ""
            print(f"  {name:16s} {old:14.6g} -> {new:14.6g} "
                  f"{100 * change:+7.1f}% {flag}")


def main(argv):
    if argv[:1] == ["smoke"]:
        smoke()
    if argv[:1] == ["compare"]:
        if len(argv) < 3:
            fail("compare needs at least two records")
        compare(argv[1:])
        return 0
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary] + argv, preexec_fn=die_with_parent).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
