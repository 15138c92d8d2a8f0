#!/usr/bin/env python3
"""Exit-code tests for the benchmark regression gate.

Writes small google-benchmark JSON reports into a temporary directory
and runs bench/check_regression.py on them with --strict, checking the
exit code of each case: 0 when nothing regressed, 1 on a gated
regression, 2 when the two sides come from different (or unrecorded)
host shapes. Needs no build: run it directly, or through ctest
(`ctest -L bench`).
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent / "check_regression.py"
MISSING = object()


def report(rows, num_cpus=4):
    """A google-benchmark report; rows are (name, real_time_ms) pairs."""
    context = {} if num_cpus is MISSING else {"num_cpus": num_cpus}
    return {
        "context": context,
        "benchmarks": [
            {"name": name, "run_type": "iteration", "real_time": ms,
             "time_unit": "ms"}
            for name, ms in rows
        ],
    }


class CheckRegressionExitCodes(unittest.TestCase):
    def run_gate(self, baseline, fresh, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = pathlib.Path(tmp, "baseline")
            fresh_dir = pathlib.Path(tmp, "fresh")
            base_dir.mkdir()
            fresh_dir.mkdir()
            (base_dir / "BENCH_suite.json").write_text(json.dumps(baseline))
            (fresh_dir / "BENCH_suite.json").write_text(json.dumps(fresh))
            env = dict(os.environ)
            env.pop("OODBSEC_QUIET_BENCH", None)
            proc = subprocess.run(
                [sys.executable, str(SCRIPT), "--strict",
                 "--baseline-dir", str(base_dir),
                 "--fresh-dir", str(fresh_dir), *extra],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                env=env)
            return proc.returncode, proc.stdout

    def assert_exit(self, expected, baseline, fresh, *extra):
        code, output = self.run_gate(baseline, fresh, *extra)
        self.assertEqual(code, expected, output)

    def test_within_bound_passes(self):
        self.assert_exit(0, report([("BM_A", 10.0), ("BM_B", 20.0)]),
                         report([("BM_A", 10.5), ("BM_B", 19.0)]))

    def test_row_twenty_percent_slower_fails(self):
        self.assert_exit(1, report([("BM_A", 10.0), ("BM_B", 20.0)]),
                         report([("BM_A", 12.0), ("BM_B", 20.0)]),
                         "--floor-ms", "1")

    def test_differing_num_cpus_refuses(self):
        self.assert_exit(2, report([("BM_A", 10.0)], num_cpus=1),
                         report([("BM_A", 10.0)], num_cpus=4))

    def test_missing_num_cpus_refuses(self):
        self.assert_exit(2, report([("BM_A", 10.0)], num_cpus=MISSING),
                         report([("BM_A", 10.0)]))
        self.assert_exit(2, report([("BM_A", 10.0)]),
                         report([("BM_A", 10.0)], num_cpus=MISSING))

    def test_sub_floor_row_is_not_gated(self):
        self.assert_exit(0, report([("BM_Tiny", 0.2), ("BM_A", 10.0)]),
                         report([("BM_Tiny", 0.3), ("BM_A", 10.0)]),
                         "--floor-ms", "1")

    def test_row_only_in_fresh_run_passes(self):
        self.assert_exit(0, report([("BM_A", 10.0)]),
                         report([("BM_A", 10.0), ("BM_New", 99.0)]))

    def test_repeated_rows_compare_by_minimum(self):
        # The fresh run's first, last and mean rows (30, 30, 23.5 ms) are
        # all far over the 10% bound; only its minimum (10.5 ms against
        # the baseline's 10.0 ms) is within it.
        baseline = report([("BM_A", 12.0), ("BM_A", 10.0)])
        self.assert_exit(0, baseline,
                         report([("BM_A", 30.0), ("BM_A", 10.5),
                                 ("BM_A", 30.0)]))
        # And a slow minimum still fails: 11.5 ms is +15%.
        self.assert_exit(1, baseline,
                         report([("BM_A", 11.5), ("BM_A", 12.0)]))


if __name__ == "__main__":
    unittest.main()
