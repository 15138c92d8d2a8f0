#!/usr/bin/env python3
"""Pins ab.py's two verdict rules on canned samples; builds nothing."""

import importlib.util
import pathlib
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "ab", pathlib.Path(__file__).resolve().parent / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

# Ten base runs with q1..q3 = 98.25..101.75 (spread 3.5 around 100).
BASE = [95, 97, 98, 99, 100, 100, 101, 102, 103, 105]


class QuartilesTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(ab.quartiles(BASE), (98.25, 100.0, 101.75))
        self.assertEqual(ab.quartiles([7.0]), (7.0, 7.0, 7.0))


class GainVerdictTest(unittest.TestCase):
    def test_nine_wins_and_a_gap_beyond_the_base_spread_improve(self):
        change = [b - 10 for b in BASE]
        change[3] = 200  # one loss of ten is allowed
        self.assertEqual(ab.wins(BASE, change, "lower"), (9, 1))
        self.assertEqual(ab.gain_verdict(BASE, change, "lower"), "improved")

    def test_eight_wins_are_unresolved(self):
        change = [b - 10 for b in BASE]
        change[3] = change[7] = 200
        self.assertEqual(ab.gain_verdict(BASE, change, "lower"), "unresolved")

    def test_ties_count_for_neither_side(self):
        change = [b - 10 for b in BASE]
        change[0] = BASE[0]
        self.assertEqual(ab.wins(BASE, change, "lower"), (9, 0))
        self.assertEqual(ab.gain_verdict(BASE, change, "lower"), "improved")

    def test_a_gap_inside_the_base_spread_is_unresolved(self):
        change = [b - 3 for b in BASE]  # wins 10/10, gap 3 < 3.5
        self.assertEqual(ab.wins(BASE, change, "lower"), (10, 0))
        self.assertEqual(ab.gain_verdict(BASE, change, "lower"), "unresolved")

    def test_the_mirror_regresses(self):
        change = [b + 10 for b in BASE]
        self.assertEqual(ab.gain_verdict(BASE, change, "lower"), "regressed")
        self.assertEqual(ab.gain_verdict(BASE, change, "higher"), "improved")


class BoundVerdictTest(unittest.TestCase):
    def test_within_and_beyond_the_bound(self):
        self.assertEqual(
            ab.bound_verdict(BASE, [b * 1.2 for b in BASE], "lower", 0.25),
            "within")
        self.assertEqual(
            ab.bound_verdict(BASE, [b * 1.3 for b in BASE], "lower", 0.25),
            "exceeds")
        self.assertEqual(
            ab.bound_verdict(BASE, [b * 0.7 for b in BASE], "higher", 0.25),
            "exceeds")
        self.assertEqual(
            ab.bound_verdict(BASE, [b * 2 for b in BASE], "higher", 0.25),
            "within")

    def test_a_base_spread_wider_than_the_bound_is_unresolved(self):
        wide = [50, 60, 70, 80, 100, 100, 120, 130, 140, 150]  # spread 0.55
        self.assertEqual(ab.bound_verdict(wide, wide, "lower", 0.25),
                         "unresolved")

    def test_unless_every_change_run_beats_every_base_run(self):
        wide = [50, 60, 70, 80, 100, 100, 120, 130, 140, 150]
        self.assertEqual(
            ab.bound_verdict(wide, [40] * 10, "lower", 0.25), "within")
        self.assertEqual(
            ab.bound_verdict(wide, [40] * 9 + [55], "lower", 0.25),
            "unresolved")


if __name__ == "__main__":
    unittest.main()
