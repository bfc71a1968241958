#!/usr/bin/env python3
"""Unit test of compare.py's verdict rule: python3 perfbench/test_compare.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare import verdict  # noqa: E402

BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


class VerdictTest(unittest.TestCase):
    def test_same(self):
        new = [100, 99, 101, 100, 98, 102, 100, 99, 101, 100]
        self.assertEqual(verdict(BASE, new, "higher", 0.1)[0], "same")

    def test_better_needs_wins_and_gap(self):
        new = [v * 1.05 for v in BASE]
        self.assertEqual(verdict(BASE, new, "higher", 0.1)[0], "better")
        self.assertEqual(verdict(BASE, new, "lower", 0.1)[0], "worse")

    def test_gap_without_wins_is_same(self):
        # A higher median from a few large wins but mostly losses.
        new = [v - 0.5 for v in BASE[:5]] + [v + 6 for v in BASE[5:]]
        self.assertEqual(verdict(BASE, new, "higher", 0.1)[0], "same")

    def test_regressed_beyond_bound(self):
        new = [v * 0.8 for v in BASE]
        self.assertEqual(verdict(BASE, new, "higher", 0.1)[0], "regressed")

    def test_wide_spread_is_unresolved(self):
        wide = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        new = [v * 0.95 for v in wide]
        self.assertEqual(verdict(wide, new, "higher", 0.1)[0], "unresolved")

    def test_wide_spread_but_separated_resolves(self):
        wide = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        new = [v + 200 for v in wide]
        self.assertEqual(verdict(wide, new, "higher", 0.1)[0], "better")


if __name__ == "__main__":
    unittest.main()
