#!/usr/bin/env python3
"""Tests for tools/bench_diff.py: machines that cannot be compared, the
spread-widened bound, and the plain threshold. Dependency-free:

  python3 tools/bench_diff_test.py
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

TOOL = pathlib.Path(__file__).resolve().parent / "bench_diff.py"
MACHINE = {"nproc": 4, "cpu_model": "Test CPU"}


def write(directory: pathlib.Path, rows, meta=MACHINE,
          name="BENCH_x.json"):
    doc = {"rows": rows}
    if meta is not None:
        doc["meta"] = meta
    (directory / name).write_text(json.dumps(doc))


def row(median_ns, p10=None, p90=None, op="op", n=1):
    out = {"op": op, "n": n, "median_ns": median_ns, "throughput": 0}
    if p10 is not None:
        out["p10"], out["p90"] = p10, p90
    return out


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = pathlib.Path(self._tmp.name)
        self.base = root / "base"
        self.cur = root / "cur"
        self.base.mkdir()
        self.cur.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def diff(self, *extra):
        return subprocess.run(
            [sys.executable, str(TOOL), "--baseline", str(self.base),
             "--current", str(self.cur), *extra],
            capture_output=True, text=True)

    def test_plain_threshold_fails_above_and_passes_below(self):
        write(self.base, [row(10_000)])
        write(self.cur, [row(13_500)])  # +35% > 30%
        self.assertEqual(self.diff().returncode, 1)
        write(self.cur, [row(12_500)])  # +25%
        self.assertEqual(self.diff().returncode, 0)
        self.assertEqual(self.diff("--threshold", "0.2").returncode, 1)

    def test_spread_widens_the_bound(self):
        # p10-p90 spread of 20% of the median: bound 3 x 20% = 60%.
        write(self.base, [row(10_000, p10=9_000, p90=11_000)])
        write(self.cur, [row(15_000)])  # +50%: inside the widened bound
        result = self.diff()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("bound +60%", result.stdout)
        write(self.cur, [row(16_500)])  # +65%: beyond it
        self.assertEqual(self.diff().returncode, 1)

    def test_narrow_spread_keeps_the_threshold(self):
        # 3 x 2% = 6% < 30%: the threshold still applies.
        write(self.base, [row(10_000, p10=9_900, p90=10_100)])
        write(self.cur, [row(13_500)])
        result = self.diff()
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("bound +30%", result.stdout)

    def test_different_machines_are_incomparable(self):
        write(self.base, [row(10_000)])
        write(self.cur, [row(90_000)],
              meta={"nproc": 64, "cpu_model": "Other CPU"})
        result = self.diff()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("[incomparable]", result.stdout)
        self.assertIn("compared 0 rows", result.stdout)

    def test_jitter_floor_skips_tiny_rows(self):
        write(self.base, [row(500)])
        write(self.cur, [row(5_000)])
        result = self.diff()
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("compared 0 rows", result.stdout)


if __name__ == "__main__":
    unittest.main()
