#!/usr/bin/env python3
"""Bench-regression guard: compare freshly generated BENCH_*.json files
against the committed baselines in bench/results/.

Every figure/bench driver emits rows of {"op", "n", "median_ns",
"throughput"} (bench/harness.h BenchJson); a row measured over repetitions
also carries its "p10"/"p90". This tool matches rows by (op, n) across a
baseline directory and a current directory and fails (exit 1) when any
matched row's median_ns regressed by more than its bound: --threshold
(default 0.30 = +30%), widened for a baseline row with a spread to
3 x (p90 - p10) / median when that is larger, so a row is only held to
what its own run-to-run spread can resolve.

Rows are skipped, never failed, when:
  * the file or the (op, n) row exists on only one side (new/retired ops);
  * the baseline median is below --min-ns (sub-microsecond timings are
    dominated by jitter, not by the code under test);
  * both files record a machine (`meta`: nproc, cpu_model) and the machines
    differ — the whole file is reported as incomparable.

Usage:
  tools/bench_diff.py --baseline bench/results --current /tmp/bench-out
  tools/bench_diff.py ... --threshold 0.5 --only BENCH_net_roundtrip.json
"""

import argparse
import json
import pathlib
import sys


def load(path: pathlib.Path):
    """-> ({(op, n): row}, machine or None); last key wins."""
    with open(path) as f:
        doc = json.load(f)
    rows = {(row["op"], row["n"]): row for row in doc.get("rows", [])}
    meta = doc.get("meta")
    machine = (meta.get("nproc"), meta.get("cpu_model")) if meta else None
    return rows, machine


def bound(row, threshold: float) -> float:
    """Allowed regression for a baseline row: max(threshold, 3x its
    relative p10-p90 spread); rows without a spread keep the threshold."""
    if "p10" not in row or "p90" not in row:
        return threshold
    spread = (float(row["p90"]) - float(row["p10"])) / float(row["median_ns"])
    return max(threshold, 3 * spread)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, type=pathlib.Path,
                    help="directory with the committed BENCH_*.json files")
    ap.add_argument("--current", required=True, type=pathlib.Path,
                    help="directory with freshly generated BENCH_*.json files")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="fail when median_ns grows by more than this "
                         "fraction, or by 3x a baseline row's p10-p90 "
                         "spread when that is larger (default: 0.30)")
    ap.add_argument("--min-ns", type=float, default=1000.0,
                    help="ignore rows whose baseline median is below this "
                         "(jitter floor; default: 1000)")
    ap.add_argument("--only", nargs="*", default=None,
                    help="restrict the comparison to these file names")
    args = ap.parse_args()

    current_files = sorted(args.current.glob("BENCH_*.json"))
    if args.only:
        current_files = [f for f in current_files if f.name in set(args.only)]
    if not current_files:
        print(f"bench_diff: no BENCH_*.json files under {args.current}",
              file=sys.stderr)
        return 2

    regressions = []
    compared = 0
    for current_path in current_files:
        baseline_path = args.baseline / current_path.name
        if not baseline_path.exists():
            print(f"  [skip] {current_path.name}: no committed baseline")
            continue
        baseline, base_machine = load(baseline_path)
        current, cur_machine = load(current_path)
        if base_machine and cur_machine and base_machine != cur_machine:
            print(f"  [incomparable] {current_path.name}: baseline from "
                  f"{base_machine}, current from {cur_machine}")
            continue
        for key in sorted(baseline.keys() & current.keys(),
                          key=lambda k: (str(k[0]), k[1])):
            base_ns = float(baseline[key]["median_ns"])
            cur_ns = float(current[key]["median_ns"])
            if base_ns < args.min_ns:
                continue
            compared += 1
            delta = (cur_ns - base_ns) / base_ns
            limit = bound(baseline[key], args.threshold)
            op, n = key
            line = (f"  {current_path.name}: {op} (n={n}) "
                    f"{base_ns:.0f} -> {cur_ns:.0f} ns ({delta:+.1%}, "
                    f"bound +{limit:.0%})")
            if delta > limit:
                regressions.append(line)
                print(line + "  REGRESSION")
            else:
                print(line)

    print(f"bench_diff: compared {compared} rows, "
          f"{len(regressions)} regression(s) beyond their bound")
    if regressions:
        print("\nregressed rows:")
        for line in regressions:
            print(line)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
