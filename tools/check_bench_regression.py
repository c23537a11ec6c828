#!/usr/bin/env python3
"""Perf-regression gate over bench_suite's BENCH_*.json documents.

CI runs `bench_suite --smoke`, then compares its records against the
committed baseline at the repository root. A record regresses when its
wall-clock mean exceeds the baseline mean by more than the threshold
factor (default 3x -- smoke runs on shared CI hosts, so the gate only
catches order-of-magnitude breakage such as an accidental O(n^2) path,
not percent-level drift). Records are matched by their `name` field;
names present on only one side are reported and skipped, since the smoke
tier sizes a subset of the full-tier ladder. Stdlib only.

Usage:
  check_bench_regression.py BASELINE.json CANDIDATE.json
                            [BASELINE.json CANDIDATE.json ...] [--threshold 3.0]

Each suite is one BASELINE CANDIDATE pair. Exit status: 0 clean, 1 on any
regression or if a pair shares no record names, 2 on malformed input.
"""

import argparse
import json
import sys


def load_records(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        sys.exit(2)
    records = doc.get("records")
    if not isinstance(records, list):
        print(f"error: {path}: missing 'records' list", file=sys.stderr)
        sys.exit(2)
    out = {}
    for record in records:
        name = record.get("name")
        mean = record.get("wall_ms", {}).get("mean")
        if not isinstance(name, str) or not isinstance(mean, (int, float)):
            print(f"error: {path}: record without name/wall_ms.mean", file=sys.stderr)
            sys.exit(2)
        out[name] = float(mean)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="BASELINE CANDIDATE",
                        help="pairs of a committed BENCH_*.json (the reference) and a freshly "
                             "measured one")
    parser.add_argument("--threshold", type=float, default=3.0,
                        help="fail when candidate mean > threshold * baseline mean "
                             "(default: %(default)s)")
    args = parser.parse_args()
    if args.threshold <= 0:
        parser.error("--threshold must be positive")

    if len(args.files) % 2:
        parser.error("expected BASELINE CANDIDATE pairs")

    baseline, candidate = {}, {}
    for base_path, cand_path in zip(args.files[0::2], args.files[1::2]):
        base, cand = load_records(base_path), load_records(cand_path)
        if not set(base) & set(cand):
            print(f"error: no record names shared between {base_path} and {cand_path}",
                  file=sys.stderr)
            return 1
        baseline.update(base)
        candidate.update(cand)
    shared = sorted(set(baseline) & set(candidate))

    regressions = 0
    width = max(len(name) for name in shared)
    for name in shared:
        ratio = candidate[name] / baseline[name] if baseline[name] > 0 else float("inf")
        verdict = "ok" if ratio <= args.threshold else "REGRESSION"
        if verdict != "ok":
            regressions += 1
        print(f"{name:<{width}}  baseline {baseline[name]:10.3f} ms  "
              f"candidate {candidate[name]:10.3f} ms  x{ratio:6.2f}  {verdict}")
    for name in sorted(set(baseline) ^ set(candidate)):
        side = "baseline" if name in baseline else "candidate"
        print(f"{name:<{width}}  ({side} only, skipped)")

    if regressions:
        print(f"\n{regressions} record(s) regressed past {args.threshold}x", file=sys.stderr)
        return 1
    print(f"\nall {len(shared)} shared record(s) within {args.threshold}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
