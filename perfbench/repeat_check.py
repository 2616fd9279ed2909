"""Check that the traced counts repeat exactly across two runs of one seed.

    python3 perfbench/repeat_check.py --seed 3 --seconds 10

Runs ``run.py --workload all --trace 1`` twice, each workload in a fresh
process, and compares every metric whose unit is a count (count, B, ratio).
Exits 1 and names the metric when any differs.
"""
from __future__ import annotations

import argparse
import sys

import run

COUNT_UNITS = ("count", "B", "ratio")


def counts(result: dict) -> dict:
    if not result["correct"]:
        raise SystemExit("a traced run reported incorrect output")
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    run.require_sources()
    first = counts(run.run_all(args.seed, args.seconds, trace=True))
    second = counts(run.run_all(args.seed, args.seconds, trace=True))
    differ = sorted(k for k in first.keys() | second.keys()
                    if first.get(k) != second.get(k))
    for key in differ:
        print(f"{key}: {first.get(key)} != {second.get(key)}")
    print(f"{len(first)} counts over every workload, {len(differ)} differ")
    return int(bool(differ))


if __name__ == "__main__":
    sys.exit(main())
