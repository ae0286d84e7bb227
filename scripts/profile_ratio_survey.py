#!/usr/bin/env python3
"""Survey the leaf-by-leaf ratio between the two weight profiles.

For each coprime pair, every branch leaf of the scalar profile equals a
signed monomial times (1-a)(1-t) times the matching HHH leaf.  Whether all
leaves of one knot share a single monomial is an open calibration question
for the scalar profile's pass-rule trigger points; this script records the
evidence.  Observed so far: only the single-leaf unknot family (m = 1 or
n = 1) shares a global monomial, and multi-leaf knots spread over several
half-integer q-powers.

    python scripts/profile_ratio_survey.py --max-sum 10
"""

import argparse
from collections import Counter

from khr.dyck import coprime_pairs
from khr.sweep import HHH_PROFILE, TORIC_PROFILE, evaluate_profiles
from khr.verify import leaf_ratio_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-sum", type=int, default=10)
    parser.add_argument("--per-leaf", action="store_true", help="print every leaf ratio")
    args = parser.parse_args()

    shared = 0
    total = 0
    for params in coprime_pairs(args.max_sum):
        if params.m < params.n:
            continue
        report = leaf_ratio_report(params, *evaluate_profiles(params, (HHH_PROFILE, TORIC_PROFILE)))
        total += 1
        shared += report["shares_global_monomial"]
        spread = Counter(leaf["ratio"] for leaf in report["leaves"])
        print(
            f"T({params.m},{params.n}): {len(report['leaves'])} leaves, "
            f"{len(spread)} distinct ratios, "
            f"shared={'yes' if report['shares_global_monomial'] else 'no'}, "
            f"single-interval prediction {report['single_interval_prediction']}"
        )
        if args.per_leaf:
            for leaf in report["leaves"]:
                print(f"    {leaf['path']}: {leaf['ratio']}")
        else:
            listing = ", ".join(f"{r} x{c}" if c > 1 else r for r, c in sorted(spread.items()))
            print(f"    ratios: {listing}")
    print(f"\n{shared}/{total} pairs share one global monomial")


if __name__ == "__main__":
    main()
