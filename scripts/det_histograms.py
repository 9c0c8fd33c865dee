#!/usr/bin/env python3
"""Empirical determinant-value histograms mod p**mu.

For mu = 1 the value distribution has a closed form (printed alongside);
for mu > 1 no closed form is known, so this prints exact exhaustive counts
as raw data for eyeballing the d-dependence.

Usage: python scripts/det_histograms.py [--p 2] [--mu-max 3] [--n 2]
"""

import argparse
import sys
from fractions import Fraction

from symrank.oracle import exhaustive
from symrank.prob import det_value_prob, q_explicit


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--mu-max", type=int, default=3)
    ap.add_argument("--n", type=int, default=2)
    args = ap.parse_args()

    for mu in range(1, args.mu_max + 1):
        m = args.p**mu
        rep = exhaustive(args.n, m)
        print(f"n={args.n} m={m} (p={args.p}, mu={mu}), {rep.total} matrices")
        for d in sorted(rep.det_histogram):
            frac = Fraction(rep.det_histogram[d], rep.total)
            line = f"  det={d}: {rep.det_histogram[d]:>6} ({frac})"
            if mu == 1:
                formula = q_explicit(args.n, args.p, 1) if d == 0 else det_value_prob(args.n, args.p, d)
                line += f"  closed form {formula}"
            print(line)
        print()


if __name__ == "__main__":
    try:
        main()
    except ValueError as exc:  # bad input or a refused sweep: one line, exit 2
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
