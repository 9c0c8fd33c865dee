#!/usr/bin/env python3
"""Convergence of the singularity probability Q(n, p**mu) as n grows.

Prints exact Q values against the rigorous limit enclosure and the
a-priori interval [q^mu, q^mu/(1-q)].

Usage: python scripts/limit_convergence.py [--p 2] [--mu 1] [--n-max 40]
"""

import argparse
from fractions import Fraction

from symrank.prob import limit_interval, probability, q_limit


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--mu", type=int, default=1)
    ap.add_argument("--n-max", type=int, default=40)
    args = ap.parse_args()

    m = args.p**args.mu
    enc = q_limit(args.p, args.mu, Fraction(1, 10**12))
    box = limit_interval(args.p, args.mu)
    print(f"p={args.p} mu={args.mu}: lim Q in [{float(enc.lower):.12f}, {float(enc.upper):.12f}]")
    print(f"a-priori interval [q^mu, q^mu/(1-q)] = [{box.lower}, {box.upper}]")
    n = 1
    while n <= args.n_max:
        q_n = probability(n, m).value_Q
        gap = enc.lower - q_n
        print(f"n={n:>3}: Q = {float(q_n):.12f}  gap to limit ~ {float(gap):.3e}")
        n *= 2
    print("Q increases to the limit; the gap shrinks like q^n.")


if __name__ == "__main__":
    main()
