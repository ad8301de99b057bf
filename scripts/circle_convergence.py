#!/usr/bin/env python3
"""Truncation error of open-lattice generating-operator elements vs Bessel values.

Prints one CSV row per (order, N) with the raw error, the resolved error
(zero when below the double-precision measurement floor), and whether the
element sits too close to the lattice edge to trust.

Example:
    python scripts/circle_convergence.py --x 6.0 --N 8,12,16,24 --orders 0,1,3
"""

import argparse
import sys

from superhyp.circle import convergence_study
from superhyp.cli import EXIT_DOMAIN, parse_complex, parse_int_grid
from superhyp.errors import DomainError


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--x", type=float, default=6.0)
    parser.add_argument("--w", type=parse_complex, default=1.0 + 0j)
    parser.add_argument("--N", type=parse_int_grid, default="8,12,16,24", help="increasing grid")
    parser.add_argument("--orders", type=parse_int_grid, default="0,1,3", help="grid of m-k offsets")
    args = parser.parse_args()

    try:
        studies = [(order, convergence_study(args.N, args.x, args.w, order)) for order in args.orders]
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print("order,N,error,resolved,boundary_limited")
    for order, points in studies:
        for point in points:
            print(
                f"{order},{point.N},{point.error!r},{point.resolved!r},"
                f"{point.boundary_limited}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
