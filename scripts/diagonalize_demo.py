#!/usr/bin/env python3
"""Diagonalize a seeded supermatrix over a Grassmann algebra and show the
eigenvalue correspondence for the normalized immanant sums."""

import argparse
import sys

from superimm.immanants import diagonalize, generator_matrix, normalized_immanant_sum
from superimm.superring import grassmann_algebra
from superimm.supersym import evaluate_two_alphabets, schur_super
from superimm.symgroup import MAX_DEGREE
from superimm.tableaux import partitions
from superimm.verify import random_grassmann_point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--seed", type=int, default=20240613)
    parser.add_argument("--max-r", type=int, default=3)
    args = parser.parse_args(argv)
    try:
        if args.max_r < 1:
            raise ValueError(f"--max-r must be at least 1, got {args.max_r}")
        if args.max_r > MAX_DEGREE:
            raise ValueError(f"--max-r must be at most {MAX_DEGREE}, got {args.max_r}")
        return _demo(args)
    except ValueError as exc:  # every package error is a ValueError
        print(f"diagonalize_demo: error: {exc}", file=sys.stderr)
        return 2


def _demo(args) -> int:
    m, n = args.m, args.n
    point = random_grassmann_point(m, n, args.seed)
    x = generator_matrix(m, n)
    x_point = x.evaluate(point)
    print("matrix at the seeded point:")
    print(x_point)

    result = diagonalize(x_point.transpose())
    print("\neigenvalues (transposed orientation, the one the invariants see):")
    for i, w in enumerate(result["even_eigenvalues"], start=1):
        print(f"  even {i}: {w}")
    for j, w in enumerate(result["odd_eigenvalues"], start=1):
        print(f"  odd  {j}: {w}")
    print("residual exactly zero:", result["residual_zero"])

    target = grassmann_algebra(point.n_units)
    omegas = result["even_eigenvalues"]
    neg_varpis = [-w for w in result["odd_eigenvalues"]]
    print("\nnormalized immanant sums vs Schur values at the eigenvalues:")
    agree = True
    for r in range(1, args.max_r + 1):
        for lam in partitions(r):
            lhs = point.evaluate(normalized_immanant_sum(lam, x))
            rhs = evaluate_two_alphabets(schur_super(lam, m, n), omegas, neg_varpis, target)
            status = "ok" if lhs == rhs else "MISMATCH"
            agree &= lhs == rhs
            print(f"  lambda={lam!s:12s} [{status}] value = {lhs}")
    return 0 if agree and result["residual_zero"] else 1


if __name__ == "__main__":
    sys.exit(main())
