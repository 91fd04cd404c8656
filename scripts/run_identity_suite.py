#!/usr/bin/env python3
"""Run the whole identity catalog at desk scale and write a JSON report.

Covers the documented grid: vanishing/Kostant/Schur-Weyl sweeps, the series
identities at three block sizes, the determinant identities, the multiset
expansion identities, ten seeded Grassmann points per block size for the
eigenvalue correspondence, the diagonal specialization and the chain-coefficient
oracle: every family of `verify.CHECK_FAMILIES`.

`--grid frontier` runs instead the rows beyond that grid that CI checks: larger
block sizes, degrees and orders, each row with the reason it exists.
"""

import argparse
import json
import os
import sys
import time

from superimm.verify import sweep


GRID = [
    ("vanishing", 1, 1, 4, {}),
    ("vanishing", 1, 2, 4, {}),
    ("vanishing", 2, 1, 4, {}),
    ("kostant", 1, 1, 4, {}),
    ("kostant", 2, 1, 3, {}),
    ("kostant", 2, 2, 4, {}),
    ("kostant", 3, 1, 4, {}),
    ("schur-weyl", 1, 1, 4, {}),
    ("schur-weyl", 2, 1, 3, {}),
    ("schur-weyl", 2, 2, 4, {}),
    ("schur-weyl", 3, 1, 4, {}),
    ("littlewood1", 1, 1, 2, {}),
    ("littlewood1", 2, 1, 3, {}),
    ("littlewood2", 1, 1, 4, {}),
    ("littlewood2", 2, 1, 4, {}),
    ("littlewood2", 2, 2, 4, {}),
    ("littlewood2", 3, 1, 4, {}),
    ("lmw", 1, 1, 4, {}),
    ("lmw", 2, 1, 4, {}),
    ("lmw", 2, 2, 4, {}),
    ("lmw", 3, 1, 4, {}),
    ("macmahon", 1, 1, 4, {"order": 4}),
    ("macmahon", 2, 1, 3, {"order": 3}),
    ("macmahon", 2, 2, 3, {"order": 3}),
    ("newton", 1, 1, 4, {"order": 4}),
    ("newton", 2, 1, 3, {"order": 3}),
    ("newton", 2, 2, 3, {"order": 3}),
    ("goulden-jackson", 1, 1, 4, {}),
    ("goulden-jackson", 2, 1, 3, {}),
    ("goulden-jackson", 2, 2, 4, {}),
    ("goulden-jackson", 3, 1, 4, {}),
    ("berezinian", 1, 1, 3, {"order": 3}),
    ("berezinian", 2, 1, 3, {"order": 3}),
    ("berezinian", 1, 2, 3, {"order": 3}),
    ("berezinian", 2, 2, 3, {"order": 3}),
    ("littlewood3", 1, 1, 3, {}),
    ("littlewood3", 2, 1, 3, {}),
    ("hessenberg", 1, 1, 3, {}),
    ("hessenberg", 2, 1, 3, {}),
    ("phi-isomorphism", 2, 1, 3, {}),
    ("chain-oracle", 2, 1, 3, {}),
]

_OFF_HOOK = ("the off-hook shape (2,2,2) first appears at (2|1) in degree 6, and degree 7 "
             "adds (3,2,2) and (2,2,2,1); both families apply each E_T factor by factor")
_MAX_DEGREE = ("degree 8 is symgroup.MAX_DEGREE, where a built E_T would have up to 8! "
               "terms; the idempotent families apply its Jucys-Murphy factors instead")
_SERIES = ("the characteristic series against the column immanant sums "
           "beyond GRID's order 3")
_POWER_SUMS = ("the normalized immanant sums are built from power traces (the super "
               "Frobenius formula); at degree 5 they meet the Jacobi-Trudi determinants, "
               "the idempotent supertrace and the Schur polynomials")
_POINTS = "the eigenvalue correspondence at the blocks of perfbench's points workload"

# (family, m, n, max_r, extra) beyond GRID, each with the reason it is run;
# no row repeats a GRID row
FRONTIER = [
    ("kostant", 2, 1, 7, {"reason": _OFF_HOOK}),
    ("schur-weyl", 2, 1, 7, {"reason": _OFF_HOOK}),
    ("kostant", 1, 1, 8, {"reason": _MAX_DEGREE}),
    ("schur-weyl", 1, 1, 8, {"reason": _MAX_DEGREE}),
    ("goulden-jackson", 1, 1, 8, {"reason": _MAX_DEGREE}),
    ("vanishing", 2, 1, 6, {"reason": "vanishing first has cases at (2|1) for the shape "
                                      "(2,2,2), so r runs to 6"}),
    ("lmw", 2, 2, 5, {"reason": "lmw at (2|2) r <= 5 reads its row and column tables "
                                "from one memo"}),
    ("berezinian", 2, 2, 3, {"order": 5, "reason": _SERIES + ", at a 2x2 odd block"}),
    ("berezinian", 1, 3, 3, {"order": 5, "reason": _SERIES + ", at a 1x3 odd block"}),
    ("newton", 2, 2, 3, {"order": 6, "reason": "power traces to k = 6 at a 2x2 odd block, "
                                               "both parities of k, on the split route that "
                                               "reads one diagonal of Y * Z"}),
    ("hessenberg", 2, 2, 5, {"reason": "power traces at a 2x2 odd block to k = 5; GRID "
                                       "reaches k = 4 only at (1|1)"}),
    ("goulden-jackson", 3, 1, 5, {"reason": _POWER_SUMS}),
    ("phi-isomorphism", 2, 2, 5, {"reason": _POWER_SUMS}),
    ("littlewood3", 2, 2, 3, {"reason": _POINTS}),
    ("littlewood3", 3, 1, 3, {"reason": _POINTS}),
]

# the families that read the order, not max_r
BY_ORDER = ("macmahon", "newton", "berezinian")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20240613)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--grid", choices=("suite", "frontier"), default="suite")
    parser.add_argument("--out", default="identity_suite_report.json")
    args = parser.parse_args(argv)
    try:
        with open(args.out, "w", encoding="utf-8") as out:  # a bad path fails before any sweep
            try:
                return _run(args, out)
            except BaseException:  # no reports: leave no empty file behind
                os.remove(args.out)
                raise
    except (ValueError, OSError) as exc:  # a package error or an unwritable --out path
        print(f"run_identity_suite: error: {exc}", file=sys.stderr)
        return 2


def _run(args, out) -> int:
    all_reports = []
    start = time.perf_counter()
    for name, m, n, max_r, extra in GRID if args.grid == "suite" else FRONTIER:
        row_start = time.perf_counter()
        order = extra.get("order", 3)
        reports = sweep(name, m, n, max_r, order=order, seed=args.seed, trials=args.trials)
        passed = sum(r.passed for r in reports)
        vacuous = sum(r.vacuous for r in reports)
        cases = sum(r.cases for r in reports)
        flag = "FAIL" if passed < len(reports) else "vacuous" if vacuous else "ok"
        size = f"order={order}" if name in BY_ORDER else f"max_r={max_r}"
        print(f"[{flag:<7}] {name:16s} (m={m}, n={n}, {size}) "
              f"{time.perf_counter() - row_start:6.2f}s "
              f"{passed - vacuous}/{len(reports)} checks, {vacuous} vacuous, {cases} cases")
        all_reports.extend(reports)
    elapsed = time.perf_counter() - start

    failures = [r for r in all_reports if not r.passed]
    vacuous = sum(r.vacuous for r in all_reports)
    json.dump([r.to_dict() for r in all_reports], out, indent=2, sort_keys=True)
    out.close()
    print(f"\n{len(all_reports) - len(failures) - vacuous}/{len(all_reports)} checks passed, "
          f"{vacuous} vacuous (0 cases), {len(failures)} failed "
          f"in {elapsed:.1f}s; report written to {args.out}")
    for rep in failures:
        print(f"  FAILED {rep.name} {rep.params}: {rep.witness}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
