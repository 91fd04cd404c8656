#!/usr/bin/env python3
"""Run the whole identity catalog at desk scale and write a JSON report.

Covers the documented grid: vanishing/Kostant/Schur-Weyl sweeps, the series
identities at three block sizes, the determinant identities, the multiset
expansion identities, ten seeded Grassmann points per block size for the
eigenvalue correspondence, the diagonal specialization and the chain-coefficient
oracle: every family of `verify.CHECK_FAMILIES`.
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
    ("schur-weyl", 1, 1, 4, {}),
    ("schur-weyl", 2, 1, 3, {}),
    ("littlewood1", 1, 1, 2, {}),
    ("littlewood1", 2, 1, 3, {}),
    ("littlewood2", 1, 1, 4, {}),
    ("littlewood2", 2, 1, 4, {}),
    ("lmw", 1, 1, 4, {}),
    ("lmw", 2, 1, 4, {}),
    ("macmahon", 1, 1, 4, {"order": 4}),
    ("macmahon", 2, 1, 3, {"order": 3}),
    ("macmahon", 2, 2, 3, {"order": 3}),
    ("newton", 1, 1, 4, {"order": 4}),
    ("newton", 2, 1, 3, {"order": 3}),
    ("newton", 2, 2, 3, {"order": 3}),
    ("goulden-jackson", 1, 1, 4, {}),
    ("goulden-jackson", 2, 1, 3, {}),
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20240613)
    parser.add_argument("--trials", type=int, default=10)
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
    for name, m, n, max_r, extra in GRID:
        reports = sweep(
            name, m, n, max_r,
            order=extra.get("order", 3), seed=args.seed, trials=args.trials,
        )
        passed = sum(r.passed for r in reports)
        vacuous = sum(r.vacuous for r in reports)
        cases = sum(r.cases for r in reports)
        flag = "FAIL" if passed < len(reports) else "vacuous" if vacuous else "ok"
        print(f"[{flag:<7}] {name:16s} (m={m}, n={n}, max_r={max_r}) "
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
