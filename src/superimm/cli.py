"""Command-line interface.

Subcommands: `imm` (one super-immanant), `schur` (a Schur supersymmetric
polynomial), `berezinian` (characteristic-series coefficients), and `check`
(run an identity family and report pass/fail per case, exit 0 iff all pass).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from superimm.immanants import (
    SuperMatrixError,
    characteristic_coefficients,
    generator_matrix,
    load_supermatrix,
    super_immanant,
)
from superimm.superring import MAX_ORDER, poly_to_terms
from superimm.supersym import jacobi_trudi_grid, schur_super
from superimm.symgroup import MAX_DEGREE
from superimm.verify import CHECK_FAMILIES, sweep

CHECK_NAMES = (*CHECK_FAMILIES, "all")


def _int_at_least(low: int, high: int | None = None):
    """An argparse type: an integer no smaller than `low` and, if `high` is
    given, no larger than it."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _matrix_from_args(args):
    if args.matrix:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            return load_supermatrix(fh.read())
    if args.m is None or args.n is None:
        raise SuperMatrixError("either --matrix FILE or both --m and --n are required")
    return generator_matrix(args.m, args.n)


def _cmd_imm(args) -> int:
    x = _matrix_from_args(args)
    shape = _parse_ints(args.shape)
    rows = _parse_ints(args.rows)
    cols = _parse_ints(args.cols) if args.cols else rows
    value = super_immanant(shape, x, rows, cols)
    print(value)
    if args.json:
        print(json.dumps(poly_to_terms(value)))
    return 0


def _cmd_schur(args) -> int:
    shape = _parse_ints(args.shape)
    if args.form == "jacobi-trudi":  # a skeleton: no block sizes are read
        for row in jacobi_trudi_grid(shape, lambda k: f"S[{k}]"):
            print("  ".join(row))
        return 0
    if args.m is None or args.n is None:
        raise SuperMatrixError("--form expanded needs both --m and --n")
    print(schur_super(shape, args.m, args.n))
    return 0


def _cmd_berezinian(args) -> int:
    x = _matrix_from_args(args)
    coeffs = characteristic_coefficients(x, args.order)
    for k, c in enumerate(coeffs):
        sign = "" if k % 2 == 0 else "-"
        print(f"u^{k}: {sign}({c})")
    return 0


def _cmd_check(args) -> int:
    # --out is opened before the sweep, so a bad path fails before the work does
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as out:
        try:
            reports = sweep(args.name, args.m, args.n, args.max_r,
                            order=args.order, seed=args.seed, trials=args.trials)
        except BaseException:
            if out:  # no reports: leave no empty file behind
                os.remove(args.out)
            raise
        width = max(len(r.name) for r in reports)
        failures = sum(not rep.passed for rep in reports)
        vacuous = sum(rep.vacuous for rep in reports)
        for rep in reports:
            status = "FAIL" if not rep.passed else "vacuous" if rep.vacuous else "pass"
            detail = {k: v for k, v in rep.params.items() if k != "identity"}
            print(f"{rep.name:<{width}}  {status:<7}  cases={rep.cases:<5d} {detail}  "
                  f"{rep.seconds:.3f}s")
            if not rep.passed:
                print(f"  witness: {rep.witness}")
        summary = f"{len(reports) - failures - vacuous}/{len(reports)} checks passed"
        print(summary + (f", {vacuous} vacuous (0 cases)" if vacuous else ""))
        if out:
            json.dump([rep.to_dict() for rep in reports], out, indent=2, sort_keys=True)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superimm",
        description="Exact super-immanant calculus and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_imm = sub.add_parser("imm", help="print one super-immanant")
    p_imm.add_argument("--lambda", dest="shape", required=True, help="partition, e.g. 2,1")
    p_imm.add_argument("--rows", required=True, help="row multi-index, e.g. 1,2,2")
    p_imm.add_argument("--cols", default=None, help="column multi-index (default: rows)")
    p_imm.add_argument("--matrix", default=None, help="matrix document (JSON)")
    p_imm.add_argument("--m", type=_int_at_least(0), default=None)
    p_imm.add_argument("--n", type=_int_at_least(0), default=None)
    p_imm.add_argument("--json", action="store_true", help="also print serialized terms")
    p_imm.set_defaults(func=_cmd_imm)

    p_schur = sub.add_parser("schur", help="print a Schur supersymmetric polynomial")
    p_schur.add_argument("--lambda", dest="shape", required=True)
    p_schur.add_argument("--m", type=_int_at_least(0), default=None)
    p_schur.add_argument("--n", type=_int_at_least(0), default=None)
    p_schur.add_argument("--form", choices=("expanded", "jacobi-trudi"), default="expanded")
    p_schur.set_defaults(func=_cmd_schur)

    p_ber = sub.add_parser("berezinian", help="characteristic-series coefficients")
    p_ber.add_argument("--matrix", default=None, help="matrix document (JSON)")
    p_ber.add_argument("--m", type=_int_at_least(0), default=None)
    p_ber.add_argument("--n", type=_int_at_least(0), default=None)
    p_ber.add_argument("--order", type=_int_at_least(0, MAX_ORDER), required=True)
    p_ber.set_defaults(func=_cmd_berezinian)

    p_check = sub.add_parser("check", help="run an identity family")
    p_check.add_argument("name", choices=CHECK_NAMES)
    p_check.add_argument("--m", type=_int_at_least(0), required=True)
    p_check.add_argument("--n", type=_int_at_least(0), required=True)
    p_check.add_argument("--max-r", type=_int_at_least(1, MAX_DEGREE), default=3)
    p_check.add_argument("--order", type=_int_at_least(1, MAX_ORDER), default=3)
    p_check.add_argument("--seed", type=int, default=20240613,
                         help="seed of the first Littlewood III point")
    p_check.add_argument("--trials", type=_int_at_least(1), default=10,
                         help="number of Littlewood III points")
    p_check.add_argument("--out", default=None, help="write all reports as JSON")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.m == 0 and args.n == 0 and getattr(args, "form", None) != "jacobi-trudi":
        parser.error("block sizes need m + n >= 1")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a package error or a bad --matrix/--out path
        print(f"superimm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
