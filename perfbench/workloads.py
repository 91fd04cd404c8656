"""The three benchmark workloads: their inputs, their ops and their checks.

Each workload is built by `SETUP[name](seed, reference)`, which returns a
list of `Op`s; `reference` holds the output digests of `reference.json`.  An
op is one closed-loop request: the worker calls `op.run()`, waits for it,
and after the timed body passes the result to `op.check()`, which returns
None when the output is correct and a one-line reason otherwise.

The inputs belong to the benchmark.  The identity-suite grid is a frozen copy
of `scripts/run_identity_suite.py` as it stood when the benchmark was defined,
so that growing the script's grid does not silently change this workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from superimm import immanants, supersym, verify
from superimm.superring import grassmann_algebra, poly_to_terms
from superimm.tableaux import partitions

DEFAULT_SEED = 20240613

# Frozen copy of the identity-suite grid: (family, m, n, max_r, order).
SUITE_GRID = (
    ("vanishing", 1, 1, 4, 3),
    ("vanishing", 1, 2, 4, 3),
    ("vanishing", 2, 1, 4, 3),
    ("kostant", 1, 1, 3, 3),
    ("kostant", 2, 1, 3, 3),
    ("schur-weyl", 1, 1, 3, 3),
    ("schur-weyl", 2, 1, 3, 3),
    ("littlewood1", 1, 1, 2, 3),
    ("littlewood1", 2, 1, 3, 3),
    ("littlewood2", 1, 1, 4, 3),
    ("littlewood2", 2, 1, 4, 3),
    ("lmw", 1, 1, 4, 3),
    ("lmw", 2, 1, 4, 3),
    ("macmahon", 1, 1, 4, 4),
    ("macmahon", 2, 1, 3, 3),
    ("macmahon", 2, 2, 3, 3),
    ("newton", 1, 1, 4, 4),
    ("newton", 2, 1, 3, 3),
    ("newton", 2, 2, 3, 3),
    ("goulden-jackson", 1, 1, 4, 3),
    ("goulden-jackson", 2, 1, 3, 3),
    ("berezinian", 1, 1, 3, 3),
    ("berezinian", 2, 1, 3, 3),
    ("littlewood3", 1, 1, 3, 3),
    ("littlewood3", 2, 1, 3, 3),
    ("hessenberg", 1, 1, 3, 3),
    ("hessenberg", 2, 1, 3, 3),
)
SUITE_TRIALS = 10

SYMBOLIC_BLOCKS = ((2, 2), (3, 1), (2, 1), (1, 2))
POINTS_BLOCKS = ((2, 1), (2, 2), (3, 1))
POINTS_PER_BLOCK = 20
POINTS_MAX_R = 3


@dataclass
class Op:
    """One timed request: `family` groups ops for per-family layer metrics."""

    label: str
    family: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    counts: Callable[[Any], dict] | None = None


def digest(value) -> str:
    """Short content hash of a SuperPoly or a list of them, via the
    library's own deterministic term serialization."""
    if isinstance(value, (list, tuple)):
        doc = [poly_to_terms(v) for v in value]
    else:
        doc = poly_to_terms(value)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# suite: the identity catalog, one `sweep` call per grid row
# ---------------------------------------------------------------------------


def _suite_check(reports) -> str | None:
    failed = [r for r in reports if not r.passed]
    if failed:
        first = failed[0]
        return f"{len(failed)} report(s) failed, first {first.name} {first.params}: {first.witness}"
    return None


def _suite_counts(reports) -> dict:
    """Exact report counts; a zero-case report is vacuous, not failed."""
    return {
        "verify.checks": len(reports),
        "verify.cases": sum(r.cases for r in reports),
        "verify.vacuous_checks": sum(1 for r in reports if r.cases == 0),
    }


def setup_suite(seed: int, reference: dict) -> list[Op]:
    ops = []
    for family, m, n, max_r, order in SUITE_GRID:
        def run(family=family, m=m, n=n, max_r=max_r, order=order):
            return verify.sweep(family, m, n, max_r, order=order, seed=seed, trials=SUITE_TRIALS)
        ops.append(Op(f"{family}({m}|{n}) r<={max_r}", family, run, _suite_check, _suite_counts))
    return ops


# ---------------------------------------------------------------------------
# symbolic: invariants and immanant sums of generic generator matrices
# ---------------------------------------------------------------------------


def symbolic_calls():
    """(label, thunk) for every symbolic op, in canonical order."""
    calls = []
    for m, n in SYMBOLIC_BLOCKS:
        x = immanants.generator_matrix(m, n)
        tag = f"({m}|{n})"
        for k in range(1, 5):
            calls.append((f"elementary_invariant{tag} k={k}",
                          lambda x=x, k=k: immanants.elementary_invariant(x, k)))
            calls.append((f"complete_invariant{tag} k={k}",
                          lambda x=x, k=k: immanants.complete_invariant(x, k)))
        for k in range(1, 6):
            calls.append((f"power_trace{tag} k={k}",
                          lambda x=x, k=k: immanants.power_trace(x, k)))
        calls.append((f"characteristic_coefficients{tag} order=5",
                      lambda x=x: immanants.characteristic_coefficients(x, 5)))
        for lam in partitions(4):
            calls.append((f"normalized_immanant_sum{tag} lambda={list(lam)}",
                          lambda x=x, lam=lam: immanants.normalized_immanant_sum(lam, x)))
    return calls


def setup_symbolic(seed: int, reference: dict) -> list[Op]:
    """The seed fixes the order in which the ops run; the results do not
    depend on it, so every op is checked against the stored digest."""
    want = reference["symbolic"]
    calls = symbolic_calls()
    random.Random(seed).shuffle(calls)
    ops = []
    for label, thunk in calls:
        def check(value, label=label):
            got = digest(value)
            return None if got == want[label] else f"digest {got} != reference {want[label]}"
        ops.append(Op(label, label.split("(")[0], thunk, check))
    return ops


# ---------------------------------------------------------------------------
# points: diagonalize at seeded Grassmann points, eigenvalue correspondence
# ---------------------------------------------------------------------------


def point_seeds(seed: int) -> dict:
    rng = random.Random(seed)
    return {blk: [rng.randrange(1 << 30) for _ in range(POINTS_PER_BLOCK)] for blk in POINTS_BLOCKS}


def eigenvalue_digest(eigen) -> str:
    return digest(list(eigen["even_eigenvalues"]) + list(eigen["odd_eigenvalues"]))


def points_op(m: int, n: int, point, sides):
    """Evaluate, diagonalize the transpose, and compare both sides of the
    eigenvalue correspondence for every stored shape."""
    x_point = immanants.generator_matrix(m, n).evaluate(point)
    eigen = immanants.diagonalize(x_point.transpose())
    target = grassmann_algebra(point.n_units)
    omegas = eigen["even_eigenvalues"]
    neg_varpis = [-w for w in eigen["odd_eigenvalues"]]
    mismatches = []
    for lam, lhs_poly, rhs_poly in sides:
        lhs = point.evaluate(lhs_poly)
        rhs = supersym.evaluate_two_alphabets(rhs_poly, omegas, neg_varpis, target)
        if lhs != rhs:
            mismatches.append(list(lam))
    return eigen, mismatches


def setup_points(seed: int, reference: dict) -> list[Op]:
    """Points come from the seed; the point-independent symbolic side is
    computed here, once per (m, n, lambda)."""
    want = reference["points"] if seed == DEFAULT_SEED else None
    ops = []
    for (m, n), seeds in point_seeds(seed).items():
        x = immanants.generator_matrix(m, n)
        sides = [
            (lam, immanants.normalized_immanant_sum(lam, x), supersym.schur_super(lam, m, n))
            for r in range(1, POINTS_MAX_R + 1)
            for lam in partitions(r)
        ]
        for i, s in enumerate(seeds):
            label = f"point({m}|{n}) #{i}"
            point = verify.random_grassmann_point(m, n, s)

            def run(m=m, n=n, point=point, sides=sides):
                return points_op(m, n, point, sides)

            def check(result, label=label):
                eigen, mismatches = result
                if not eigen["residual_zero"]:
                    return "diagonalization residual is not zero"
                if mismatches:
                    return f"correspondence fails for lambda in {mismatches}"
                if want is not None and eigenvalue_digest(eigen) != want[label]:
                    return f"eigenvalue digest {eigenvalue_digest(eigen)} != reference {want[label]}"
                return None

            ops.append(Op(label, f"point({m}|{n})", run, check))
    return ops


SETUP = {"suite": setup_suite, "symbolic": setup_symbolic, "points": setup_points}
