"""Supersymmetric polynomials in two alphabets of ordinary commuting variables.

Power sums, the generating-series coefficients that interpolate between the
complete homogeneous and elementary bases, their Jacobi-Trudi determinants,
the cancellation test for supersymmetry, and the diagonal specialization from
the coordinate algebra of a generator supermatrix.
"""

from __future__ import annotations

from functools import lru_cache

from superimm import superring
from superimm.superring import Algebra, SuperPoly, TruncatedSeries
from superimm.symgroup import commuting_determinant
from superimm.tableaux import normalize_partition


class SuperSymError(ValueError):
    pass


@lru_cache(maxsize=None)
def sym_algebra(m: int, n: int) -> Algebra:
    """Commuting even variables u1..um (first alphabet), v1..vn (second)."""
    alg = Algebra(f"sym({m}|{n})")
    for i in range(1, m + 1):
        alg.declare(f"u{i}", 0)
    for j in range(1, n + 1):
        alg.declare(f"v{j}", 0)
    return alg


def first_alphabet(m: int, n: int) -> list[SuperPoly]:
    alg = sym_algebra(m, n)
    return [alg.gen(f"u{i}") for i in range(1, m + 1)]


def second_alphabet(m: int, n: int) -> list[SuperPoly]:
    alg = sym_algebra(m, n)
    return [alg.gen(f"v{j}") for j in range(1, n + 1)]


def power_sum(r: int, m: int, n: int) -> SuperPoly:
    """Sum of r-th powers of the first alphabet plus (-1)^(r-1) times the
    second alphabet's."""
    if r < 1:
        raise SuperSymError("power sums start at r = 1")
    alg = sym_algebra(m, n)
    acc = alg.zero()
    for x in first_alphabet(m, n):
        acc = acc + x ** r
    sign = (-1) ** (r - 1)
    for y in second_alphabet(m, n):
        acc = acc + (y ** r) * sign
    return acc


def _generating_series(m: int, n: int, order: int) -> TruncatedSeries:
    """prod (1 - u_i t)^{-1} * prod (1 + v_j t), truncated."""
    alg = sym_algebra(m, n)
    series = TruncatedSeries.one(alg, order)
    for x in first_alphabet(m, n):
        series = series * TruncatedSeries.from_polys(alg, [alg.one(), -x], order).invert()
    for y in second_alphabet(m, n):
        series = series * TruncatedSeries.from_polys(alg, [alg.one(), y], order)
    return series


def complete_super(k: int, m: int, n: int) -> SuperPoly:
    """Degree-k coefficient of the generating series; the complete homogeneous
    polynomial at n=0 and the elementary polynomial at m=0."""
    alg = sym_algebra(m, n)
    if k < 0:
        return alg.zero()
    return _generating_series(m, n, k).coefficient(k)


def jacobi_trudi_grid(shape, entry) -> list[list]:
    """The Jacobi-Trudi matrix of a partition: entry (i, j), counted from 0,
    is entry(shape[i] - i + j)."""
    shape = normalize_partition(shape)
    return [[entry(part - i + j) for j in range(len(shape))] for i, part in enumerate(shape)]


def schur_super(shape, m: int, n: int) -> SuperPoly:
    """Jacobi-Trudi determinant in the generating coefficients, all read off
    one series; vanishes exactly off the (m,n) hook."""
    shape = normalize_partition(shape)
    series = _generating_series(m, n, shape[0] + len(shape) - 1 if shape else 0)
    alg = sym_algebra(m, n)
    grid = jacobi_trudi_grid(shape, lambda k: series.coefficient(k) if k >= 0 else alg.zero())
    return commuting_determinant(grid, alg.one())


def _swap_generators(f: SuperPoly, a: str, b: str) -> SuperPoly:
    alg = f.algebra
    images = {g.name: alg.gen(g.name) for g in alg.generators()}
    images[a], images[b] = alg.gen(b), alg.gen(a)
    return f.substitute(images, alg)


def is_supersymmetric(f: SuperPoly, m: int, n: int) -> bool:
    """Invariance under both alphabet symmetries plus the cancellation test:
    substituting u1 = t, v1 = -t leaves no t dependence."""
    report = supersymmetry_report(f, m, n)
    if report["breaking_swap"] is not None:
        raise SuperSymError(f"input is not symmetric: swapping {report['breaking_swap']}")
    return report["cancellation"]


def supersymmetry_report(f: SuperPoly, m: int, n: int) -> dict:
    for i in range(1, m):
        if _swap_generators(f, f"u{i}", f"u{i + 1}") != f:
            return {"breaking_swap": (f"u{i}", f"u{i + 1}"), "cancellation": False}
    for j in range(1, n):
        if _swap_generators(f, f"v{j}", f"v{j + 1}") != f:
            return {"breaking_swap": (f"v{j}", f"v{j + 1}"), "cancellation": False}
    if m == 0 or n == 0:
        return {"breaking_swap": None, "cancellation": True}
    alg = sym_algebra(m, n)
    ext = Algebra(f"sym({m}|{n})+t")
    for g in alg.generators():
        ext.declare(g.name, g.parity)
    t = ext.even("t")
    images = {g.name: ext.gen(g.name) for g in alg.generators()}
    images["u1"] = t
    images["v1"] = -t
    value = f.substitute(images, ext)
    depends_on_t = any("t" in dict(even) for even, odd, c in value.terms())
    return {"breaking_swap": None, "cancellation": not depends_on_t}


def diagonal_specialization(p: SuperPoly, m: int, n: int) -> SuperPoly:
    """Algebra map from the coordinate algebra of the (m,n) generator matrix:
    diagonal even entries go to the alphabets (second with a sign flip),
    everything else to zero."""
    alg = sym_algebra(m, n)
    images = {}
    d = m + n
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            name = f"x{i}_{j}"
            if name not in p.algebra:
                continue
            if i != j:
                images[name] = alg.zero()
            elif i <= m:
                images[name] = alg.gen(f"u{i}")
            else:
                images[name] = -alg.gen(f"v{i - m}")
    return p.substitute(images, alg)


def evaluate_two_alphabets(f: SuperPoly, first_values, second_values, target: Algebra) -> SuperPoly:
    """Substitute explicit (even) values for both alphabets, which must name exactly f's
    generators u1..um and v1..vn; back-to-back calls at equal alphabets share one memo."""
    first_values, second_values = tuple(first_values), tuple(second_values)
    images = {f"u{i}": value for i, value in enumerate(first_values, start=1)}
    images.update((f"v{j}", value) for j, value in enumerate(second_values, start=1))
    if images.keys() != {g.name for g in f.algebra.generators()}:
        raise SuperSymError(f"{len(first_values)}|{len(second_values)} values do not fit {f.algebra!r}")
    memo = _alphabet_memo(first_values, second_values, target, superring.merge_odd_parts)
    return f.substitute(images, target, memo)


@lru_cache(maxsize=1)
def _alphabet_memo(first_values: tuple, second_values: tuple, target: Algebra, merge) -> tuple:
    """The memo of `substitute` for the last alphabets, target and sign rule; one slot."""
    return {}, {(): target.one()}
