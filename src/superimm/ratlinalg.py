"""Small exact linear algebra helpers over Fraction matrices.

Matrices are lists of lists of Fractions (or ints), row-reduced fraction-free.
The characteristic polynomial takes the library's determinant kernel, and its
rational roots come from the rational root test in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from superimm.superring import Algebra
from superimm.symgroup import commuting_determinant

_T_RING = Algebra("t")
_T = _T_RING.even("t")


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot column indices).  Fraction-free (after
    Bareiss, Math. Comp. 22 (1968)): primitive int rows, each divided by its pivot at the end."""
    rows = [_primitive(row) for row in mat]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = _primitive([p * x - f * y for x, y in zip(row, top)])
        pivots.append(c)
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    return red + [[Fraction(0)] * len(row) for row in rows[len(pivots):]], pivots


def _primitive(row) -> list:
    """A rational row scaled to coprime ints."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return ints if g in (0, 1) else [x // g for x in ints]


def rank(mat) -> int:
    return len(rref(mat)[1])


def inv(mat):
    """Inverse of a square Fraction matrix; raises ZeroDivisionError if singular."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def nullspace(mat):
    """Basis of the right nullspace, as a list of Fraction vectors."""
    if not mat:
        return []
    ncols = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def char_poly(mat):
    """Coefficients of det(t*I - M), highest degree first (monic), taken by
    the library's one determinant kernel over the polynomials in one even t."""
    n = len(mat)
    grid = [[_T - mat[i][j] if i == j else _T_RING.scalar(-mat[i][j]) for j in range(n)]
            for i in range(n)]
    det = commuting_determinant(grid, _T_RING.one())
    return [det.coefficient(((("t", k),) if k else (), ())) for k in range(n, -1, -1)]


def rational_roots(coeffs):
    """All rational roots (with multiplicity) of a Fraction polynomial.

    Returns (roots, fully_split) where fully_split says whether the
    polynomial factors completely into rational linear factors.
    """
    poly = list(coeffs)
    while poly and poly[0] == 0:
        poly.pop(0)
    if not poly:
        raise ValueError("zero polynomial")
    roots = []
    # strip zero roots
    while poly[-1] == 0 and len(poly) > 1:
        roots.append(Fraction(0))
        poly.pop()
    while len(poly) > 1:
        root = _find_rational_root(poly)
        if root is None:
            return roots, False
        roots.append(root)
        poly = _deflate(poly, root)
    return roots, True


def _find_rational_root(poly):
    """The first candidate root p/q of the rational root test, or None, for a
    Fraction polynomial with a nonzero constant term.  p/q is a root when the
    denominator-cleared coefficients c_i give sum_i c_i p^(deg-i) q^i == 0."""
    denom_lcm = lcm(*(c.denominator for c in poly))
    ints = [int(c * denom_lcm) for c in poly]
    deg = len(ints) - 1
    for p in _divisors(abs(ints[-1])):
        for q in _divisors(abs(ints[0])):
            for signed in (p, -p):
                if sum(c * signed ** (deg - i) * q ** i for i, c in enumerate(ints)) == 0:
                    return Fraction(signed, q)
    return None


def _divisors(n):
    out = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    out += [n // d for d in reversed(out) if d * d != n]
    return out


def _deflate(poly, root):
    out = [poly[0]]
    for c in poly[1:-1]:
        out.append(c + out[-1] * root)
    return out
