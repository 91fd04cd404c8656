"""Graded tensor-space calculus for (C^{m|n})^{tensor r}.

Basis tensors are index tuples in [m+n]^r; index parity is 0 up to m and 1
past m.  States are sparse maps from index tuples to coefficients (rationals
or SuperPolys).  Operators are kept in action form: the coefficient of |I>
in O|J>.  All Koszul signs live in the seam functions below, so a test can
perturb one convention at a time.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

from superimm.superring import SuperPoly
from superimm.symgroup import GroupAlgebraElement, Permutation


class TensorSpaceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Parities and sign conventions (mutation seams)
# ---------------------------------------------------------------------------


def index_parity(i: int, m: int) -> int:
    return 0 if i <= m else 1


def tuple_parities(indices, m: int) -> tuple[int, ...]:
    return tuple(0 if i <= m else 1 for i in indices)


def parity_weight(i: int, m: int) -> int:
    """Supertrace weight (-1)^parity of a single index."""
    return -1 if i > m else 1


def action_sign(indices, m: int, perm: Permutation) -> int:
    """Koszul sign of the permutation action on a basis tensor: one minus sign
    per inverted pair of odd slots."""
    p = tuple_parities(indices, m)
    img = perm.images
    count = 0
    r = len(indices)
    for k in range(r):
        if not p[k]:
            continue
        for l in range(k + 1, r):
            if p[l] and img[k] > img[l]:
                count += 1
    return -1 if count % 2 else 1


def comodule_sign(out_indices, in_indices, m: int) -> int:
    """Sign of the closed-form matrix coefficient of the operator chain:
    (-1)^(sum over a<b of p_out[a]*(p_out[b]+p_in[b]))."""
    po = tuple_parities(out_indices, m)
    pi = tuple_parities(in_indices, m)
    total = 0
    left_odd = 0
    for b in range(len(po)):
        if b:
            total += left_odd * ((po[b] + pi[b]) % 2)
        left_odd += po[b]
    return -1 if total % 2 else 1


def immanant_prefactor(row_indices, col_indices, m: int) -> int:
    """(-1)^(sum_k p_row[k] * p_col[k]) in front of the character sum."""
    pr = tuple_parities(row_indices, m)
    pc = tuple_parities(col_indices, m)
    return -1 if sum(a * b for a, b in zip(pr, pc)) % 2 else 1


def _act_conversion_sign(out_indices, in_indices, m: int) -> int:
    """Sign between action coefficients and the matrix-unit expansion: the
    a-th leg moves past the first a-1 input basis factors."""
    po = tuple_parities(out_indices, m)
    pi = tuple_parities(in_indices, m)
    total = 0
    prefix = 0
    for a in range(len(po)):
        if a:
            total += ((po[a] + pi[a]) % 2) * prefix
        prefix += pi[a]
    return -1 if total % 2 else 1


# ---------------------------------------------------------------------------
# Multi-indices
# ---------------------------------------------------------------------------


def repetition_factor(indices) -> int:
    """Product of the factorials of the index multiplicities; divides r!."""
    out = 1
    for a in Counter(indices).values():
        out *= factorial(a)
    return out


def sorted_multisets(m: int, n: int, r: int):
    """Non-decreasing index tuples of length r over [m+n]."""
    return tuple(combinations_with_replacement(range(1, m + n + 1), r))


def weak_compositions(r: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to r."""
    if parts == 0:
        return ((),) if r == 0 else ()
    out = []

    def grow(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for a in range(remaining + 1):
            grow(prefix + (a,), remaining - a, slots - 1)

    grow((), r, parts)
    return tuple(out)


def composition_to_multiset(comp) -> tuple[int, ...]:
    return tuple(i + 1 for i, a in enumerate(comp) for _ in range(a))


def permuted_tuple(indices, perm: Permutation) -> tuple[int, ...]:
    """The tuple J with J_{perm(k)} = I_k (the permutation action on slots)."""
    out = [0] * len(indices)
    for k, i in enumerate(indices):
        out[perm.images[k] - 1] = i
    return tuple(out)


def composed_tuple(indices, perm: Permutation) -> tuple[int, ...]:
    """The tuple K with K_a = I_{perm(a)}."""
    return tuple(indices[perm.images[a] - 1] for a in range(len(indices)))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def _is_zero(c) -> bool:
    return c.is_zero if isinstance(c, SuperPoly) else c == 0


def _hom_parts(c):
    """Split a coefficient into (parity, part) pieces."""
    if isinstance(c, SuperPoly):
        even, odd = c.homogeneous_parts()
        out = []
        if not even.is_zero:
            out.append((0, even))
        if not odd.is_zero:
            out.append((1, odd))
        return out
    return [(0, c)] if c else []


def state_add(state: dict, key, value):
    s = state.get(key)
    s = value if s is None else s + value
    if _is_zero(s):
        state.pop(key, None)
    else:
        state[key] = s


def apply_group_algebra_to_state(elem: GroupAlgebraElement, state: dict, m: int) -> dict:
    out: dict = {}
    for perm, coeff in elem.terms.items():
        for key, c in state.items():
            sign = action_sign(key, m, perm)
            state_add(out, permuted_tuple(key, perm), (coeff * sign) * c)
    return out


def bilinear_form(state1: dict, state2: dict):
    """Product-delta pairing, extended linearly over coefficients."""
    total = None
    for key, c1 in state1.items():
        c2 = state2.get(key)
        if c2 is None:
            continue
        term = c1 * c2
        total = term if total is None else total + term
    return 0 if total is None else total


# ---------------------------------------------------------------------------
# Operators in action form
# ---------------------------------------------------------------------------


class TensorOperator:
    """Sparse even operator on r slots, stored by action coefficients."""

    __slots__ = ("m", "n", "r", "coeffs", "_by_input")

    def __init__(self, m: int, n: int, r: int, coeffs: dict | None = None):
        self.m = m
        self.n = n
        self.r = r
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if not _is_zero(v)}
        self._by_input = None  # input key -> [(output key, coefficient, leg parity)]

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_permutation(perm: Permutation, m: int, n: int) -> "TensorOperator":
        r = perm.degree
        coeffs = {}
        for key in product(range(1, m + n + 1), repeat=r):
            coeffs[(permuted_tuple(key, perm), key)] = Fraction(action_sign(key, m, perm))
        return TensorOperator(m, n, r, coeffs)

    @staticmethod
    def matrix_at_slot(entries, slot: int, m: int, n: int, r: int) -> "TensorOperator":
        """The operator acting by the matrix on one slot and identity elsewhere.

        Stores action coefficients: the matrix legs pick up a sign moving past
        the input basis factors before the slot.
        """
        d = m + n
        coeffs: dict = {}
        for key in product(range(1, d + 1), repeat=r):
            j = key[slot - 1]
            kp = tuple_parities(key, m)
            prefix = sum(kp[: slot - 1])
            for i in range(1, d + 1):
                entry = entries[i - 1][j - 1]
                if _is_zero(entry):
                    continue
                out_key = key[: slot - 1] + (i,) + key[slot:]
                negate = ((index_parity(i, m) + kp[slot - 1]) * prefix) % 2
                coeffs[(out_key, key)] = -entry if negate else entry
        return TensorOperator(m, n, r, coeffs)

    # -- algebra ----------------------------------------------------------------

    def compose(self, other: "TensorOperator") -> "TensorOperator":
        """Operator product: self acts after other.  Moving self's legs past an
        odd coefficient of other costs a sign."""
        by_input: dict = {}
        for (k, j), c in other.coeffs.items():
            by_input.setdefault(k, []).append((j, c))
        coeffs: dict = {}
        for (l, k), c1 in self.coeffs.items():
            pairs = by_input.get(k)
            if pairs is None:
                continue
            legs = (sum(tuple_parities(l, self.m)) + sum(tuple_parities(k, self.m))) % 2
            for j, c2 in pairs:
                for par, part in _hom_parts(c2):
                    term = c1 * part
                    if legs and par:
                        term = -term
                    state_add(coeffs, (l, j), term)
        return TensorOperator(self.m, self.n, self.r, coeffs)

    def apply(self, state: dict) -> dict:
        if self._by_input is None:
            self._by_input = {}
            for (l, k), a in self.coeffs.items():
                self._by_input.setdefault(k, []).append((l, a, sum(tuple_parities(l + k, self.m)) % 2))
        out: dict = {}
        for k, c in state.items():
            parts = _hom_parts(c)
            for l, a, legs in self._by_input.get(k, ()):
                for par, part in parts:
                    term = a * part
                    if legs and par:
                        term = -term
                    state_add(out, l, term)
        return out

    # -- traces -------------------------------------------------------------------

    def supertrace(self):
        """Full contraction: parity-weighted sum of diagonal action coefficients."""
        total = None
        for (l, k), a in self.coeffs.items():
            if l != k:
                continue
            w = 1
            for i in l:
                w *= parity_weight(i, self.m)
            term = -a if w < 0 else a
            total = term if total is None else total + term
        return 0 if total is None else total

    def contract_slots(self, slots) -> "TensorOperator":
        """Partial supertrace over the given (1-based) slots, via the
        matrix-unit expansion."""
        slots = sorted(set(slots))
        keep = [a for a in range(self.r) if a + 1 not in slots]
        coeffs: dict = {}
        for (l, k), a in self.coeffs.items():
            if any(l[s - 1] != k[s - 1] for s in slots):
                continue
            unit = _act_conversion_sign(l, k, self.m) * a
            w = 1
            for s in slots:
                w *= parity_weight(k[s - 1], self.m)
            lred = tuple(l[i] for i in keep)
            kred = tuple(k[i] for i in keep)
            sign = _act_conversion_sign(lred, kred, self.m) * w
            state_add(coeffs, (lred, kred), -unit if sign < 0 else unit)
        return TensorOperator(self.m, self.n, len(keep), coeffs)

    def matrix_entries(self):
        """For a one-slot operator: the (m+n)x(m+n) grid of coefficients."""
        if self.r != 1:
            raise TensorSpaceError("matrix_entries needs a one-slot operator")
        d = self.m + self.n
        grid = [[Fraction(0)] * d for _ in range(d)]
        for ((i,), (j,)), a in self.coeffs.items():
            grid[i - 1][j - 1] = a
        return grid

    def __eq__(self, other):
        return (
            isinstance(other, TensorOperator)
            and (self.m, self.n, self.r) == (other.m, other.n, other.r)
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"TensorOperator(r={self.r}, {len(self.coeffs)} coefficients)"
