"""Graded tensor-space calculus for (C^{m|n})^{tensor r}.

Basis tensors are index tuples in [m+n]^r; index parity is 0 up to m and 1
past m.  States are sparse maps from index tuples to coefficients (rationals
or SuperPolys).  Permutations and matrices act on states, one basis tensor at
a time.  All Koszul signs live in the seam functions below, so a test can
perturb one convention at a time.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, prod

from superimm.superring import SuperPoly
from superimm.symgroup import GroupAlgebraElement, Permutation, SymGroupError, jm_factors


# ---------------------------------------------------------------------------
# Parities and sign conventions (mutation seams)
# ---------------------------------------------------------------------------


def index_parity(i: int, m: int) -> int:
    return 0 if i <= m else 1


def tuple_parities(indices, m: int) -> tuple[int, ...]:
    return _parities(tuple(indices), m)


@lru_cache(maxsize=None)
def _parities(indices: tuple, m: int) -> tuple[int, ...]:
    return tuple(0 if i <= m else 1 for i in indices)


def parity_weight(i: int, m: int) -> int:
    """Supertrace weight (-1)^parity of a single index."""
    return -1 if i > m else 1


def tensor_weight(indices, m: int) -> int:
    """Supertrace weight of a basis tensor: the product of its indices' weights."""
    return prod(parity_weight(i, m) for i in indices)


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


# ---------------------------------------------------------------------------
# Multi-indices
# ---------------------------------------------------------------------------


def repetition_factor(indices) -> int:
    """Product of the factorials of the index multiplicities; divides r!."""
    return _repetition_factor(tuple(indices))


@lru_cache(maxsize=None)
def _repetition_factor(indices: tuple) -> int:
    out = 1
    for a in Counter(indices).values():
        out *= factorial(a)
    return out


def sorted_multisets(m: int, n: int, r: int):
    """Non-decreasing index tuples of length r over [m+n]."""
    return tuple(combinations_with_replacement(range(1, m + n + 1), r))


def weak_compositions(r: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to r, in
    lexicographic order: the weights of the multisets of size r."""
    if not parts:
        return () if r else ((),)
    return tuple((first,) + rest for first in range(r + 1)
                 for rest in weak_compositions(r - first, parts - 1))


def composition_to_multiset(comp) -> tuple[int, ...]:
    return tuple(i + 1 for i, a in enumerate(comp) for _ in range(a))


def permuted_tuple(indices, perm: Permutation) -> tuple[int, ...]:
    """The tuple J with J_{perm(k)} = I_k (the permutation action on slots)."""
    out = [0] * len(indices)
    for k, i in enumerate(indices):
        out[perm.images[k] - 1] = i
    return tuple(out)


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


_KEY_TABLES: dict = {}  # (key, m, action_sign seam) -> {perm images: (sign, perm . key)}


def apply_group_algebra_to_state(elem: GroupAlgebraElement, state: dict, m: int) -> dict:
    """elem's int numerators act on a state over any coefficient ring, then its
    denominator divides each output entry.  perm sends e_K to action_sign(K, m, perm)
    e_{perm . K}, perm . K = `permuted_tuple(K, perm)`: each K keeps its moves in `_KEY_TABLES`."""
    seam, r = action_sign, elem.degree
    out: dict = {}
    for key, c in state.items():
        if len(key) != r:
            raise SymGroupError(f"basis tensor {key} has {len(key)} slots, not {r}")
        table = _KEY_TABLES.setdefault((key, m, seam), {})
        for perm, num in elem.numerators.items():
            move = table.get(perm.images)
            if move is None:
                move = table[perm.images] = (seam(key, m, perm), permuted_tuple(key, perm))
            sign, target = move
            value = c * (num * sign)
            old = out.get(target)
            out[target] = value if old is None else old + value
    scale = None if elem.denominator == 1 else Fraction(1, elem.denominator)
    return {key: c if scale is None else c * scale for key, c in out.items() if not _is_zero(c)}


def apply_idempotent(tab, state: dict, m: int) -> tuple[dict, int]:
    """(g E_T state, g), g the product of the content gaps of the standard
    tableau: each int factor y_k - c of `symgroup.jm_factors` acts in turn
    through the slice action, so E_T is never built."""
    g = 1
    for factor, gap in jm_factors(tab):
        if state:
            state = apply_group_algebra_to_state(factor, state, m)
        g *= gap
    return state, g


def apply_matrix_at_slot(state: dict, columns, slot: int, m: int) -> dict:
    """Act by a matrix on one (1-based) slot of every basis tensor of a state,
    identity elsewhere.  `columns[j - 1]` lists the (i, entry) pairs of the
    non-zero entries in column j.  An odd matrix leg costs a sign moving past
    the input basis factors before the slot and past the odd part of the
    coefficient."""
    out: dict = {}
    for key, c in state.items():
        head, j, tail = key[: slot - 1], key[slot - 1], key[slot:]
        prefix = sum(tuple_parities(head, m))
        parity_j = index_parity(j, m)
        parts = _hom_parts(c)
        for i, entry in columns[j - 1]:
            out_key = head + (i,) + tail
            odd_leg = index_parity(i, m) != parity_j
            for par, part in parts:
                term = entry * part
                state_add(out, out_key, -term if odd_leg and (prefix + par) % 2 else term)
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
