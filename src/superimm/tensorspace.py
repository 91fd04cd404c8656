"""Graded tensor-space calculus for (C^{m|n})^{tensor r}.

Basis tensors are index tuples in [m+n]^r; index parity is 0 up to m and 1
past m.  States are sparse maps from index tuples to coefficients (rationals
or SuperPolys).  Permutations and matrices act on states, one basis tensor at
a time.  All Koszul signs live in the seam functions below, so a test can
perturb one convention at a time.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement
from math import factorial, prod

from superimm.superring import SuperPoly
from superimm.symgroup import GroupAlgebraElement, Permutation


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


def act_conversion_sign(out_indices, in_indices, m: int) -> int:
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


def arrangements(multiset) -> tuple[tuple[int, ...], ...]:
    """The distinct orderings of a multiset of indices, in lexicographic order:
    the basis tensors of its weight slice."""
    if not multiset:
        return ((),)
    out = []
    for i in sorted(set(multiset)):
        rest = list(multiset)
        rest.remove(i)
        out.extend((i,) + tail for tail in arrangements(rest))
    return tuple(out)


def weak_compositions(r: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to r, in
    lexicographic order: the weights of the multisets of size r."""
    labels = range(1, parts + 1)
    return tuple(sorted(tuple(c.count(i) for i in labels)
                        for c in combinations_with_replacement(labels, r)))


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
