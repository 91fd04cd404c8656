"""Supermatrices and the super-immanant calculus.

Matrix coefficients of operator chains, character-weighted immanants, the
supertrace forms of the elementary/complete/power-sum invariants, star
powers, Berezinians and their expansion, exact diagonalization over a finite
Grassmann algebra, and the weight-space supertrace that the normalized
immanants compute.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product

from superimm import ratlinalg
from superimm.superring import (
    Algebra,
    GrassmannPoint,
    NotInvertibleError,
    Parity,
    SuperPoly,
    TruncatedSeries,
    odd_degree_parts,
    parse_poly,
    sum_of_products,
)
from superimm.symgroup import (
    GroupAlgebraElement,
    Permutation,
    commuting_determinant,
    permutation_sum,
    primitive_idempotent,
    symmetric_group,
)
from superimm.tableaux import (
    character,
    is_semistandard_super,
    normalize_partition,
    partitions,
    relabel_by_weight,
    row_reading_tableau,
)
from superimm.tensorspace import (
    act_conversion_sign,
    action_sign,
    apply_group_algebra_to_state,
    apply_matrix_at_slot,
    arrangements,
    bilinear_form,
    composed_tuple,
    composition_to_multiset,
    comodule_sign,
    immanant_prefactor,
    index_parity,
    parity_weight,
    repetition_factor,
    sorted_multisets,
    state_add,
    tensor_weight,
)


class SuperMatrixError(ValueError):
    pass


class SingularMatrixError(SuperMatrixError):
    pass


class DegenerateSpectrumError(SuperMatrixError):
    pass


# ---------------------------------------------------------------------------
# Supermatrices
# ---------------------------------------------------------------------------


def _mat_mul(p, q, zero):
    """Product of two matrices over the ring whose zero is `zero`."""
    cols = list(zip(*q))
    return [[sum_of_products(zero, zip(row, col)) for col in cols] for row in p]


def _blocks(grid, m: int):
    return (
        [list(row[:m]) for row in grid[:m]],
        [list(row[m:]) for row in grid[:m]],
        [list(row[:m]) for row in grid[m:]],
        [list(row[m:]) for row in grid[m:]],
    )


class SuperMatrix:
    """(m+n)x(m+n) matrix over SuperPolys with block parity structure:
    entry (i,j) must be homogeneous of parity par(i)+par(j)."""

    __slots__ = ("m", "n", "entries", "algebra")

    def __init__(self, m: int, n: int, entries, validate: bool = True):
        if m < 0 or n < 0 or m + n == 0:
            raise SuperMatrixError(f"block sizes ({m}|{n}) must be non-negative with m + n >= 1")
        self.m = m
        self.n = n
        self.entries = tuple(tuple(row) for row in entries)
        d = m + n
        if len(self.entries) != d or any(len(row) != d for row in self.entries):
            raise SuperMatrixError(f"need a {d}x{d} grid")
        self.algebra = self.entries[0][0].algebra
        if validate:
            for i in range(1, d + 1):
                for j in range(1, d + 1):
                    e = self[i, j]
                    want = (index_parity(i, m) + index_parity(j, m)) % 2
                    if not e.is_zero and e.parity() != Parity(want):
                        raise SuperMatrixError(
                            f"entry ({i},{j}) has parity {e.parity()}, expected {want}"
                        )

    def __getitem__(self, ij) -> SuperPoly:
        i, j = ij
        return self.entries[i - 1][j - 1]

    @property
    def size(self) -> int:
        return self.m + self.n

    def blocks(self):
        """The four blocks: even-even, even-odd, odd-even, odd-odd."""
        return _blocks(self.entries, self.m)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return SuperMatrix(
            self.m,
            self.n,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            validate=False,
        )

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        rows = _mat_mul(self.entries, other.entries, self.algebra.zero())
        return SuperMatrix(self.m, self.n, rows, validate=False)

    def evaluate(self, point: GrassmannPoint) -> "SuperMatrix":
        return SuperMatrix(
            self.m, self.n, [[point.evaluate(e) for e in row] for row in self.entries]
        )

    @staticmethod
    def identity(m: int, n: int, algebra: Algebra) -> "SuperMatrix":
        d = m + n
        return SuperMatrix(
            m,
            n,
            [[algebra.scalar(int(i == j)) for j in range(d)] for i in range(d)],
            validate=False,
        )

    @staticmethod
    def diagonal(m: int, n: int, values) -> "SuperMatrix":
        values = list(values)
        algebra = values[0].algebra
        d = m + n
        zero = algebra.zero()
        return SuperMatrix(
            m, n, [[values[i] if i == j else zero for j in range(d)] for i in range(d)],
            validate=False,
        )

    def transpose(self) -> "SuperMatrix":
        d = self.size
        return SuperMatrix(
            self.m,
            self.n,
            [[self.entries[j][i] for j in range(d)] for i in range(d)],
            validate=False,
        )

    def __eq__(self, other):
        return (
            isinstance(other, SuperMatrix)
            and (self.m, self.n) == (other.m, other.n)
            and self.entries == other.entries
        )

    def __repr__(self):
        rows = ["[" + ", ".join(str(e) for e in row) + "]" for row in self.entries]
        return "SuperMatrix(\n  " + "\n  ".join(rows) + "\n)"


@lru_cache(maxsize=None)
def generator_matrix(m: int, n: int) -> SuperMatrix:
    """The generic supermatrix whose entries are fresh generators x{i}_{j}
    of parity par(i)+par(j)."""
    alg = Algebra(f"coords({m}|{n})")
    d = m + n
    rows = []
    for i in range(1, d + 1):
        row = []
        for j in range(1, d + 1):
            name = f"x{i}_{j}"
            if (index_parity(i, m) + index_parity(j, m)) % 2:
                row.append(alg.odd(name))
            else:
                row.append(alg.even(name))
        rows.append(row)
    return SuperMatrix(m, n, rows)


def supertrace(x: SuperMatrix) -> SuperPoly:
    """Parity-weighted sum of the diagonal."""
    acc = x.algebra.zero()
    for i in range(1, x.size + 1):
        term = x[i, i]
        if parity_weight(i, x.m) < 0:
            term = -term
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# Matrix coefficients of operator chains
# ---------------------------------------------------------------------------


def _check_indices(size: int, *index_tuples) -> None:
    """Reject index tuples of unequal length, or with an index that is not a
    plain int (a bool is not) or lies outside [1, size]."""
    if len({len(t) for t in index_tuples}) > 1:
        raise SuperMatrixError("index tuples must have equal length")
    for t in index_tuples:
        for i in t:
            if i.__class__ is not int:
                raise SuperMatrixError("indices must be integers")
            if not 0 < i <= size:
                raise SuperMatrixError(f"indices must lie in [1, {size}]")


def chain_coefficient(x: SuperMatrix, out_indices, in_indices) -> SuperPoly:
    """Closed form of the bra-ket coefficient of X_1...X_r between two basis
    tensors: signed ordered product of the matrix entries."""
    _check_indices(x.size, out_indices, in_indices)
    sign = comodule_sign(out_indices, in_indices, x.m)
    term = x.algebra.one()
    for i, j in zip(out_indices, in_indices):
        term = term * x[i, j]
        if term.is_zero:
            return term
    return -term if sign < 0 else term


def _nonzero_columns(x: SuperMatrix) -> list:
    """Per column j, the (i, entry) pairs of the non-zero entries of x."""
    return [[(i, e) for i, e in enumerate(col, 1) if not e.is_zero] for col in zip(*x.entries)]


def chain_coefficient_slotwise(x: SuperMatrix, out_indices, in_indices) -> SuperPoly:
    """Oracle: apply the slot factors to the input basis tensor one at a time,
    slot r first, tracking every move of an odd matrix leg past coefficients
    and basis factors.  The factors still to come leave a finished slot alone,
    so only basis tensors with the output's index there are kept."""
    _check_indices(x.size, out_indices, in_indices)
    out_indices = tuple(out_indices)
    columns = _nonzero_columns(x)
    state = {tuple(in_indices): x.algebra.one()}
    for slot in range(len(in_indices), 0, -1):
        state = {key: c for key, c in apply_matrix_at_slot(state, columns, slot, x.m).items()
                 if key[slot - 1] == out_indices[slot - 1]}
    value = state.get(out_indices)
    return x.algebra.zero() if value is None else value


def chain_state(x: SuperMatrix, in_indices) -> dict:
    """The column of chain coefficients out of one basis tensor, restricted
    to outputs in its weight slice."""
    out = {}
    for key in arrangements(in_indices):
        c = chain_coefficient(x, key, in_indices)
        if not c.is_zero:
            out[key] = c
    return out


# ---------------------------------------------------------------------------
# Super-immanants
# ---------------------------------------------------------------------------


def _as_class_function(char, r: int) -> dict:
    """The table {cycle type: value} over the partitions of r."""
    if isinstance(char, dict):
        missing = [ct for ct in partitions(r) if ct not in char]
        if missing:
            raise SuperMatrixError(f"class function has no value at cycle types {missing}")
        return {ct: char[ct] for ct in partitions(r)}
    shape = normalize_partition(char)
    if sum(shape) != r:
        raise SuperMatrixError("character shape size must match the index length")
    return {ct: character(shape, ct) for ct in partitions(r)}


@lru_cache(maxsize=None)
def _typed_permutations(r: int) -> tuple:
    """The (permutation, cycle type) pairs of S_r."""
    return tuple((perm, perm.cycle_type()) for perm in symmetric_group(r))


def _koszul_sum(x: SuperMatrix, weighted, row_indices, col_indices) -> SuperPoly:
    """Sum of c * action sign * chain coefficient over the (permutation, c) pairs
    of `weighted`, the signed weights added up first per rearranged row tuple
    K = I o perm, so that each K with a non-zero total costs one coefficient."""
    totals: dict = {}
    for perm, c in weighted:
        if c:
            k = composed_tuple(row_indices, perm)
            totals[k] = totals.get(k, 0) + c * action_sign(k, x.m, perm)
    acc = x.algebra.zero()
    for k, total in totals.items():
        if total != 0:
            term = chain_coefficient(x, k, col_indices)
            if not term.is_zero:
                acc = acc + term * total
    return acc


def super_immanant(char, x: SuperMatrix, row_indices, col_indices=None) -> SuperPoly:
    """Character-weighted, Koszul-signed permutation sum over a generalized
    submatrix.  `char` is a partition or a {cycle_type: value} dict."""
    row_indices = tuple(row_indices)
    col_indices = row_indices if col_indices is None else tuple(col_indices)
    _check_indices(x.size, row_indices, col_indices)
    r = len(row_indices)
    chi = _as_class_function(char, r)
    weighted = ((perm, chi[ct]) for perm, ct in _typed_permutations(r))
    acc = _koszul_sum(x, weighted, row_indices, col_indices)
    return -acc if immanant_prefactor(row_indices, col_indices, x.m) < 0 else acc


def _idempotent_weight_trace(e: GroupAlgebraElement, x: SuperMatrix, multiset) -> SuperPoly:
    """Supertrace of E X_1...X_r on one weight slice: the bra-ket coefficients
    <K| E X_1...X_r |K> summed over the arrangements K of the multiset, times
    the slice's weight."""
    acc = x.algebra.zero()
    for k in arrangements(multiset):
        acc = acc + _koszul_sum(x, e.terms.items(), k, k)
    return -acc if tensor_weight(multiset, x.m) < 0 else acc


def immanant_via_idempotent(shape, x: SuperMatrix, indices, tab=None) -> SuperPoly:
    """The same immanant from one primitive idempotent: I! times the
    supertrace of E_T X_1...X_r on the weight slice of I.  Requires a sorted
    index tuple."""
    indices = tuple(indices)
    _check_indices(x.size, indices)
    if list(indices) != sorted(indices):
        raise SuperMatrixError("index tuple must be non-decreasing")
    shape = normalize_partition(shape)
    if sum(shape) != len(indices):
        raise SuperMatrixError("shape size must match the index length")
    e = primitive_idempotent(row_reading_tableau(shape) if tab is None else tab)
    return _idempotent_weight_trace(e, x, indices) * repetition_factor(indices)


def idempotent_chain_supertrace(e: GroupAlgebraElement, x: SuperMatrix, r: int) -> SuperPoly:
    """Full supertrace of E X_1...X_r over the r-fold tensor space, one weight
    slice at a time."""
    acc = x.algebra.zero()
    for multiset in sorted_multisets(x.m, x.n, r):
        acc = acc + _idempotent_weight_trace(e, x, multiset)
    return acc


def normalized_immanant_sum(shape, x: SuperMatrix) -> SuperPoly:
    """Sum over non-decreasing multisets of the immanant divided by the
    repetition factor of the multiset."""
    shape = normalize_partition(shape)
    acc = x.algebra.zero()
    for indices in sorted_multisets(x.m, x.n, sum(shape)):
        value = super_immanant(shape, x, indices)
        if not value.is_zero:
            acc = acc + value * Fraction(1, repetition_factor(indices))
    return acc


def classical_immanant(entries, char, indices=None):
    """Plain permutation-sum immanant of a square grid of pairwise commuting
    SuperPolys (no parity signs); 1 for the empty index tuple."""
    if not entries:
        raise SuperMatrixError("the grid of entries is empty")
    indices = tuple(indices) if indices is not None else tuple(range(1, len(entries) + 1))
    _check_indices(len(entries), indices)
    grid = [[entries[i - 1][j - 1] for j in indices] for i in indices]
    chi = _as_class_function(char, len(indices))
    return permutation_sum(grid, lambda perm: chi[perm.cycle_type()], entries[0][0].algebra.one())


# ---------------------------------------------------------------------------
# Elementary / complete / power-sum invariants
# ---------------------------------------------------------------------------


def elementary_invariant(x: SuperMatrix, k: int) -> SuperPoly:
    """The k-th elementary invariant (supertrace of the antisymmetrizer),
    read off the characteristic series.  The catalog checks it against the
    one-column normalized immanant sum and the idempotent supertrace."""
    if k < 0:
        return x.algebra.zero()
    return characteristic_coefficients(x, k)[k]


def complete_invariant(x: SuperMatrix, k: int) -> SuperPoly:
    """The k-th complete invariant (supertrace of the symmetrizer): the u^k
    coefficient of the inverted characteristic series, since that series is
    lambda(-u) and MacMahon gives sigma(u) = 1/lambda(-u).  Checked like the
    elementary invariant, against the one-row shape."""
    if k < 0:
        return x.algebra.zero()
    return characteristic_series(x, k).invert().coefficient(k)


def star_product(y: SuperMatrix, z: SuperMatrix) -> SuperMatrix:
    """Contraction of the flip against Y on slot one and Z on slot two,
    as the derived entry formula (validated by star_product_slotwise)."""
    d = y.size
    rows = []
    for i in range(1, d + 1):
        row = []
        pi = index_parity(i, y.m)
        for b in range(1, d + 1):
            pb = index_parity(b, y.m)
            pairs = []
            for a in range(1, d + 1):
                e1, e2 = y[i, a], z[a, b]
                if e1.is_zero or e2.is_zero:
                    continue
                pa = index_parity(a, y.m)
                sign = parity_weight(a, y.m)
                if (pi * pb + (pi + pb) * pa) % 2:
                    sign = -sign
                pairs.append((e1, e2 if sign > 0 else -e2))
            row.append(sum_of_products(y.algebra.zero(), pairs))
        rows.append(row)
    return SuperMatrix(y.m, y.n, rows, validate=False)


def star_product_slotwise(y: SuperMatrix, z: SuperMatrix) -> SuperMatrix:
    """Oracle for the star product: apply Z on slot two, Y on slot one and the
    flip to each two-slot basis tensor |a, b>, then contract the first slot."""
    m = y.m
    flip = GroupAlgebraElement.of(Permutation.transposition(1, 2, 2))
    y_columns, z_columns = _nonzero_columns(y), _nonzero_columns(z)
    zero = y.algebra.zero()
    rows = [[zero] * y.size for _ in range(y.size)]
    for a, b in product(range(1, y.size + 1), repeat=2):
        state = apply_matrix_at_slot({(a, b): y.algebra.one()}, z_columns, 2, m)
        state = apply_matrix_at_slot(state, y_columns, 1, m)
        for (l1, l2), c in apply_group_algebra_to_state(flip, state, m).items():
            if l1 == a:
                sign = act_conversion_sign((l1, l2), (a, b), m) * parity_weight(a, m)
                rows[l2 - 1][b - 1] = rows[l2 - 1][b - 1] + (c if sign > 0 else -c)
    return SuperMatrix(m, y.n, rows, validate=False)


def star_power(x: SuperMatrix, k: int) -> SuperMatrix:
    if k < 0:
        raise SuperMatrixError("star power needs k >= 0")
    if k == 0:
        return SuperMatrix.identity(x.m, x.n, x.algebra)
    out = x
    for _ in range(k - 1):
        out = star_product(out, x)
    return out


def power_trace(x: SuperMatrix, k: int) -> SuperPoly:
    """Supertrace of the k-th star power."""
    return supertrace(star_power(x, k))


# ---------------------------------------------------------------------------
# Berezinian
# ---------------------------------------------------------------------------


def _adjugate(d, one):
    """Transposed cofactor matrix of a square grid of pairwise commuting
    elements of the ring whose unit is `one`: D adj(D) = det(D) I."""
    def cofactor(i, j):
        minor = commuting_determinant(
            [row[:j] + row[j + 1:] for k, row in enumerate(d) if k != i], one)
        return -minor if (i + j) % 2 else minor

    return [[cofactor(j, i) for j in range(len(d))] for i in range(len(d))]


def _berezinian(a, b, c, d, one, invert_unit):
    """det(A - B D^{-1} C) / det(D) over the supercommutative ring whose unit
    is `one`, with D^{-1} = adj(D) / det(D); `invert_unit` inverts det(D)."""
    if not d:
        return commuting_determinant(a, one)
    zero = one * 0
    det_inv = invert_unit(commuting_determinant(d, one))
    bdc = _mat_mul(_mat_mul(b, _adjugate(d, one), zero), c, zero)
    top = [[e - f * det_inv for e, f in zip(a_row, bdc_row)] for a_row, bdc_row in zip(a, bdc)]
    return commuting_determinant(top, one) * det_inv


def _unit_or_singular(det: SuperPoly) -> SuperPoly:
    try:
        return det.inverse_of_unit()
    except NotInvertibleError as exc:
        reason = "body is singular" if det.constant_term() == 0 else "soul is not nilpotent"
        raise SingularMatrixError(f"matrix {reason}") from exc


def berezinian(x: SuperMatrix) -> SuperPoly:
    """Ber(X) = det(A - B D^{-1} C) / det(D), with D^{-1} = adj(D) / det(D).
    Defined whenever det(D) is a unit: a nonzero body plus a soul whose every
    term has an odd factor.  SingularMatrixError otherwise, naming a singular
    body or a soul that is not nilpotent."""
    return _berezinian(*x.blocks(), x.algebra.one(), _unit_or_singular)


def characteristic_series(x: SuperMatrix, order: int) -> TruncatedSeries:
    """Expansion of Ber(tI - X^T) * t^(n-m) as a series in u = 1/t, that is
    Ber(I - uX^T) over truncated series, by the same block formula as
    `berezinian`.  Its u^k coefficient is (-1)^k times the k-th elementary
    invariant of x.  The transpose bridges the two orientations in play: chain
    coefficients read the matrix rows-out/columns-in, while the Berezinian
    block algebra composes entries the other way around; on the odd-odd
    cross terms the orientations differ by a sign.
    """
    algebra = x.algebra
    grid = [
        [TruncatedSeries.from_polys(algebra, [algebra.scalar(int(i == j)), -e], order)
         for j, e in enumerate(row)]
        for i, row in enumerate(x.transpose().entries)
    ]
    # det(I - uD) has constant term 1, so it is a unit of the series ring
    return _berezinian(
        *_blocks(grid, x.m), TruncatedSeries.one(algebra, order), TruncatedSeries.invert,
    )


def characteristic_coefficients(x: SuperMatrix, order: int) -> list[SuperPoly]:
    """The elementary invariants read off the characteristic series."""
    series = characteristic_series(x, order)
    return [-c if k % 2 else c for k, c in enumerate(series.coeffs)]


# ---------------------------------------------------------------------------
# Diagonalization over a Grassmann algebra
# ---------------------------------------------------------------------------


def _grassmann_units(algebra) -> int:
    return sum(1 for g in algebra.generators() if g.parity == Parity.ODD)


def _rational_eigenbasis(block):
    """Eigenvalues and eigenvector matrix of a rational matrix; requires a
    full set of distinct rational eigenvalues."""
    size = len(block)
    if size == 0:
        return [], []
    roots, split = ratlinalg.rational_roots(ratlinalg.char_poly(block))
    if not split:
        raise DegenerateSpectrumError("block body has irrational eigenvalues")
    if len(set(roots)) != len(roots):
        raise DegenerateSpectrumError("block body has repeated eigenvalues")
    columns = []
    for root in roots:
        shifted = [
            [Fraction(block[i][j]) - (root if i == j else 0) for j in range(size)]
            for i in range(size)
        ]
        kernel = ratlinalg.nullspace(shifted)
        if len(kernel) != 1:
            raise DegenerateSpectrumError("eigenspace is not one-dimensional")
        columns.append(kernel[0])
    return roots, [[columns[j][i] for j in range(size)] for i in range(size)]


def _unipotent_inverse(columns, algebra):
    """Inverse of Q = I + N, columns[t][k][e] being the part N^(e)[k][t] of Q[k][t] with
    e odd factors: its degree-d part is F^(d) = -sum_e N^(e) F^(d-e), F^(0) = I.  Only
    nonzero parts are multiplied, and d runs to the unit count len(columns[0][0]) - 1:
    products of low-degree parts reach degrees that N itself lacks."""
    size, zero, top = len(columns), algebra.zero(), len(columns[0][0])
    # rows[k]: the nonzero (e, t, N^(e)[k][t]) with e >= 1, by e and then t
    rows = [[(e, t, columns[t][k][e]) for e in range(1, top) for t in range(size)
             if not columns[t][k][e].is_zero] for k in range(size)]
    parts = [{(k, k): algebra.scalar(1) for k in range(size)}]  # the nonzero entries of F^(d)
    for d in range(1, top):
        sums = {(k, j): sum_of_products(zero, [(p, parts[d - e][t, j]) for e, t, p in rows[k]
                                               if e <= d and (t, j) in parts[d - e]])
                for k in range(size) for j in range(size)}
        parts.append({kj: -s for kj, s in sums.items() if not s.is_zero})
    return [[sum((part[k, j] for part in parts if (k, j) in part), zero) for j in range(size)]
            for k in range(size)]


def diagonalize(x: SuperMatrix) -> dict:
    """Exact diagonalization of a supermatrix over a Grassmann algebra.

    Every entry must be a rational body plus a soul in the ideal of the odd
    generators; DegenerateSpectrumError names the first entry that is not.
    Conjugates by the rational eigenbasis V of the block bodies, then solves
    for each eigenvector column of Q one theta degree at a time, dividing only
    by the rational gaps b_pos - b_k between distinct bodies.  u = V Q, and
    u^-1 = Q^-1 V^-1 from the rational block inverses and Q^-1 by degree.  Both
    degree recurrences keep only the nonzero degree parts and multiply those.
    """
    m, n = x.m, x.n
    algebra = x.algebra
    zero = algebra.zero()
    for i, row in enumerate(x.entries):
        for j, e in enumerate(row):
            even = odd_degree_parts(e).get(0)  # the body and any soul term without odd factors
            if even is not None and even != even.constant_term():
                raise DegenerateSpectrumError(
                    f"entry ({i + 1}, {j + 1}) is not a rational body plus a soul in the odd ideal")
    a, b, c, d = x.blocks()
    a_roots, v1 = _rational_eigenbasis([[e.constant_term() for e in row] for row in a])
    d_roots, v2 = _rational_eigenbasis([[e.constant_term() for e in row] for row in d])
    bodies = list(a_roots) + list(d_roots)
    if len(set(bodies)) != len(bodies):
        raise DegenerateSpectrumError("eigenvalue bodies collide across the blocks")
    size = m + n
    v, v_inv = ([[zero] * size for _ in range(size)] for _ in range(2))
    for offset, block in ((0, v1), (m, v2)):
        for grid, values in ((v, block), (v_inv, ratlinalg.inv(block))):
            for i, row in enumerate(values):
                for j, value in enumerate(row):
                    grid[offset + i][offset + j] = algebra.scalar(value)
    v_mat = SuperMatrix(m, n, v, validate=False)
    v_inv_mat = SuperMatrix(m, n, v_inv, validate=False)
    xp = v_inv_mat @ x @ v_mat

    # soul[k][t]: {e: the part of xp[k, t] - b_k [k == t] with e >= 1 odd factors}, nonzero
    # parts only; rows[k] lists them as (e, t, part), by e and then t
    units = _grassmann_units(algebra)
    soul = [[odd_degree_parts(xp[k + 1, t + 1] - (bodies[k] if k == t else 0))
             for t in range(size)] for k in range(size)]
    rows = [[(e, t, soul[k][t][e]) for e in range(1, units + 1) for t in range(size)
             if e in soul[k][t]] for k in range(size)]
    columns = []
    degree_parts = []  # degree_parts[pos][k][d]: the degree-d part of entry (k, pos) of Q
    eigenvalues = []
    for pos in range(size):
        # z[k], minus_shift: {d: the nonzero degree-d part} of z_k and of b_pos - omega
        z = [{0: algebra.scalar(1)} if k == pos else {} for k in range(size)]
        minus_shift = {}
        inverse_gaps = [Fraction(1) / (bodies[pos] - b) if k != pos else 0
                        for k, b in enumerate(bodies)]
        for d in range(1, units + 1):
            lower = [[(s, z[t][d - e]) for e, t, s in rows[k] if e <= d and d - e in z[t]]
                     for k in range(size)]
            shift = sum_of_products(zero, lower[pos])
            if not shift.is_zero:
                minus_shift[d] = -shift
            for k in range(size):
                if k == pos:
                    continue
                value = sum_of_products(zero, [
                    *lower[k], *((s, z[k][d - e]) for e, s in minus_shift.items() if d - e in z[k])])
                if not value.is_zero:
                    z[k][d] = value * inverse_gaps[k]
        degree_parts.append([[parts.get(e, zero) for e in range(units + 1)] for parts in z])
        z = [sum(parts.values(), zero) for parts in z]
        omega = algebra.scalar(bodies[pos]) - sum(minus_shift.values(), zero)
        for k in range(size):
            lhs = sum_of_products(zero, ((xp[k + 1, t + 1], z[t]) for t in range(size)))
            if lhs != omega * z[k]:
                raise DegenerateSpectrumError("eigenvector solve failed its check X'z = omega z")
        eigenvalues.append(omega)
        columns.append(z)

    q = [[columns[j][i] for j in range(size)] for i in range(size)]
    u = v_mat @ SuperMatrix(m, n, q, validate=False)
    u_inv = SuperMatrix(m, n, _unipotent_inverse(degree_parts, algebra), validate=False) @ v_inv_mat
    residual = (u_inv @ x @ u) - SuperMatrix.diagonal(m, n, eigenvalues)
    return {
        "u": u,
        "u_inv": u_inv,
        "even_eigenvalues": eigenvalues[:m],
        "odd_eigenvalues": eigenvalues[m:],
        "residual": residual,
        "residual_zero": all(e.is_zero for row in residual.entries for e in row),
    }


# ---------------------------------------------------------------------------
# Weight-space supertrace (the subspace route to the normalized immanant)
# ---------------------------------------------------------------------------


def weight_space_supertrace(shape, weight, x: SuperMatrix) -> SuperPoly:
    """Supertrace of (P_w x 1) . Delta . P_w on the copy of the irreducible
    carved out of the tensor space by the primitive idempotent of the
    row-reading tableau.

    The subspace is the idempotent's image of the weight slice; the trace is
    taken against the Gram matrix of the product-delta form on an explicit
    basis, so this route never goes through the immanant formula.
    """
    shape = normalize_partition(shape)
    if sum(shape) != sum(weight):
        raise SuperMatrixError("shape size and weight size differ")
    if len(weight) != x.size:
        raise SuperMatrixError(f"weight needs one multiplicity per index, {x.size} in all")
    m = x.m
    multiset = composition_to_multiset(weight)

    e = primitive_idempotent(row_reading_tableau(shape))
    vectors = []
    for key in arrangements(multiset):
        vec = apply_group_algebra_to_state(e, {key: Fraction(1)}, m)
        if vec:
            vectors.append(vec)
    if not vectors:
        return x.algebra.zero()
    coords = sorted({k for vec in vectors for k in vec})
    rows = [[vec.get(k, Fraction(0)) for k in coords] for vec in vectors]
    red, pivots = ratlinalg.rref(rows)
    basis = [
        {coords[i]: row[i] for i in range(len(coords)) if row[i]}
        for row in red[: len(pivots)]
    ]
    gram = [[Fraction(bilinear_form(v, w)) for w in basis] for v in basis]
    gram_inv = ratlinalg.inv(gram)

    block = {key: chain_state(x, key) for key in {k for v in basis for k in v}}
    images = []
    for v in basis:
        image: dict = {}
        for key, coeff in v.items():
            for out_key, value in block[key].items():
                state_add(image, out_key, value * coeff)
        images.append(image)
    acc = x.algebra.zero()
    for k_idx in range(len(basis)):
        for j_idx in range(len(basis)):
            factor = gram_inv[j_idx][k_idx]
            if factor == 0:
                continue
            pairing = bilinear_form(images[k_idx], basis[j_idx])
            if isinstance(pairing, SuperPoly):
                acc = acc + pairing * factor
    return -acc if tensor_weight(multiset, m) < 0 else acc


def schur_weyl_norm_report(tab, weight, m: int, n: int) -> dict:
    """Norm bookkeeping for one idempotent image vector E_T e_I: the vector,
    whether it vanishes, its self-pairing, and the relabelled filling."""
    weight = tuple(weight)
    multiset = composition_to_multiset(weight)
    e = primitive_idempotent(tab)
    vec = apply_group_algebra_to_state(e, {multiset: Fraction(1)}, m)
    norm = Fraction(bilinear_form(vec, vec)) if vec else Fraction(0)
    filling = relabel_by_weight(tab, weight)
    return {
        "filling": filling,
        "semistandard": is_semistandard_super(filling, m, n),
        "vector_zero": not vec,
        "norm": norm,
        "vector": vec,
    }


# ---------------------------------------------------------------------------
# Matrix ingestion
# ---------------------------------------------------------------------------


def load_supermatrix(text: str) -> SuperMatrix:
    """Parse the structured matrix document: block sizes, generator parities,
    and a grid of expressions in the polynomial grammar."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise SuperMatrixError("matrix document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise SuperMatrixError("matrix document must be a JSON object")
    try:
        m, n, gens, grid = doc["m"], doc["n"], doc["generators"], doc["entries"]
    except KeyError as exc:
        raise SuperMatrixError(f"matrix document is missing {exc.args[0]!r}") from exc
    if type(m) is not int or type(n) is not int or min(m, n) < 0:
        raise SuperMatrixError("block sizes m and n must be non-negative JSON integers")
    if not isinstance(gens, dict):
        raise SuperMatrixError("generators must be a JSON object of parities")
    alg = Algebra("loaded")
    for name, parity in gens.items():
        if parity not in ("even", "odd"):
            raise SuperMatrixError(f"parity of {name!r} must be 'even' or 'odd'")
        alg.declare(name, Parity.EVEN if parity == "even" else Parity.ODD)
    d = m + n
    if not isinstance(grid, list) or len(grid) != d or any(
        not isinstance(row, list) or len(row) != d for row in grid
    ):
        raise SuperMatrixError(f"entries must form a {d}x{d} grid")
    if not all(isinstance(cell, str) for row in grid for cell in row):
        raise SuperMatrixError("each entry must be an expression string")
    rows = [[parse_poly(alg, cell) for cell in row] for row in grid]
    return SuperMatrix(m, n, rows)
