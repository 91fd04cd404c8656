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
from math import factorial

from superimm import ratlinalg, superring
from superimm.superring import (
    Algebra,
    GrassmannPoint,
    MAX_ORDER,
    NotInvertibleError,
    Parity,
    SuperPoly,
    TruncatedSeries,
    linear_combination,
    odd_degree_parts,
    parse_poly,
    sum_of_products,
)
from superimm.symgroup import commuting_determinant, permutation_sum, symmetric_group
from superimm.tableaux import (
    StandardTableau,
    character,
    class_size,
    is_semistandard_super,
    normalize_partition,
    partitions,
    relabel_by_weight,
    row_reading_tableau,
    semistandard_super_tableaux,
)
from superimm.tensorspace import (
    action_sign,
    apply_idempotent,
    apply_matrix_at_slot,
    bilinear_form,
    composition_to_multiset,
    comodule_sign,
    immanant_prefactor,
    index_parity,
    parity_weight,
    permuted_tuple,
    repetition_factor,
    sorted_multisets,
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
    entry (i,j) must be homogeneous of parity par(i)+par(j).  `_chains`, set
    on first use, holds the memos of what the library reads off x (`_chain_memo`)."""

    __slots__ = ("m", "n", "entries", "algebra", "_chains")

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
    return _character_table(shape, character)


@lru_cache(maxsize=None)
def _character_table(shape, char) -> dict:
    """{cycle type: char(shape, cycle type)}, shared: `char`, the `character`
    in force, is in the key.  Read it, never change it."""
    return {ct: char(shape, ct) for ct in partitions(sum(shape))}


@lru_cache(maxsize=None)
def _typed_permutations(r: int) -> tuple:
    """The (permutation, cycle type) pairs of S_r."""
    return tuple((perm, perm.cycle_type()) for perm in symmetric_group(r))


@lru_cache(maxsize=None)
def _signed_class_table(row_indices, m: int, sign) -> tuple:
    """(K, ((mu, C_mu(K)), ...)) per K = perm . I, in first-appearance order: perm sends e_I
    to sign(I, m, perm) e_K, the slice action's move, and C_mu(K) sums those signs over its
    perms of cycle type mu, zeros left out.  `sign` is in the key."""
    counts: dict = {}
    for perm, ct in _typed_permutations(len(row_indices)):
        by_type = counts.setdefault(permuted_tuple(row_indices, perm), {})
        by_type[ct] = by_type.get(ct, 0) + sign(row_indices, m, perm)
    return tuple((k, tuple((ct, c) for ct, c in t.items() if c)) for k, t in counts.items())


def _chain_memo(x: SuperMatrix) -> dict:
    """x's memo of chain coefficients, power traces, their products and series,
    one per set of seams in force: the functions those values read that a test
    may replace, looked up at call time, so a seam replaced later gets a fresh memo."""
    seams = (comodule_sign, parity_weight, characteristic_series, _adjugate,
             superring.merge_odd_parts)
    try:
        chains = x._chains
    except AttributeError:
        chains = x._chains = {}
    return chains.setdefault(seams, {})


def super_immanant(char, x: SuperMatrix, row_indices, col_indices=None) -> SuperPoly:
    """Character-weighted, Koszul-signed permutation sum over a generalized
    submatrix.  `char` is a partition or a {cycle_type: value} dict.  Each chain
    coefficient is memoized on x under (K, J) (see `_chain_memo`)."""
    row_indices = tuple(row_indices)
    col_indices = row_indices if col_indices is None else tuple(col_indices)
    _check_indices(x.size, row_indices, col_indices)
    chi = _as_class_function(char, len(row_indices))
    memo = _chain_memo(x)
    pairs = []
    for k, counts in _signed_class_table(row_indices, x.m, action_sign):
        total = sum(chi[ct] * c for ct, c in counts)
        if total != 0:
            key = (k, col_indices)
            chain = memo.get(key)
            if chain is None:
                chain = memo[key] = chain_coefficient(x, k, col_indices)
            pairs.append((total, chain))
    acc = linear_combination(x.algebra, pairs)
    return -acc if immanant_prefactor(row_indices, col_indices, x.m) < 0 else acc


def idempotent_chain_supertrace(tab: StandardTableau, x: SuperMatrix) -> SuperPoly:
    """Full supertrace of E_T X_1...X_r over the r-fold tensor space, r = |T|:
    the trace of X_1...X_r on E_T's image, slice by slice (`_image_trace`)."""
    if not isinstance(tab, StandardTableau):
        raise SuperMatrixError(f"expected a StandardTableau, got {type(tab).__name__}")
    multisets = sorted_multisets(x.m, x.n, tab.size)
    return linear_combination(x.algebra, ((1, _image_trace(tab, x, ms)) for ms in multisets))


def normalized_immanant_table(shape, x: SuperMatrix) -> dict:
    """{I: immanant(shape, I) / I!} over the non-decreasing multisets I of
    size |shape|, zero entries left out: Littlewood's correspondence read
    multiset by multiset."""
    shape = normalize_partition(shape)
    table = {}
    for indices in sorted_multisets(x.m, x.n, sum(shape)):
        value = super_immanant(shape, x, indices)
        if not value.is_zero:
            table[indices] = value * Fraction(1, repetition_factor(indices))
    return table


@lru_cache(maxsize=None)
def _class_weights(r: int) -> tuple:
    """The (mu, 1/z_mu = |C_mu|/r!) pairs over the partitions mu of r."""
    return tuple((mu, Fraction(class_size(mu), factorial(r))) for mu in partitions(r))


def normalized_immanant_sum(shape, x: SuperMatrix) -> SuperPoly:
    """Sum over non-decreasing multisets I of immanant(shape, I) / I!, by the
    super Frobenius formula: sum over mu |- r of chi^shape(mu) / z_mu times
    the product p_mu of the power traces p_{mu_i}.  Each p_mu is memoized on x
    under ("p", mu) (see `_chain_memo`; p_(k) is `power_trace`'s own entry) and
    built along mu, so a prefix shared by several mu is multiplied once per x."""
    shape = normalize_partition(shape)
    memo = _chain_memo(x)
    table = _character_table(shape, character)
    pairs = []
    for mu, weight in _class_weights(sum(shape)):
        chi = table[mu]
        if chi == 0:
            continue
        product = power_trace(x, mu[0]) if mu else x.algebra.one()
        for i in range(2, len(mu) + 1):
            key = ("p", mu[:i])
            if key not in memo:
                memo[key] = product * power_trace(x, mu[i - 1])
            product = memo[key]
        pairs.append((chi * weight, product))
    return linear_combination(x.algebra, pairs)


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
    _check_order(k)
    if k < 0:
        return x.algebra.zero()
    c = _series_memo(x, k).coefficient(k)
    return -c if k % 2 else c


def complete_invariant(x: SuperMatrix, k: int) -> SuperPoly:
    """The k-th complete invariant (supertrace of the symmetrizer): the u^k
    coefficient of the inverted characteristic series, since that series is
    lambda(-u) and MacMahon gives sigma(u) = 1/lambda(-u).  Checked like the
    elementary invariant, against the one-row shape."""
    _check_order(k)
    if k < 0:
        return x.algebra.zero()
    return _series_memo(x, k, inverted=True).coefficient(k)


def _star_entry(y: SuperMatrix, z: SuperMatrix, i: int, b: int) -> SuperPoly:
    """Entry (i, b) of the star product Y * Z: the one sign formula."""
    m = y.m
    pi, pb = index_parity(i, m), index_parity(b, m)
    pairs = []
    for a in range(1, y.size + 1):
        e1, e2 = y[i, a], z[a, b]
        if e1.is_zero or e2.is_zero:
            continue
        sign = parity_weight(a, m)
        if (pi * pb + (pi + pb) * index_parity(a, m)) % 2:
            sign = -sign
        pairs.append((e1, e2 if sign > 0 else -e2))
    return sum_of_products(y.algebra.zero(), pairs)


def star_product(y: SuperMatrix, z: SuperMatrix) -> SuperMatrix:
    """Contraction of the flip against Y on slot one and Z on slot two,
    as the derived entry formula (checked slot by slot in the tests)."""
    d = y.size
    rows = [[_star_entry(y, z, i, b) for b in range(1, d + 1)] for i in range(1, d + 1)]
    return SuperMatrix(y.m, y.n, rows, validate=False)


def _check_order(k, what: str = "series order") -> None:
    if k.__class__ is not int:  # bool included
        raise SuperMatrixError(f"{what} must be an integer")
    if k > MAX_ORDER:
        raise SuperMatrixError(f"{what} must be at most {MAX_ORDER}")


def _check_exponent(k) -> None:
    _check_order(k, "star exponent")
    if k < 0:
        raise SuperMatrixError("star power needs k >= 0")


def star_power(x: SuperMatrix, k: int) -> SuperMatrix:
    _check_exponent(k)
    if k == 0:
        return SuperMatrix.identity(x.m, x.n, x.algebra)
    out = x
    for _ in range(k - 1):
        out = star_product(out, x)
    return out


def power_trace(x: SuperMatrix, k: int) -> SuperPoly:
    """Supertrace of the k-th star power, memoized on x under ("p", (k,)) (see
    `_chain_memo`); for k >= 2 the parity-weighted diagonal of Y * Z alone,
    with Z = X^{*(k//2)} and Y = X^{*(k - k//2)} (the star product is associative).
    Each X^{*j}, j >= 2, is memoized on x under ("star", j), built as X^{*(j-1)} * X."""
    _check_exponent(k)
    memo, key = _chain_memo(x), ("p", (k,))
    if key in memo:
        return memo[key]
    if k < 2:
        memo[key] = supertrace(star_power(x, k))
    else:
        powers = [x]
        for j in range(2, k - k // 2 + 1):
            if ("star", j) not in memo:
                memo["star", j] = star_product(powers[-1], x)
            powers.append(memo["star", j])
        y, z = powers[-1], powers[k // 2 - 1]
        memo[key] = linear_combination(x.algebra, ((parity_weight(i, x.m), _star_entry(y, z, i, i))
                                                   for i in range(1, x.size + 1)))
    return memo[key]


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
    _check_order(order)
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


def _series_memo(x: SuperMatrix, order: int, inverted: bool = False) -> TruncatedSeries:
    """x's characteristic series, or its inverse, to `order` or beyond, memoized
    on x under ("series", inverted) (see `_chain_memo`).  A stored higher order
    is exact mod u^(order+1); a lower one is rebuilt and replaced."""
    memo = _chain_memo(x)
    key = ("series", inverted)
    series = memo.get(key)
    if series is None or not 0 <= order <= series.order:
        series = _series_memo(x, order).invert() if inverted else characteristic_series(x, order)
        memo[key] = series
    return series


def characteristic_coefficients(x: SuperMatrix, order: int) -> list[SuperPoly]:
    """The elementary invariants read off the characteristic series."""
    _check_order(order)
    series = _series_memo(x, order)
    return [-c if k % 2 else c for k, c in enumerate(series.coeffs[:order + 1])]


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
        shifted = [[v - root if i == j else v for j, v in enumerate(r)] for i, r in enumerate(block)]
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
    # rows[k]: the nonzero (e, t, -N^(e)[k][t]) with e >= 1, by e and then t
    rows = [[(e, t, -columns[t][k][e]) for e in range(1, top) for t in range(size)
             if not columns[t][k][e].is_zero] for k in range(size)]
    # parts[d][t]: {j: F^(d)[t][j]}, its nonzero entries
    parts = [[{k: algebra.scalar(1)} for k in range(size)]]
    for d in range(1, top):
        level = []
        for k in range(size):
            pairs = {}  # j: the (N^(e)[k][t], F^(d-e)[t][j]) pairs
            for e, t, p in rows[k]:
                if e <= d:
                    for j, f in parts[d - e][t].items():
                        pairs.setdefault(j, []).append((p, f))
            sums = ((j, sum_of_products(zero, ps)) for j, ps in pairs.items())
            level.append({j: s for j, s in sums if not s.is_zero})
        parts.append(level)
    return [[linear_combination(algebra, ((1, level[k][j]) for level in parts if j in level[k]))
             for j in range(size)] for k in range(size)]


def diagonalize(x: SuperMatrix) -> dict:
    """Exact diagonalization of a supermatrix over a Grassmann algebra.

    Every entry must be a rational body plus a soul in the ideal of the odd
    generators; DegenerateSpectrumError names the first entry that is not.
    Conjugates by the rational eigenbasis V of the block bodies, then solves
    for each eigenvector column of Q one theta degree at a time, dividing only
    by the rational gaps b_pos - b_k between distinct bodies.  u = V Q, and
    u^-1 = Q^-1 V^-1 from the rational block inverses and Q^-1 by degree.  Both
    degree recurrences keep only the nonzero degree parts and multiply those.
    One product W = X u gates the result: X u = u D, column by column, holds
    exactly when X'z = omega z, as u's column is V z; and u^-1 W - D must vanish.
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
    v_mat, v_inv_mat = (SuperMatrix(m, n, grid, validate=False) for grid in (v, v_inv))
    xp = v_inv_mat @ x @ v_mat

    # soul[k][t]: {e: the part of xp[k, t] with e odd factors}, nonzero parts only; rows[k]
    # lists those with e >= 1, the soul, as (e, t, part), by e and then t
    units = _grassmann_units(algebra)
    soul = [[odd_degree_parts(xp[k + 1, t + 1]) for t in range(size)] for k in range(size)]
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
        columns.append([linear_combination(algebra, ((1, p) for p in parts.values())) for parts in z])
        eigenvalues.append(linear_combination(algebra, [(bodies[pos], algebra.one()),
                                                        *((-1, s) for s in minus_shift.values())]))

    u = v_mat @ SuperMatrix(m, n, columns, validate=False).transpose()
    w = _mat_mul(x.entries, u.entries, zero)
    if any(w[k][pos] != omega * u.entries[k][pos]
           for pos, omega in enumerate(eigenvalues) for k in range(size)):
        raise DegenerateSpectrumError("eigenvector solve failed its check X'z = omega z")
    u_inv = SuperMatrix(m, n, _unipotent_inverse(degree_parts, algebra), validate=False) @ v_inv_mat
    residual = _mat_mul(u_inv.entries, w, zero)  # u^-1 X u, less D on the diagonal
    for k, omega in enumerate(eigenvalues):
        residual[k][k] -= omega
    return {
        "u": u,
        "u_inv": u_inv,
        "even_eigenvalues": eigenvalues[:m],
        "odd_eigenvalues": eigenvalues[m:],
        "residual": SuperMatrix(m, n, residual, validate=False),
        "residual_zero": all(e.is_zero for row in residual for e in row),
    }


# ---------------------------------------------------------------------------
# Weight-space supertrace (the subspace route to the normalized immanant)
# ---------------------------------------------------------------------------


def _semistandard_keys(tab: StandardTableau, m: int, n: int, multiset) -> list:
    """K_S for each (m|n)-semistandard super tableau S of T's shape and the
    multiset's weight: S's entry in each slot that T numbers."""
    weight = tuple(multiset.count(a) for a in range(1, m + n + 1))
    slots = [tab.position(k) for k in range(1, tab.size + 1)]
    return [tuple(s[i][j] for i, j in slots)
            for s in semistandard_super_tableaux(tab.shape, m, n, weight)]


def _image_trace(tab: StandardTableau, x: SuperMatrix, multiset) -> SuperPoly:
    """Supertrace of X_1...X_r on the image of E_T in the weight slice of
    `multiset`, read off the reduced echelon basis of the int vectors
    g E_T|K_S> over the `_semistandard_keys` K_S, which span that image
    (Berele and Regev, Adv. Math. 64 (1987), section 3).  X_1...X_r commutes
    with the S_r action, so it maps the image into itself; each basis vector
    v is 1 at its own pivot and 0 at the others, so the trace is the sum of
    the pivot coordinates of X_1...X_r v, times the slice's weight.  This
    route never goes through the immanant formula."""
    vectors = [apply_idempotent(tab, {key: 1}, x.m)[0]
               for key in _semistandard_keys(tab, x.m, x.n, multiset)]
    coords = sorted({k for vec in vectors for k in vec})
    rows = [[vec.get(k, 0) for k in coords] for vec in vectors]
    red, pivots = ratlinalg.rref(rows)
    acc = linear_combination(x.algebra, ((c, chain_coefficient(x, coords[pivot], key))
                                         for row, pivot in zip(red, pivots)
                                         for key, c in zip(coords, row) if c))
    return -acc if tensor_weight(multiset, x.m) < 0 else acc


def _check_weight(weight, d: int, r: int) -> None:
    """A weight is d non-negative int multiplicities, one per index, summing to r."""
    if len(weight) != d:
        raise SuperMatrixError(f"weight needs one multiplicity per index, {d} in all")
    if any(a.__class__ is not int or a < 0 for a in weight):
        raise SuperMatrixError("weight entries must be non-negative integers")
    if r != sum(weight):
        raise SuperMatrixError("shape size and weight size differ")


def weight_space_supertrace(shape, weight, x: SuperMatrix) -> SuperPoly:
    """Supertrace of (P_w x 1) . Delta . P_w on the copy of the irreducible
    carved out of the tensor space by the primitive idempotent of the
    row-reading tableau, read off the reduced echelon basis of its image in
    the weight slice (`_image_trace`)."""
    shape = normalize_partition(shape)
    _check_weight(weight, x.size, sum(shape))
    return _image_trace(row_reading_tableau(shape), x, composition_to_multiset(weight))


def schur_weyl_norm_report(tab, weight, m: int, n: int) -> dict:
    """Norm bookkeeping for one idempotent image vector: g E_T e_I (see
    `apply_idempotent`), whether it vanishes, the self-pairing of E_T e_I,
    and the relabelled filling."""
    weight = tuple(weight)
    _check_weight(weight, m + n, tab.size)
    vec, g = apply_idempotent(tab, {composition_to_multiset(weight): 1}, m)
    filling = relabel_by_weight(tab, weight)
    return {
        "filling": filling,
        "semistandard": is_semistandard_super(filling, m, n),
        "vector_zero": not vec,
        "norm": Fraction(bilinear_form(vec, vec), g * g),
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
