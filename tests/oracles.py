"""Second routes kept for the tests, outside the library:

- the primitive idempotent built as an element of the group algebra and
  applied to every arrangement of a multiset, where the library applies its
  Jucys-Murphy factors to the semistandard keys;
- the primitive idempotent built by the fusion procedure, and the
  transposition relation between the idempotents of neighbouring tableaux;
- conjugation in the group algebra;
- the star product with the flip applied slot by slot, where the library
  uses one entry formula;
- the rearrangement K = I o perm of the immanant's literal permutation sum,
  where the library acts by perm . I with the sign taken at I;
- the partition check that always copies and rescans its input, where the
  library returns an already-normal tuple after one pass.
"""

from fractions import Fraction
from itertools import product

from superimm import ratlinalg
from superimm.immanants import SuperMatrix, _nonzero_columns, chain_coefficient
from superimm.superring import linear_combination
from superimm.symgroup import GroupAlgebraElement, Permutation, SymGroupError, primitive_idempotent
from superimm.tableaux import StandardTableau, TableauxError, hook_product
from superimm.tensorspace import (
    apply_group_algebra_to_state,
    apply_matrix_at_slot,
    parity_weight,
    tensor_weight,
    tuple_parities,
)


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


def composed_tuple(indices, perm: Permutation) -> tuple[int, ...]:
    """The tuple K with K_a = I_{perm(a)}."""
    return tuple(indices[perm.images[a] - 1] for a in range(len(indices)))


def dense_image(tab, multiset, m: int) -> list:
    """The nonzero vectors E_T|K> over every arrangement K of the multiset,
    E_T built in the group algebra."""
    e = primitive_idempotent(tab)
    vectors = (apply_group_algebra_to_state(e, {key: 1}, m) for key in arrangements(multiset))
    return [vec for vec in vectors if vec]


def rows_of(vectors) -> list:
    """The vectors as rows over the sorted union of their keys."""
    coords = sorted({k for vec in vectors for k in vec})
    return [[vec.get(k, 0) for k in coords] for vec in vectors]


def dense_image_trace(tab, x, multiset):
    """Supertrace of X_1...X_r on the image of the built E_T in the weight
    slice of the multiset, read off the reduced echelon basis of the dense
    image."""
    vectors = dense_image(tab, multiset, x.m)
    if not vectors:
        return x.algebra.zero()
    coords = sorted({k for vec in vectors for k in vec})
    red, pivots = ratlinalg.rref(rows_of(vectors))
    acc = linear_combination(x.algebra, ((c, chain_coefficient(x, coords[pivot], key))
                                         for row, pivot in zip(red, pivots)
                                         for key, c in zip(coords, row) if c))
    return -acc if tensor_weight(multiset, x.m) < 0 else acc


# ---------------------------------------------------------------------------
# The group algebra and its idempotents
# ---------------------------------------------------------------------------


def conjugate_by(elem: GroupAlgebraElement, s: Permutation) -> GroupAlgebraElement:
    """s elem s^-1."""
    s_inv = s.inverse()
    return GroupAlgebraElement(elem.degree, {s * p * s_inv: c for p, c in elem.terms.items()})


def axial_distance(tab: StandardTableau, i: int) -> int:
    """Content gap between entries i+1 and i."""
    return tab.content(i + 1) - tab.content(i)


def swap_entries(tab: StandardTableau, a: int, b: int):
    """Filling with entries a and b exchanged; None if not standard."""
    rows = [list(row) for row in tab.rows]
    (ia, ja), (ib, jb) = tab.position(a), tab.position(b)
    rows[ia][ja], rows[ib][jb] = b, a
    try:
        return StandardTableau(rows)
    except TableauxError:
        return None


def _times_linear(poly: list, k: int) -> list:
    """poly(w) * (k - w), lowest degree first; poly's top coefficient is 0."""
    return [k * c - prev for c, prev in zip(poly, [0] + poly)]


def fusion_idempotent(tab: StandardTableau) -> GroupAlgebraElement:
    """Cross-check construction by the fusion procedure (Molev, Rep. Math.
    Phys. 61 (2008), arXiv:math/0612207): E_T is 1/h(shape) times the product
    of the factors 1 - (a,b)/(z_a - z_b) taken by b, then by a (Yang-Baxter
    makes it the lexicographic product), evaluated consecutively at z_b = c_b,
    the contents of T.

    Once z_1..z_{b-1} are fixed, z_b = c_b + w is the only variable, and later
    columns are regular at w = 0.  With prod_a (c_a - c_b - w) cleared, the
    coefficients are polynomials in w; at w = 0 each is the numerator's
    coefficient at the denominator's lowest non-zero degree over the latter's,
    and a non-zero numerator coefficient below it is an unremovable pole.
    """
    r = tab.size
    coeffs = {Permutation.identity(r): Fraction(1)}
    for b in range(2, r + 1):
        cb = tab.content(b)
        num = {p: [c] + [0] * (b - 1) for p, c in coeffs.items()}
        den = [1] + [0] * (b - 1)
        for a in range(1, b):
            k = tab.content(a) - cb
            s = Permutation.transposition(a, b, r)
            new: dict[Permutation, list] = {}
            for p, poly in num.items():
                for q, part in ((p, _times_linear(poly, k)), (p * s, [-c for c in poly])):
                    old = new.get(q)
                    new[q] = part if old is None else [x + y for x, y in zip(old, part)]
            num = new
            den = _times_linear(den, k)
        d = next(i for i, c in enumerate(den) if c)
        coeffs = {}
        for p, poly in num.items():
            if any(poly[:d]):
                raise SymGroupError(f"unremovable pole at z_{b} for tableau {tab!r}")
            if poly[d]:
                coeffs[p] = Fraction(poly[d], den[d])
    return GroupAlgebraElement(r, coeffs) * Fraction(1, hook_product(tab.shape))


def transposition_relation(tab: StandardTableau, a: int) -> dict:
    """Exact check of E_T (s_a - 1/d) = E_T s_a E_{s_a T}, with the right-hand
    idempotent zero when the flipped filling is not standard."""
    r = tab.size
    if not 1 <= a < r:
        raise SymGroupError("need 1 <= a < r")
    d = axial_distance(tab, a)
    s = GroupAlgebraElement.of(Permutation.transposition(a, a + 1, r))
    e = primitive_idempotent(tab)
    flipped = swap_entries(tab, a, a + 1)
    lhs = e * (s - Fraction(1, d))
    if flipped is None:
        rhs = GroupAlgebraElement(r)
    else:
        rhs = e * s * primitive_idempotent(flipped)
    return {
        "axial_distance": d,
        "flipped_standard": flipped is not None,
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs == rhs,
    }


# ---------------------------------------------------------------------------
# The star product, slot by slot
# ---------------------------------------------------------------------------


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


def normalize_partition_rescanned(parts) -> tuple[int, ...]:
    """The partition with its zeros dropped, every input copied and scanned
    three times: TableauxError for a part that is not a non-negative int (a
    bool is not) or for an increase."""
    parts = tuple(p for p in parts if p.__class__ is not int or p)
    if any(p.__class__ is not int or p < 0 for p in parts):  # bool included
        raise TableauxError(f"partition parts must be non-negative integers, got {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise TableauxError(f"{parts} is not weakly decreasing")
    return parts
