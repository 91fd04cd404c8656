import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import conjugate_by, fusion_idempotent, transposition_relation
from superimm.superring import Algebra, TruncatedSeries
from superimm.symgroup import (
    MAX_DEGREE,
    GroupAlgebraElement,
    Permutation,
    SymGroupError,
    central_idempotent,
    character_element,
    commuting_determinant,
    jucys_murphy,
    permutation_sum,
    primitive_idempotent,
    symmetric_group,
)
from superimm.tableaux import partitions, standard_tableaux


def all_tableaux(r):
    for lam in partitions(r):
        yield from standard_tableaux(lam)


def test_permutation_basics():
    s = Permutation((2, 1, 3))
    t = Permutation((1, 3, 2))
    assert (s * t).images == (2, 3, 1)
    assert s.inverse() == s
    assert s.cycle_type() == (2, 1)
    assert s.sign() == -1
    assert Permutation.identity(3).cycle_type() == (1, 1, 1)


def test_jucys_murphy_examples():
    assert jucys_murphy(1, 3).is_zero
    y2 = jucys_murphy(2, 2)
    assert y2 == GroupAlgebraElement.of(Permutation.transposition(1, 2, 2))


def test_jucys_murphy_commute():
    for r in range(2, 6):
        ys = [jucys_murphy(k, r) for k in range(2, r + 1)]
        for a in ys:
            for b in ys:
                assert a * b == b * a


def test_degree_two_idempotents():
    row, = standard_tableaux((2,))
    col, = standard_tableaux((1, 1))
    s = GroupAlgebraElement.of(Permutation.transposition(1, 2, 2))
    one = GroupAlgebraElement.one(2)
    assert primitive_idempotent(row) == (one + s) * Fraction(1, 2)
    assert primitive_idempotent(col) == (one - s) * Fraction(1, 2)


def test_idempotent_eigenvector_property():
    for r in range(2, 5):
        for tab in all_tableaux(r):
            e = primitive_idempotent(tab)
            assert e * e == e
            for k in range(2, r + 1):
                yk = jucys_murphy(k, r)
                c = Fraction(tab.content(k))
                assert yk * e == c * e
                assert e * yk == c * e


def test_idempotent_completeness():
    for r in range(1, 6):
        total = GroupAlgebraElement(r)
        for tab in all_tableaux(r):
            total = total + primitive_idempotent(tab)
        assert total == GroupAlgebraElement.one(r)


def test_idempotent_orthogonality_exhaustive():
    for r in range(2, 5):
        tabs = list(all_tableaux(r))
        for t1 in tabs:
            for t2 in tabs:
                prod = primitive_idempotent(t1) * primitive_idempotent(t2)
                if t1 == t2:
                    assert prod == primitive_idempotent(t1)
                else:
                    assert prod.is_zero


def test_idempotent_orthogonality_sampled_degree_five():
    tabs = list(all_tableaux(5))
    rng = random.Random(20240613)
    for _ in range(25):
        t1, t2 = rng.choice(tabs), rng.choice(tabs)
        prod = primitive_idempotent(t1) * primitive_idempotent(t2)
        assert prod == (primitive_idempotent(t1) if t1 == t2 else GroupAlgebraElement(5))


def test_fusion_matches_spectral_construction():
    for r in range(1, 6):
        for tab in all_tableaux(r):
            assert fusion_idempotent(tab) == primitive_idempotent(tab)


def test_character_element_and_bridge_identity():
    for r in range(1, 5):
        for lam in partitions(r):
            chi = character_element(lam)
            for tab in standard_tableaux(lam):
                e = primitive_idempotent(tab)
                total = GroupAlgebraElement(r)
                for s in symmetric_group(r):
                    total = total + conjugate_by(e, s)
                assert total == chi


def test_central_idempotents():
    for r in range(1, 5):
        for lam in partitions(r):
            z = central_idempotent(lam)
            assert z * z == z
            for mu in partitions(r):
                if mu != lam:
                    assert (z * central_idempotent(mu)).is_zero
    # trivial character: the full symmetrizer
    chi = character_element((3,))
    assert all(c == 1 for c in chi.terms.values()) and len(chi.terms) == 6


def test_transposition_relation_degree_two():
    row, = standard_tableaux((2,))
    rep = transposition_relation(row, 1)
    assert rep["axial_distance"] == 1
    assert not rep["flipped_standard"]
    assert rep["holds"]
    assert rep["lhs"].is_zero


def test_transposition_relation_exhaustive():
    for r in range(2, 5):
        for tab in all_tableaux(r):
            for a in range(1, r):
                assert transposition_relation(tab, a)["holds"]


def test_star_involution():
    a = jucys_murphy(3, 3) + Fraction(1, 2) * GroupAlgebraElement.of(Permutation((2, 3, 1)))
    b = GroupAlgebraElement.of(Permutation((3, 1, 2))) - 2
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a
    # idempotents are self-adjoint under the involution
    for tab in all_tableaux(4):
        e = primitive_idempotent(tab)
        assert e.star() == e


def test_equal_elements_hash_equal():
    one = GroupAlgebraElement.one(3)
    y2 = jucys_murphy(2, 3)
    assert y2 * y2 == one
    assert one != 1 and GroupAlgebraElement(3) != 0
    pairs = [(y2 * y2, one), (one, 1), (GroupAlgebraElement(3), 0), (y2 - y2, GroupAlgebraElement(3))]
    for a, b in pairs:
        assert a != b or hash(a) == hash(b)


def test_jm_range_errors():
    with pytest.raises(SymGroupError):
        jucys_murphy(4, 3)


def test_symmetric_group_refuses_a_degree_above_eight():
    assert MAX_DEGREE == 8
    with pytest.raises(SymGroupError, match="^S_9 is too large to enumerate: degrees above 8 are refused$"):
        symmetric_group(MAX_DEGREE + 1)


def test_transposition_refuses_points_outside_the_degree_or_equal():
    """(5, 1, 3) raised IndexError and (2, 2, 3) returned the identity."""
    assert Permutation.transposition(3, 1, 3).images == (3, 2, 1)
    for a, b, r in [(5, 1, 3), (2, 2, 3), (0, 1, 3), (1, 4, 3), (-1, 2, 3), (1, 1, 1)]:
        with pytest.raises(SymGroupError) as info:
            Permutation.transposition(a, b, r)
        assert "\n" not in str(info.value)


def test_bad_group_algebra_input_raises_one_typed_error():
    """A key that is not a permutation of the element's degree, and factors of
    mixed degrees, fail with a one-line SymGroupError, never a wrong result."""
    s3, s2 = Permutation((2, 1, 3)), Permutation((2, 1))
    bad = [
        lambda: GroupAlgebraElement(3, {s2: 1}),
        lambda: GroupAlgebraElement(2, {(2, 1): 1}),
        lambda: GroupAlgebraElement(2, {s2: 1, "swap": 0}),
        lambda: s3 * s2,
        lambda: s2 * (2, 1),
        lambda: GroupAlgebraElement.one(3) * GroupAlgebraElement.one(2),
        lambda: GroupAlgebraElement.one(3) + GroupAlgebraElement.one(2),
        lambda: conjugate_by(GroupAlgebraElement.one(3), s2),
    ]
    for make in bad:
        with pytest.raises(SymGroupError) as info:
            make()
        assert "\n" not in str(info.value)


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def _raw_elements(r):
    return st.dictionaries(st.sampled_from(symmetric_group(r)), _rationals, max_size=6)


_cases = st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.just(r), _raw_elements(r), _raw_elements(r), st.sampled_from(symmetric_group(r))))


def _reference_sum(*scaled_terms):
    """Sum of c * terms over (c, {perm: Fraction}) pairs, zeros left out."""
    out: dict = {}
    for c, terms in scaled_terms:
        for p, v in terms.items():
            out[p] = out.get(p, 0) + c * v
    return {p: v for p, v in out.items() if v}


def _reference_product(a, b):
    out: dict = {}
    for p, cp in a.items():
        for q, cq in b.items():
            pq = Permutation(tuple(p.images[j - 1] for j in q.images))
            out[pq] = out.get(pq, 0) + cp * cq
    return {p: v for p, v in out.items() if v}


def _assert_canonical(e):
    """Stored as nonzero int numerators over one reduced positive denominator."""
    nums = list(e.numerators.values())
    assert all(type(c) is int and c != 0 for c in nums)
    assert type(e.denominator) is int and e.denominator >= 1
    assert gcd(e.denominator, *nums) == 1
    assert nums or e.denominator == 1


@given(_cases, _rationals)
@example(case=(2, {Permutation((2, 1)): Fraction(1, 2)}, {Permutation((2, 1)): Fraction(1, 2)},
               Permutation((2, 1))), s=Fraction(0))
@settings(max_examples=200, deadline=None)
def test_every_group_algebra_result_is_stored_over_one_reduced_denominator(case, s):
    """Each result of +, -, products, scalar multiples, star and conjugation is
    canonical and shows the coefficients of a Fraction reference; equal
    elements hash equal."""
    r, raw_a, raw_b, g = case
    a, b = GroupAlgebraElement(r, raw_a), GroupAlgebraElement(r, raw_b)
    ref_a, ref_b = _reference_sum((1, raw_a)), _reference_sum((1, raw_b))
    one = {Permutation.identity(r): Fraction(1)}
    g_inv = g.inverse()
    results = [
        (a, ref_a),
        (a + b, _reference_sum((1, ref_a), (1, ref_b))),
        (a - b, _reference_sum((1, ref_a), (-1, ref_b))),
        (a + s, _reference_sum((1, ref_a), (s, one))),
        (s - a, _reference_sum((s, one), (-1, ref_a))),
        (a * b, _reference_product(ref_a, ref_b)),
        (a * s, _reference_sum((s, ref_a))),
        (s * a, _reference_sum((s, ref_a))),
        (a.star(), {p.inverse(): c for p, c in ref_a.items()}),
        (conjugate_by(a, g), {g * p * g_inv: c for p, c in ref_a.items()}),
    ]
    for elem, ref in results:
        _assert_canonical(elem)
        assert elem.terms == ref
        assert all(elem.coefficient(p) == ref.get(p, 0) for p in symmetric_group(r))
    for p, q in [
        (a * s + a * (1 - s), a),
        ((a + b) - b, a),
        (a * Fraction(1, 2) + a * Fraction(1, 2), a),
        (a.star().star(), a),
        (conjugate_by(conjugate_by(a, g), g_inv), a),
    ]:
        assert p == q and hash(p) == hash(q)


# ---------------------------------------------------------------------------
# permutation_sum
# ---------------------------------------------------------------------------


def _unit_first_sum(entries, coefficient, one):
    """The permutation sum with each term started at `one`: the oracle."""
    acc = one * 0
    for perm in symmetric_group(len(entries)):
        c = coefficient(perm)
        if c == 0:
            continue
        term = one
        for i, row in enumerate(entries):
            term = term * row[perm.images[i] - 1]
            if term.is_zero:
                break
        else:
            acc = acc + (term if c == 1 else -term if c == -1 else term * c)
    return acc


def _even_algebra():
    """Two even generators and two odd ones, whose product is an even square-zero element."""
    alg = Algebra("permutation sums")
    a, b = alg.even("a", "b")
    th1, th2 = alg.odd("th1", "th2")
    return alg, [alg.zero(), alg.one(), a, b, a - 2, a * b + 3, th1 * th2, a * th1 * th2]


def test_permutation_sum_of_the_empty_grid_is_one():
    alg, _ = _even_algebra()
    assert permutation_sum([], Permutation.sign, alg.one()) == alg.one()
    one = TruncatedSeries.one(alg, 3)
    assert commuting_determinant([], one) == one


def test_permutation_sum_of_a_one_by_one_grid_is_its_entry():
    alg, polys = _even_algebra()
    for entry in polys:
        assert commuting_determinant([[entry]], alg.one()) == entry


def test_permutation_sum_truncates_to_the_order_of_one():
    """Entries of a higher order than `one` still give a sum at `one`'s order."""
    alg, (_, _, a, b, *_) = _even_algebra()
    long = [[TruncatedSeries(alg, [a, b, a * b, a, b], 4)]]
    one = TruncatedSeries.one(alg, 2)
    got = commuting_determinant(long, one)
    assert got.order == 2 and got == TruncatedSeries(alg, [a, b, a * b], 2)
    series = TruncatedSeries.from_polys
    grid = [[series(alg, [a, b], 5), series(alg, [b], 4)],
            [series(alg, [alg.one(), a, b], 6), series(alg, [a], 5)]]
    got = commuting_determinant(grid, one)
    assert got.order == 2 and got == _unit_first_sum(grid, Permutation.sign, one)


_COEFFICIENTS = {
    "sign": Permutation.sign,
    "character-like": lambda perm: {(1,): 2, (2,): 0, (3,): -1}.get(perm.cycle_type()[:1], 1),
}


@given(st.integers(0, 3), st.sampled_from(sorted(_COEFFICIENTS)), st.booleans(),
       st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_permutation_sum_matches_the_unit_first_product(size, name, series, order, data):
    """Over SuperPoly grids and over series grids of mixed orders, with zero
    and square-zero entries, the sum equals the one whose terms start at `one`."""
    alg, polys = _even_algebra()
    poly = st.sampled_from(polys)
    if series:
        entry = st.integers(order, order + 2).flatmap(
            lambda k: st.lists(poly, max_size=k + 1).map(
                lambda cs, k=k: TruncatedSeries.from_polys(alg, cs, k)))
        one = TruncatedSeries.one(alg, order)
    else:
        entry, one = poly, alg.one()
    grid = data.draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                              min_size=size, max_size=size))
    coefficient = _COEFFICIENTS[name]
    assert permutation_sum(grid, coefficient, one) == _unit_first_sum(grid, coefficient, one)
