import random
from fractions import Fraction

import pytest

from superimm.symgroup import (
    GroupAlgebraElement,
    Permutation,
    SymGroupError,
    central_idempotent,
    character_element,
    fusion_idempotent,
    jucys_murphy,
    primitive_idempotent,
    symmetric_group,
    transposition_relation,
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
                    total = total + e.conjugate_by(s)
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
    with pytest.raises(SymGroupError):
        symmetric_group(9)
