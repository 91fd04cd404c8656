import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

import superimm.tensorspace as tensorspace
from oracles import arrangements, composed_tuple, star_product_slotwise
from superimm.immanants import SuperMatrix
from superimm.superring import Algebra
from superimm.symgroup import (
    GroupAlgebraElement,
    Permutation,
    SymGroupError,
    jm_factors,
    primitive_idempotent,
    symmetric_group,
)
from superimm.tableaux import partitions, row_reading_tableau, standard_tableaux
from superimm.tensorspace import (
    action_sign,
    apply_group_algebra_to_state,
    apply_idempotent,
    bilinear_form,
    composition_to_multiset,
    comodule_sign,
    immanant_prefactor,
    parity_weight,
    permuted_tuple,
    repetition_factor,
    sorted_multisets,
    state_add,
    tensor_weight,
    tuple_parities,
    weak_compositions,
)


def test_action_sign_examples():
    s = Permutation.transposition(1, 2, 2)
    assert action_sign((2, 2), 1, s) == -1  # two odd slots swapped
    assert action_sign((1, 2), 1, s) == 1
    assert action_sign((2, 2), 1, Permutation.identity(2)) == 1


def _basis_states(m, n, r):
    for key in product(range(1, m + n + 1), repeat=r):
        yield key, {key: Fraction(1)}


def _act(perm, state, m):
    return apply_group_algebra_to_state(GroupAlgebraElement.of(perm), state, m)


def test_permutation_operators_compose():
    # acting by t and then by s is acting by s*t, on every basis tensor
    for m, n in [(1, 1), (2, 1)]:
        for r in (2, 3):
            for s in symmetric_group(r):
                for t in symmetric_group(r):
                    for _, state in _basis_states(m, n, r):
                        assert _act(s, _act(t, state, m), m) == _act(s * t, state, m)


def test_action_on_states_matches_operator():
    # move each factor to its target slot by swaps of neighbours, one minus
    # sign per swap of two odd factors
    rng = random.Random(7)
    for _ in range(20):
        r = rng.choice((2, 3))
        perm = rng.choice(symmetric_group(r))
        key = tuple(rng.choice((1, 2)) for _ in range(r))
        factors = list(zip(perm.images, key))
        sign = 1
        for end in range(r - 1, 0, -1):
            for k in range(end):
                if factors[k][0] > factors[k + 1][0]:
                    if factors[k][1] > 1 and factors[k + 1][1] > 1:
                        sign = -sign
                    factors[k], factors[k + 1] = factors[k + 1], factors[k]
        moved = tuple(i for _, i in factors)
        assert _act(perm, {key: Fraction(3)}, 1) == {moved: Fraction(3 * sign)}


def test_group_algebra_operator_matches_state_action():
    # a two-term element with fractional coefficients, on every basis tensor
    r, m, n = 3, 1, 1
    s = Permutation.transposition(1, 2, 3)
    t = Permutation((2, 3, 1))
    elem = GroupAlgebraElement(r, {s: Fraction(1, 2), t: Fraction(-2)})
    for _, state in _basis_states(m, n, r):
        expected: dict = {}
        for perm, c in elem.terms.items():
            for out_key, value in _act(perm, state, m).items():
                state_add(expected, out_key, c * value)
        assert apply_group_algebra_to_state(elem, state, m) == expected
        assert _act(Permutation.identity(r), state, m) == state


def test_contravariance_of_the_pairing():
    # <P_s u, w> = <u, P_{s^-1} w> on all basis pairs
    for m, n in [(1, 1), (2, 1)]:
        for r in (2, 3):
            for s in symmetric_group(r):
                s_inv = s.inverse()
                for u in product(range(1, m + n + 1), repeat=r):
                    for w in product(range(1, m + n + 1), repeat=r):
                        lhs = bilinear_form(
                            apply_group_algebra_to_state(
                                GroupAlgebraElement.of(s), {u: Fraction(1)}, m
                            ),
                            {w: Fraction(1)},
                        )
                        rhs = bilinear_form(
                            {u: Fraction(1)},
                            apply_group_algebra_to_state(
                                GroupAlgebraElement.of(s_inv), {w: Fraction(1)}, m
                            ),
                        )
                        assert lhs == rhs


def test_comodule_sign_values():
    assert comodule_sign((2, 1), (1, 2), 1) == -1
    assert comodule_sign((1, 2), (1, 2), 1) == 1
    assert comodule_sign((1, 1), (1, 1), 1) == 1


def test_immanant_prefactor():
    assert immanant_prefactor((1, 2), (1, 2), 1) == -1
    assert immanant_prefactor((1, 1), (1, 1), 1) == 1
    assert immanant_prefactor((2,), (1,), 1) == 1


def test_supertrace_of_flip_counts_dimension():
    flip = Permutation.transposition(1, 2, 2)
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        total = 0
        for (a, b), state in _basis_states(m, n, 2):
            total += parity_weight(a, m) * parity_weight(b, m) * _act(flip, state, m).get((a, b), 0)
        assert total == m - n
        # the star product of two identities is the flip contracted over slot 1
        ident = SuperMatrix.identity(m, n, Algebra("t"))
        assert star_product_slotwise(ident, ident) == ident


def test_multi_index():
    assert repetition_factor(()) == 1
    assert repetition_factor((1, 2, 2)) == 2
    assert repetition_factor((2, 1, 2)) == 2  # order does not matter
    assert repetition_factor((1, 1, 1, 3, 3)) == 6 * 2
    for r in range(1, 5):
        for indices in sorted_multisets(2, 1, r):
            assert factorial(r) % repetition_factor(indices) == 0


def test_index_helpers():
    s = Permutation((2, 3, 1))
    key = (5, 6, 7)
    assert permuted_tuple(key, s) == (7, 5, 6)
    assert composed_tuple(key, s) == (6, 7, 5)
    assert tuple_parities((1, 2, 3), 2) == (0, 0, 1)
    assert len(sorted_multisets(1, 1, 3)) == 4
    assert len(weak_compositions(3, 2)) == 4
    assert composition_to_multiset((2, 0, 1)) == (1, 1, 3)


def test_arrangements_are_the_sorted_filter_of_all_tuples():
    assert arrangements(()) == ((),)
    for size in (1, 2, 3):
        for r in range(1, 5):
            for multiset in sorted_multisets(size, 0, r):
                want = tuple(key for key in product(range(1, size + 1), repeat=r)
                             if tuple(sorted(key)) == multiset)
                assert arrangements(multiset) == want, multiset
                assert arrangements(multiset[::-1]) == want, multiset


def test_weak_compositions_are_the_weights_of_the_multisets():
    assert weak_compositions(0, 0) == ((),) and weak_compositions(2, 0) == ()
    for parts in range(1, 4):
        for r in range(5):
            want = tuple(comp for comp in product(range(r + 1), repeat=parts) if sum(comp) == r)
            assert weak_compositions(r, parts) == want, (r, parts)


def test_tensor_weight_counts_odd_indices():
    assert tensor_weight((), 1) == 1
    assert tensor_weight((1, 2, 3), 1) == 1
    assert tensor_weight((1, 2, 1), 1) == -1
    assert tensor_weight((3, 1), 2) == parity_weight(3, 2) == -1


def _fraction_action(elem, state, m):
    """The slice action as first written, one Fraction term at a time: per
    permutation, the Koszul sign, the permuted basis tensor, the sum."""
    out: dict = {}
    for perm, coeff in elem.terms.items():
        for key, c in state.items():
            sign = tensorspace.action_sign(key, m, perm)
            state_add(out, permuted_tuple(key, perm), (coeff * sign) * c)
    return out


def _tableaux(r):
    return [tab for lam in partitions(r) for tab in standard_tableaux(lam)]


def _idempotents(r):
    return [primitive_idempotent(tab) for tab in _tableaux(r)]


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2)])
def test_integer_action_matches_the_fraction_loop(m, n):
    """Every standard-tableau idempotent on every basis tensor up to degree 4,
    and a seeded sample at degree 5."""
    for r in range(1, 5):
        for e in _idempotents(r):
            for multiset in sorted_multisets(m, n, r):
                for key in arrangements(multiset):
                    state = {key: Fraction(1)}
                    assert apply_group_algebra_to_state(e, state, m) == _fraction_action(e, state, m)
    rng = random.Random(20240613)
    idempotents = _idempotents(5)
    for _ in range(30):
        e = rng.choice(idempotents)
        key = tuple(rng.randint(1, m + n) for _ in range(5))
        assert apply_group_algebra_to_state(e, {key: 1}, m) == _fraction_action(e, {key: 1}, m)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2)])
def test_idempotent_factors_match_the_built_idempotent(m, n):
    """E_T applied factor by factor, scaled by its gap product g, is g times
    the built E_T on every basis tensor up to degree 4, and on a seeded
    sample at degree 5."""
    def check(tab, key):
        vec, g = apply_idempotent(tab, {key: 1}, m)
        dense = apply_group_algebra_to_state(primitive_idempotent(tab), {key: 1}, m)
        assert vec == {k: c * g for k, c in dense.items()}, (tab, key)

    for r in range(1, 5):
        for tab in _tableaux(r):
            for key in product(range(1, m + n + 1), repeat=r):
                check(tab, key)
    rng = random.Random(20240613)
    tabs = _tableaux(5)
    for _ in range(30):
        check(rng.choice(tabs), tuple(rng.randint(1, m + n) for _ in range(5)))


def test_integer_action_matches_the_fraction_loop_on_rational_and_polynomial_states():
    """States of several basis tensors, with Fraction coefficients and with
    SuperPoly ones (the coefficients `star_product_slotwise` acts on)."""
    alg = Algebra("coefficients")
    alg.even("x")
    alg.odd("t1", "t2")
    x, t1, t2 = alg.gen("x"), alg.gen("t1"), alg.gen("t2")
    polys = [x * Fraction(2, 3) + t1, t1 * t2 - 1, x * x * t2, alg.one()]
    rng = random.Random(77)
    for m, n in [(1, 1), (2, 1), (1, 2)]:
        for r in (2, 3, 4):
            keys = list(product(range(1, m + n + 1), repeat=r))
            elements = _idempotents(r) + [GroupAlgebraElement(r, {
                rng.choice(symmetric_group(r)): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(3)})]
            for e in elements:
                chosen = rng.sample(keys, min(4, len(keys)))
                for state in (
                    {key: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for key in chosen},
                    {key: rng.choice(polys) for key in chosen},
                ):
                    assert apply_group_algebra_to_state(e, state, m) == _fraction_action(e, state, m)


def test_action_table_is_keyed_by_the_sign_seam(monkeypatch):
    """A sign seam replaced after the action's table is warm still reaches it."""
    e = primitive_idempotent(row_reading_tableau((2, 1)))
    state = {(2, 2, 1): 1}
    first = apply_group_algebra_to_state(e, state, 1)
    assert apply_group_algebra_to_state(e, state, 1) == first
    monkeypatch.setattr(tensorspace, "action_sign", lambda *args: 1)
    assert apply_group_algebra_to_state(e, state, 1) != first


def test_action_signs_are_taken_once_per_basis_tensor_and_permutation(monkeypatch):
    """Each basis tensor keeps its moves: the sign seam in force is asked once
    per (basis tensor, permutation), and a second application of the same
    factor makes no sign call.  A new seam is asked again."""
    state = {(2, 1, 2): 1, (1, 2, 2): Fraction(1, 2), (2, 2, 2): -3}
    factors = [factor for tab in _tableaux(3) for factor, _ in jm_factors(tab)]
    wanted = {(key, perm.images) for factor in factors for perm in factor.numerators for key in state}
    first = None
    for _ in range(2):  # two seams in turn
        calls = []

        def spy(key, m, perm):
            calls.append((key, perm.images))
            return action_sign(key, m, perm)

        monkeypatch.setattr(tensorspace, "action_sign", spy)
        images = [apply_group_algebra_to_state(factor, state, 1) for factor in factors]
        assert sorted(calls) == sorted(wanted)
        calls.clear()
        assert [apply_group_algebra_to_state(factor, state, 1) for factor in factors] == images
        assert not calls
        assert first is None or images == first
        first = images
    assert first == [_fraction_action(factor, state, 1) for factor in factors]


def test_slice_action_refuses_a_basis_tensor_of_another_degree():
    for key in [(1, 2), (1, 2, 1, 2)]:
        with pytest.raises(SymGroupError) as info:
            apply_group_algebra_to_state(GroupAlgebraElement.one(3), {key: 1}, 1)
        assert "\n" not in str(info.value)
