import random
from fractions import Fraction
from itertools import product
from math import factorial

from superimm.immanants import SuperMatrix, star_product_slotwise
from superimm.superring import Algebra
from superimm.symgroup import GroupAlgebraElement, Permutation, symmetric_group
from superimm.tensorspace import (
    action_sign,
    apply_group_algebra_to_state,
    arrangements,
    bilinear_form,
    composed_tuple,
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
