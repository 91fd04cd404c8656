from collections import Counter
from itertools import product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import axial_distance, normalize_partition_rescanned
from superimm import tableaux
from superimm.tableaux import (
    StandardTableau,
    TableauxError,
    addable_contents,
    character,
    class_size,
    conjugate,
    dimension,
    hook_product,
    in_hook,
    induced_sign_character,
    induced_trivial_character,
    inverse_kostka,
    is_semistandard_super,
    kostka,
    normalize_partition,
    partitions,
    relabel_by_weight,
    row_reading_tableau,
    semistandard_super_tableaux,
    standard_tableaux,
)
from superimm.tensorspace import weak_compositions


def _weight(rows, letters):
    """How often each letter 1..letters occurs in the filling."""
    counts = Counter(e for row in rows for e in row)
    return tuple(counts[a] for a in range(1, letters + 1))


def test_partitions_reverse_lex():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions(0) == ((),)


def test_conjugate_involution():
    for r in range(7):
        for lam in partitions(r):
            assert conjugate(conjugate(lam)) == lam


def test_in_hook():
    assert not in_hook((2, 2), 1, 1)
    assert in_hook((5,), 1, 1)
    assert in_hook((2, 1), 1, 1)


def test_standard_tableaux_counts():
    assert len(standard_tableaux((1, 1, 1))) == 1
    two = standard_tableaux((2, 1))
    assert len(two) == 2
    assert hook_product((2, 1)) == 3
    assert dimension((2, 1)) == 2
    for r in range(1, 7):
        for lam in partitions(r):
            assert dimension(lam) == len(standard_tableaux(lam))


def test_hook_times_dimension_is_factorial():
    for r in range(1, 9):
        for lam in partitions(r):
            assert hook_product(lam) * dimension(lam) == factorial(r)


def test_contents_and_axial_distances():
    t = StandardTableau([(1, 2), (3,)])
    assert [t.content(k) for k in (1, 2, 3)] == [0, 1, -1]
    assert axial_distance(t, 1) == 1
    assert axial_distance(t, 2) == -2
    assert addable_contents((2, 1)) == (2, 0, -2)


def test_standard_tableaux_order():
    # the order of the standard tableaux is the order of the schur-weyl cases
    assert [t.rows for t in standard_tableaux((3, 2))] == [
        ((1, 2, 3), (4, 5)), ((1, 2, 4), (3, 5)), ((1, 2, 5), (3, 4)),
        ((1, 3, 4), (2, 5)), ((1, 3, 5), (2, 4)),
    ]
    assert [t.rows for t in standard_tableaux((2, 2, 1))] == [
        ((1, 2), (3, 4), (5,)), ((1, 2), (3, 5), (4,)), ((1, 3), (2, 4), (5,)),
        ((1, 3), (2, 5), (4,)), ((1, 4), (2, 5), (3,)),
    ]
    assert standard_tableaux(()) == (StandardTableau(()),)


def test_ssyt_single_box():
    assert semistandard_super_tableaux((1,), 1, 1, (1, 0)) == (((1,),),)
    assert semistandard_super_tableaux((1,), 1, 1, (0, 1)) == (((2,),),)


def test_ssyt_empty_off_hook():
    # fillings of shapes outside the hook always break a strictness rule;
    # inside it, each weight's tableaux are the fillings of that weight the
    # predicate accepts
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        for r in range(1, 5):
            for lam in partitions(r):
                brute = {w: set() for w in weak_compositions(r, m + n)}
                for entries in product(range(1, m + n + 1), repeat=r):
                    it = iter(entries)
                    rows = tuple(tuple(next(it) for _ in range(row)) for row in lam)
                    if is_semistandard_super(rows, m, n):
                        brute[_weight(rows, m + n)].add(rows)
                total = 0
                for w, want in brute.items():
                    tabs = semistandard_super_tableaux(lam, m, n, w)
                    assert len(set(tabs)) == len(tabs)
                    assert set(tabs) == want, (m, n, lam, w)
                    total += len(tabs)
                assert (total == 0) == (not in_hook(lam, m, n))


def test_ssyt_weight_filter():
    # every tableau of a weight has that weight, entries counted
    for m, n in [(2, 1), (1, 2), (0, 3)]:
        for lam in partitions(4):
            for w in weak_compositions(4, m + n):
                for rows in semistandard_super_tableaux(lam, m, n, w):
                    assert _weight(rows, m + n) == w


@pytest.mark.parametrize("shape, m, n, weight, count", [
    ((2, 1), 1, 1, (2, 1), 1),
    ((2, 1), 1, 1, (1, 2), 1),
    ((2, 1), 1, 1, (3, 0), 0),
    ((2, 1), 1, 1, (0, 3), 0),
    ((2, 2), 1, 1, (2, 2), 0),
    ((2, 1), 2, 1, (1, 1, 1), 2),
    ((2, 1), 0, 2, (2, 1), 1),
    ((3, 2), 3, 0, (2, 2, 1), 2),
])
def test_ssyt_hand_counted(shape, m, n, weight, count):
    assert len(semistandard_super_tableaux(shape, m, n, weight)) == count


@pytest.mark.parametrize("call, message", [
    (lambda: semistandard_super_tableaux((2, 1), 2, 1, (1, 2)),
     "weight needs one multiplicity per letter, 3 in all"),
    (lambda: semistandard_super_tableaux((2, 1), 1, 1, (2, 2)), "weight size must match the shape"),
    (lambda: semistandard_super_tableaux((2, 1), 1, 1, (True, 2)),
     "weight entries must be non-negative integers, got (True, 2)"),
    (lambda: semistandard_super_tableaux((2, 1), 1, 1, (1.0, 2)),
     "weight entries must be non-negative integers, got (1.0, 2)"),
    (lambda: relabel_by_weight(row_reading_tableau((2, 1)), (3, -1, 1)),
     "weight entries must be non-negative integers, got (3, -1, 1)"),
    (lambda: kostka((2, 1), (3, -1, 1)),
     "weight entries must be non-negative integers, got (3, -1, 1)"),
], ids=["length", "size", "bool", "float", "relabel-negative", "kostka-negative"])
def test_bad_weights_are_refused_in_one_line(call, message):
    with pytest.raises(TableauxError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("parts", [(2.7, 1), "21", (True, True), (2, 1.0), (2, None), (2, -1)],
                         ids=["float", "string", "bool", "whole-float", "none", "negative"])
def test_malformed_partitions_are_refused_in_one_line(parts):
    """int() on each part read (2.7, 1) and "21" as (2, 1), and (True, True) as (1, 1)."""
    with pytest.raises(TableauxError) as info:
        normalize_partition(parts)
    assert str(info.value) == f"partition parts must be non-negative integers, got {tuple(parts)}"


def test_normalize_partition_drops_zeros_and_refuses_an_increase():
    assert normalize_partition([3, 1, 0, 0]) == (3, 1)
    assert normalize_partition(()) == ()
    with pytest.raises(TableauxError) as info:
        normalize_partition((1, 0, 2))
    assert str(info.value) == "(1, 2) is not weakly decreasing"


_PARTS = st.one_of(st.integers(-2, 6), st.booleans(), st.sampled_from([2.0, 2.7, -1.0, 0.0, "2", None]))


def _outcome(call, *args):
    try:
        return "returns", call(*args)
    except Exception as exc:  # the exception's type and message, to compare
        return type(exc), str(exc)


@given(st.one_of(st.lists(_PARTS, max_size=6), st.lists(_PARTS, max_size=6).map(tuple),
                 st.text(max_size=3)))
@example((3, 3, 1))
@example((3, 0, 1))
@example((True, 1))
@example((2.0, 1))
@example((0, 0))
@example("21")
@settings(max_examples=300, deadline=None)
def test_normalize_partition_matches_the_rescanning_check(parts):
    """The one-pass check returns or raises exactly what the check that
    copies and rescans every input does, for tuples, lists and strings."""
    got = _outcome(normalize_partition, parts)
    assert got == _outcome(normalize_partition_rescanned, parts)
    if got[0] == "returns":
        assert type(got[1]) is tuple and normalize_partition(got[1]) is got[1]


@pytest.mark.parametrize("call, good, bad", [
    (character, ((1, 1), (1, 1)), ((True, 1), (1, 1))),
    (character, ((2, 1), (1, 1, 1)), ((2, 1), (1, 1, True))),
    (kostka, ((2, 1), (1, 1, 1)), ((2.0, 1), (1, 1, 1))),
    (kostka, ((2, 1), (1, 1, 1)), ((2, 1), (1, 1, True))),
    (standard_tableaux, ((2, 1),), ((2.0, 1),)),
], ids=["character-shape", "character-class", "kostka-shape", "kostka-weight", "standard-tableaux"])
def test_cached_tableau_functions_refuse_cold_and_warm(call, good, bad):
    """The caches are keyed by checked arguments: an input equal to a cached
    one (True == 1, 2.0 == 2) is refused before any cache could answer it."""
    for cache in (tableaux._character, tableaux._kostka, tableaux._standard_tableaux):
        cache.cache_clear()
    with pytest.raises(TableauxError):
        call(*bad)
    call(*good)
    with pytest.raises(TableauxError):
        call(*bad)


def test_cached_tableau_functions_take_lists_as_tuples():
    assert character([2, 1], [1, 1, 1]) == character((2, 1), (1, 1, 1)) == 2
    assert kostka([2, 1], [1, 1, 1]) == kostka((2, 1), (1, 1, 1)) == 2
    assert kostka([2, 1], [1, 0, 2]) == kostka((2, 1), (1, 0, 2)) == 1
    assert standard_tableaux([2, 1]) == standard_tableaux((2, 1))
    assert character.cache_info().currsize > 0


def test_relabel_by_weight():
    t = row_reading_tableau((2, 1))
    assert relabel_by_weight(t, (1, 1, 1)) == ((1, 2), (3,))
    row = row_reading_tableau((2,))
    assert relabel_by_weight(row, (2, 0)) == ((1, 1),)
    assert is_semistandard_super(relabel_by_weight(row, (2, 0)), 1, 1)
    col = row_reading_tableau((1, 1))
    assert relabel_by_weight(col, (2, 0)) == ((1,), (1,))
    assert not is_semistandard_super(relabel_by_weight(col, (2, 0)), 1, 1)


def test_kostka_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 2), (2, 2, 1)) == 2
    for r in range(1, 6):
        for lam in partitions(r):
            assert kostka(lam, lam) == 1


def test_inverse_kostka_is_inverse():
    for r in range(1, 7):
        for lam in partitions(r):
            for mu in partitions(r):
                assert type(inverse_kostka(lam, mu)) is int
                total = sum(kostka(lam, nu) * inverse_kostka(nu, mu) for nu in partitions(r))
                assert total == (1 if lam == mu else 0)


def test_character_degree_and_sign():
    for r in range(1, 7):
        for lam in partitions(r):
            assert character(lam, (1,) * r) == dimension(lam)
        ones = (1,) * r
        for rho in partitions(r):
            parity = (-1) ** (r - len(rho))
            assert character(ones, rho) == parity


def test_character_orthogonality():
    for r in range(1, 7):
        classes = partitions(r)
        for lam in partitions(r):
            for mu in partitions(r):
                total = sum(class_size(c) * character(lam, c) * character(mu, c) for c in classes)
                assert total == (factorial(r) if lam == mu else 0)
        # column orthogonality
        for c1 in classes:
            for c2 in classes:
                total = sum(character(lam, c1) * character(lam, c2) for lam in partitions(r))
                want = factorial(r) // class_size(c1) if c1 == c2 else 0
                assert total == want


def test_sign_induced_character_is_the_kostka_sum_over_conjugates():
    # the Kostka sum over conjugate shapes, apart from the library's sgn * phi_mu
    for r in range(1, 7):
        for mu in partitions(r):
            assert induced_sign_character(mu) == {
                rho: sum(kostka(conjugate(lam), mu) * character(lam, rho) for lam in partitions(r))
                for rho in partitions(r)
            }


def test_induced_characters_match_kostka_expansion():
    mu = (2, 1)
    psi = induced_sign_character(mu)
    phi = induced_trivial_character(mu)
    assert psi[(1, 1, 1)] == sum(kostka(conjugate(l), mu) * dimension(l) for l in partitions(3))
    assert phi[(1, 1, 1)] == sum(kostka(l, mu) * dimension(l) for l in partitions(3))

