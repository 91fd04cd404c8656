from collections import Counter

import pytest

from superimm.immanants import elementary_invariant, generator_matrix, normalized_immanant_sum
from superimm.supersym import (
    SuperSymError,
    complete_super,
    diagonal_specialization,
    evaluate_two_alphabets,
    is_supersymmetric,
    jacobi_trudi_grid,
    power_sum,
    schur_super,
    supersymmetry_report,
    sym_algebra,
)
from superimm.superring import grassmann_algebra
from superimm.symgroup import commuting_determinant
from superimm.tableaux import (
    hook_partitions,
    in_hook,
    partitions,
    semistandard_super_tableaux,
)
from superimm.tensorspace import weak_compositions


def xy(m, n):
    alg = sym_algebra(m, n)
    return alg, [alg.gen(f"u{i}") for i in range(1, m + 1)], [alg.gen(f"v{j}") for j in range(1, n + 1)]


def test_jacobi_trudi_grid_indices():
    assert jacobi_trudi_grid((3, 1), lambda k: k) == [[3, 4], [0, 1]]
    assert jacobi_trudi_grid((2, 2, 1), str) == [["2", "3", "4"], ["1", "2", "3"], ["-1", "0", "1"]]
    assert jacobi_trudi_grid((), str) == []


def test_power_sum_values():
    alg, (x,), (y,) = xy(1, 1)
    assert power_sum(1, 1, 1) == x + y
    assert power_sum(2, 1, 1) == x * x - y * y
    for r in range(1, 7):
        assert is_supersymmetric(power_sum(r, 1, 1), 1, 1)
        assert is_supersymmetric(power_sum(r, 2, 1), 2, 1)


def test_generating_coefficients():
    alg, (x,), (y,) = xy(1, 1)
    assert complete_super(0, 1, 1) == 1
    for k in range(1, 5):
        assert complete_super(k, 1, 1) == x ** (k - 1) * (x + y)


def _homogeneous_symmetric(k, variables, alg):
    from itertools import combinations_with_replacement

    acc = alg.zero()
    for combo in combinations_with_replacement(variables, k):
        term = alg.one()
        for v in combo:
            term = term * v
        acc = acc + term
    return acc


def _elementary_symmetric(k, variables, alg):
    from itertools import combinations

    acc = alg.zero()
    for combo in combinations(variables, k):
        term = alg.one()
        for v in combo:
            term = term * v
        acc = acc + term
    return acc


def test_degenerations():
    # n=0 gives complete homogeneous, m=0 gives elementary, k <= 6
    alg2, us, _ = xy(2, 0)
    for k in range(7):
        assert complete_super(k, 2, 0) == _homogeneous_symmetric(k, us, alg2)
    algv, _, vs = xy(0, 2)
    for k in range(7):
        assert complete_super(k, 0, 2) == _elementary_symmetric(k, vs, algv)


def test_generating_function_consistency():
    # (sum_k S_k t^k) * prod(1 - u_i t) = prod(1 + v_j t), to order 6
    from superimm.superring import TruncatedSeries

    order = 6
    for m, n in [(1, 1), (2, 1), (1, 2)]:
        alg, us, vs = xy(m, n)
        series = TruncatedSeries.from_polys(
            alg, [complete_super(k, m, n) for k in range(order + 1)], order
        )
        for u in us:
            series = series * TruncatedSeries.from_polys(alg, [alg.one(), -u], order)
        rhs = TruncatedSeries.one(alg, order)
        for v in vs:
            rhs = rhs * TruncatedSeries.from_polys(alg, [alg.one(), v], order)
        assert series == rhs


def test_schur_super_values():
    alg, (x,), (y,) = xy(1, 1)
    assert schur_super((2,), 1, 1) == complete_super(2, 1, 1)
    assert schur_super((1, 1), 1, 1) == y * (x + y)
    assert schur_super((2, 2), 1, 1).is_zero


def test_schur_super_reads_its_entries_off_one_series(monkeypatch):
    from superimm import supersym

    orders = []
    original = supersym._generating_series

    def spy(m, n, order):
        orders.append(order)
        return original(m, n, order)

    monkeypatch.setattr(supersym, "_generating_series", spy)
    for lam, largest in [((3, 1), 4), ((1, 1, 1), 3), ((2,), 2), ((), 0)]:
        orders.clear()
        value = schur_super(lam, 2, 1)
        assert orders == [largest]
        grid = jacobi_trudi_grid(lam, lambda k: complete_super(k, 2, 1))
        assert value == commuting_determinant(grid, sym_algebra(2, 1).one())


def test_schur_super_vanishes_exactly_off_hook():
    # the coefficient of u^a v^b is the super Kostka number: the count of
    # semistandard super tableaux of weight (a|b), zero off the hook
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        names = [f"u{i}" for i in range(1, m + 1)] + [f"v{j}" for j in range(1, n + 1)]
        for r in range(1, 6):
            for lam in partitions(r):
                poly = schur_super(lam, m, n)
                assert poly.is_zero == (not in_hook(lam, m, n))
                counts = Counter()  # tableaux by the weight their entries spell
                for w in weak_compositions(r, m + n):
                    for t in semistandard_super_tableaux(lam, m, n, w):
                        entries = Counter(e for row in t for e in row)
                        counts[tuple(entries[a] for a in range(1, m + n + 1))] += 1
                want = {
                    (tuple((name, a) for name, a in zip(names, w) if a), ()): c
                    for w, c in counts.items()
                }
                assert {(e, o): c for e, o, c in poly.terms()} == want


def test_schur_super_supersymmetric():
    for m, n in [(1, 1), (2, 1)]:
        for r in range(1, 6):
            for lam in hook_partitions(m, n, r):
                assert is_supersymmetric(schur_super(lam, m, n), m, n)


def test_non_symmetric_input_reported():
    alg, (u1, u2), _ = xy(2, 0)
    report = supersymmetry_report(u1, 2, 0)
    assert report["breaking_swap"] == ("u1", "u2")
    with pytest.raises(SuperSymError):
        is_supersymmetric(u1, 2, 0)


def test_cancellation_failure_detected():
    alg, (x,), (y,) = xy(1, 1)
    assert not supersymmetry_report(x - y, 1, 1)["cancellation"]
    assert supersymmetry_report(x + y, 1, 1)["cancellation"]


def test_diagonal_specialization_examples():
    x = generator_matrix(1, 1)
    alg, (u,), (v,) = xy(1, 1)
    assert diagonal_specialization(elementary_invariant(x, 1), 1, 1) == u + v
    assert diagonal_specialization(x.algebra.gen("x1_2"), 1, 1).is_zero
    for k in range(1, 5):
        assert diagonal_specialization(elementary_invariant(x, k), 1, 1) == schur_super(
            (1,) * k, 1, 1
        )


def test_diagonal_specialization_of_immanant_sums():
    for m, n in [(1, 1), (2, 1)]:
        x = generator_matrix(m, n)
        for r in range(1, 4):
            for lam in partitions(r):
                image = diagonal_specialization(normalized_immanant_sum(lam, x), m, n)
                assert image == schur_super(lam, m, n)


def test_evaluate_two_alphabets():
    lam4 = grassmann_algebra(4)
    alg, (x,), (y,) = xy(1, 1)
    value = evaluate_two_alphabets(x * x + y, [lam4.scalar(2)], [lam4.scalar(3)], lam4)
    assert value == 7


@pytest.mark.parametrize("first, second", [([2, 3, 5], [7]), ([2], [7, 11]), ([], [7]), ([2], [])],
                         ids=["first-too-long", "second-too-long", "first-too-short", "second-too-short"])
def test_evaluate_two_alphabets_takes_exactly_the_generators(first, second):
    """A (1|1) polynomial takes one value per alphabet: more or fewer raise
    rather than drop or leave a generator unassigned."""
    lam4 = grassmann_algebra(4)
    f = schur_super((2, 1), 1, 1)
    assert evaluate_two_alphabets(f, [lam4.scalar(2)], [lam4.scalar(7)], lam4) == 126
    values = [lam4.scalar(v) for v in first], [lam4.scalar(v) for v in second]
    with pytest.raises(SuperSymError, match=rf"^{len(first)}\|{len(second)} values do not fit "):
        evaluate_two_alphabets(f, *values, lam4)
