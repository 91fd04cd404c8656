import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from superimm import immanants, ratlinalg, superring, tableaux
from superimm.immanants import (
    DegenerateSpectrumError,
    SuperMatrix,
    SuperMatrixError,
    berezinian,
    chain_coefficient,
    chain_coefficient_slotwise,
    characteristic_coefficients,
    characteristic_series,
    classical_immanant,
    complete_invariant,
    diagonalize,
    elementary_invariant,
    generator_matrix,
    idempotent_chain_supertrace,
    load_supermatrix,
    normalized_immanant_sum,
    power_trace,
    schur_weyl_norm_report,
    star_power,
    star_product,
    super_immanant,
    supertrace,
    weight_space_supertrace,
)
from superimm.superring import (
    Algebra,
    GrassmannPoint,
    TruncatedSeries,
    grassmann_algebra,
    poly_to_terms,
)
from superimm.symgroup import Permutation, primitive_idempotent, symmetric_group
from superimm.tableaux import (
    TableauxError,
    hook_product,
    partitions,
    row_reading_tableau,
    standard_tableaux,
)
from superimm.tensorspace import (
    action_sign,
    apply_idempotent,
    composition_to_multiset,
    immanant_prefactor,
    repetition_factor,
    sorted_multisets,
    weak_compositions,
)
from superimm.verify import random_grassmann_point


def gens(m, n):
    x = generator_matrix(m, n)
    return x, {f"x{i}_{j}": x.algebra.gen(f"x{i}_{j}") for i in range(1, m + n + 1) for j in range(1, m + n + 1)}


def test_parity_pattern_enforced():
    x, g = gens(1, 1)
    bad = [[g["x1_2"], g["x1_1"]], [g["x2_2"], g["x2_1"]]]
    with pytest.raises(SuperMatrixError):
        SuperMatrix(1, 1, bad)


def test_supertrace_definition():
    x, g = gens(2, 1)
    assert supertrace(x) == g["x1_1"] + g["x2_2"] - g["x3_3"]
    ident = SuperMatrix.identity(2, 1, x.algebra)
    assert supertrace(ident) == 1


def test_chain_coefficient_r1_and_all_even():
    x, g = gens(1, 1)
    assert chain_coefficient(x, (1,), (2,)) == g["x1_2"]
    y, h = gens(2, 0)
    assert chain_coefficient(y, (1, 2), (2, 1)) == h["x1_2"] * h["x2_1"]


def test_chain_oracle_exhaustive():
    for m, n in [(1, 1), (2, 1)]:
        x = generator_matrix(m, n)
        for r in (1, 2, 3):
            for out_key in product(range(1, m + n + 1), repeat=r):
                for in_key in product(range(1, m + n + 1), repeat=r):
                    assert chain_coefficient(x, out_key, in_key) == chain_coefficient_slotwise(
                        x, out_key, in_key
                    )


@pytest.mark.parametrize(
    "compute",
    [
        lambda x: chain_coefficient(x, (0,), (1,)),
        lambda x: chain_coefficient(x, (3,), (1,)),
        lambda x: chain_coefficient_slotwise(x, (3,), (1,)),
        lambda x: classical_immanant(x.entries, (1, 1), (0, 1)),
    ],
    ids=["chain-0", "chain-3", "slotwise-3", "classical-0"],
)
def test_indices_out_of_range_are_rejected(compute):
    with pytest.raises(SuperMatrixError, match=r"indices must lie in \[1, 2\]"):
        compute(generator_matrix(1, 1))


@pytest.mark.parametrize("bad", [1.0, True, "1", None])
def test_indices_that_are_not_ints_are_rejected(bad):
    x = generator_matrix(1, 1)
    for compute in (
        lambda: chain_coefficient(x, (bad,), (1,)),
        lambda: chain_coefficient_slotwise(x, (1,), (bad,)),
        lambda: super_immanant((1,), x, (bad,)),
        lambda: classical_immanant(x.entries, (1,), (bad,)),
    ):
        with pytest.raises(SuperMatrixError, match="indices must be integers"):
            compute()


def test_classical_immanant_of_the_empty_index_tuple_is_one():
    x = generator_matrix(1, 1)
    assert classical_immanant(x.entries, (), ()) == x.algebra.one()
    assert classical_immanant(x.entries, (), ()) == super_immanant((), x, ())
    with pytest.raises(SuperMatrixError, match="grid of entries is empty"):
        classical_immanant([], (), ())


def test_class_function_is_evaluated_once_per_cycle_type(monkeypatch):
    calls = []
    monkeypatch.setattr(immanants, "character", lambda lam, ct: calls.append(ct) or 1)
    x = generator_matrix(1, 1)
    super_immanant((2, 1), x, (1, 1, 2))
    classical_immanant(x.entries, (2,), (1, 2))
    assert sorted(calls) == sorted([*partitions(3), *partitions(2)])


def test_super_immanant_reads_the_character_in_force_after_warm_up(monkeypatch):
    """The per-shape character table is keyed by the `character` in force, so
    a character replaced after a warm call is read, and the original is
    answered from its own table again once restored."""
    x = generator_matrix(1, 1)
    warm = super_immanant((2, 1), x, (1, 1, 2))
    trivial = super_immanant((3,), x, (1, 1, 2))
    assert warm != trivial
    monkeypatch.setattr(immanants, "character", lambda lam, ct: 1)
    assert super_immanant((2, 1), x, (1, 1, 2)) == trivial
    monkeypatch.undo()
    assert super_immanant((2, 1), x, (1, 1, 2)) == warm


def test_class_function_missing_a_cycle_type_is_rejected():
    with pytest.raises(SuperMatrixError, match=r"cycle types \[\(1, 1\)\]"):
        super_immanant({(2,): 1}, generator_matrix(1, 1), (1, 2))


def test_classical_determinant():
    x, g = gens(2, 0)
    det = super_immanant((1, 1), x, (1, 2))
    assert det == g["x1_1"] * g["x2_2"] - g["x1_2"] * g["x2_1"]


def test_single_entry_immanants():
    x, g = gens(1, 1)
    assert super_immanant((1,), x, (1,)) == g["x1_1"]
    assert super_immanant((1,), x, (2,)) == -g["x2_2"]
    total = super_immanant((1,), x, (1,)) + super_immanant((1,), x, (2,))
    assert total == supertrace(x)


def test_vanishing_off_hook():
    x, _ = gens(1, 1)
    for indices in sorted_multisets(1, 1, 4):
        assert super_immanant((2, 2), x, indices).is_zero
    # one degree beyond the acceptance sweep
    for indices in sorted_multisets(1, 1, 5):
        assert super_immanant((3, 2), x, indices).is_zero


def test_idempotent_route_matches_character_route():
    """I! times the trace on E_T's image in the slice of I is the immanant,
    for every standard tableau T of the shape."""
    for m, n in [(1, 1)]:
        x = generator_matrix(m, n)
        for r in (1, 2, 3):
            for lam in partitions(r):
                for indices in sorted_multisets(m, n, r):
                    want = super_immanant(lam, x, indices)
                    for tab in standard_tableaux(lam):
                        got = immanants._image_trace(tab, x, indices) * repetition_factor(indices)
                        assert got == want, (lam, tab, indices)


ORACLE_BLOCKS = [(1, 1, 4), (2, 1, 4), (1, 2, 4), (2, 2, 3)]


def _oracle_cells():
    """(m, n, T, multiset) over every standard T and every multiset of each
    block up to its degree."""
    for m, n, max_r in ORACLE_BLOCKS:
        for r in range(1, max_r + 1):
            for lam in partitions(r):
                for tab in standard_tableaux(lam):
                    for multiset in sorted_multisets(m, n, r):
                        yield m, n, tab, multiset


def test_image_trace_matches_the_dense_idempotent():
    """The trace off the semistandard keys equals the trace off the built E_T
    applied to every arrangement of the multiset."""
    matrices = {}
    for m, n, tab, multiset in _oracle_cells():
        x = matrices.setdefault((m, n), generator_matrix(m, n))
        want = oracles.dense_image_trace(tab, x, multiset)
        assert immanants._image_trace(tab, x, multiset) == want, (m, n, tab, multiset)


def test_semistandard_keys_give_a_basis_of_the_image():
    """The keyed vectors are independent, and they span the dense image:
    their count, their rank and the dense image's rank agree."""
    for m, n, tab, multiset in _oracle_cells():
        keys = immanants._semistandard_keys(tab, m, n, multiset)
        vectors = [apply_idempotent(tab, {key: 1}, m)[0] for key in keys]
        dense = oracles.dense_image(tab, multiset, m)
        rank, dense_rank = (ratlinalg.rank(oracles.rows_of(vecs)) for vecs in (vectors, dense))
        assert len(keys) == rank == dense_rank, (m, n, tab, multiset)


def test_classical_degeneration_against_oracle():
    for m in (2, 3):
        x = generator_matrix(m, 0)
        for r in (1, 2, 3):
            for lam in partitions(r):
                for indices in sorted_multisets(m, 0, r):
                    assert super_immanant(lam, x, indices) == classical_immanant(
                        x.entries, lam, indices
                    )


def test_invariants_cross_checked_and_commuting():
    x, g = gens(1, 1)
    assert elementary_invariant(x, 0) == 1
    assert elementary_invariant(x, -2).is_zero and complete_invariant(x, -2).is_zero
    assert elementary_invariant(x, 1) == supertrace(x)
    assert complete_invariant(x, 1) == supertrace(x)
    alphas = [elementary_invariant(x, k) for k in range(4)]
    for a in alphas:
        for b in alphas:
            assert a * b == b * a


def test_star_product_against_slot_oracle():
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        x = generator_matrix(m, n)
        assert star_product(x, x) == oracles.star_product_slotwise(x, x)
    y = generator_matrix(2, 0)
    assert star_product(y, y) == y @ y  # no odd signs at n=0
    x = generator_matrix(1, 1)
    assert star_power(x, 1) == x
    assert power_trace(x, 0) == 0  # supertrace of the identity at m=n


_ROUTE_BLOCKS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]


def _generic(alg, name, m, n):
    """A generic (m|n) supermatrix over `alg` with fresh generators name{i}_{j}."""
    d = m + n
    declare = {0: alg.even, 1: alg.odd}
    return SuperMatrix(m, n, [[declare[(i > m) ^ (j > m)](f"{name}{i}_{j}") for j in range(1, d + 1)]
                              for i in range(1, d + 1)])


@pytest.mark.parametrize("m, n", _ROUTE_BLOCKS)
def test_star_product_is_associative(m, n):
    """(Y * Z) * W = Y * (Z * W) on three independent generic matrices, and the
    two splits of the star powers that power_trace reads."""
    alg = Algebra(f"associativity({m}|{n})")
    y, z, w = (_generic(alg, name, m, n) for name in "yzw")
    assert star_product(star_product(y, z), w) == star_product(y, star_product(z, w))
    x = generator_matrix(m, n)
    x2 = star_product(x, x)
    x3 = star_product(x2, x)
    assert star_product(x, x2) == x3
    assert star_product(x2, x2) == star_product(x3, x)


@pytest.mark.parametrize("m, n", _ROUTE_BLOCKS + [(2, 0), (0, 2)])
def test_power_trace_is_the_supertrace_of_the_star_power(m, n):
    x = generator_matrix(m, n)
    for k in range(7):
        assert power_trace(x, k) == supertrace(star_power(x, k)), k


def _split_trace_mutant(same_halves=False, weighted=True):
    """power_trace with the split X^{k//2} * X^{k//2} for every k, or with the
    odd diagonal entries added unweighted."""
    def mutant(x, k):
        if k < 2:
            return power_trace(x, k)
        z = star_power(x, k // 2)
        y = z if same_halves or k % 2 == 0 else star_product(z, x)
        acc = x.algebra.zero()
        for i in range(1, x.size + 1):
            entry = immanants._star_entry(y, z, i, i)
            acc = acc - entry if weighted and i > x.m else acc + entry
        return acc
    return mutant


@pytest.mark.parametrize("mutant", [_split_trace_mutant(same_halves=True),
                                    _split_trace_mutant(weighted=False)],
                         ids=["even split", "unweighted odd diagonal"])
def test_power_trace_mutants_turn_newton_and_hessenberg_red(monkeypatch, mutant):
    import superimm.verify as verify

    families = ("newton", "hessenberg")
    assert all(r.passed for family in families for r in verify.sweep(family, 2, 1, 3))
    monkeypatch.setattr(verify, "power_trace", mutant)
    for family in families:
        assert not all(r.passed for r in verify.sweep(family, 2, 1, 3)), family


@pytest.mark.parametrize("k", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_star_exponent_must_be_a_plain_int(k):
    x = generator_matrix(1, 1)
    for route in (star_power, power_trace):
        with pytest.raises(SuperMatrixError, match="^star exponent must be an integer$"):
            route(x, k)


def test_berezinian_block_diagonal():
    lam = grassmann_algebra(2)
    x = SuperMatrix(1, 1, [[lam.scalar(6), lam.zero()], [lam.zero(), lam.scalar(2)]])
    assert berezinian(x) == 3


def test_berezinian_lambda2_example():
    lam = grassmann_algebra(2)
    th1, th2 = lam.gen("th1"), lam.gen("th2")
    x = SuperMatrix(1, 1, [[lam.scalar(2), th1], [th2, lam.scalar(1)]])
    assert berezinian(x) == lam.scalar(2) - th1 * th2


def test_berezinian_singular_lower_block():
    from superimm.immanants import SingularMatrixError

    lam = grassmann_algebra(2)
    th1, th2 = lam.gen("th1"), lam.gen("th2")
    x = SuperMatrix(1, 1, [[lam.scalar(2), th1], [th2, th1 * th2]])
    with pytest.raises(SingularMatrixError):
        berezinian(x)


def _loaded(m, n, generators, entries):
    doc = {"m": m, "n": n, "generators": generators, "entries": entries}
    return load_supermatrix(json.dumps(doc))


def test_berezinian_rejects_a_soul_that_is_not_nilpotent():
    from superimm.immanants import SingularMatrixError

    # D = 1 + a with a even: the Neumann series of its inverse never ends
    x = _loaded(1, 1, {"a": "even", "t": "odd"}, [["1", "t"], ["t", "1+a"]])
    with pytest.raises(SingularMatrixError, match="not nilpotent"):
        berezinian(x)


def test_berezinian_accepts_a_matrix_nilpotent_soul():
    # every entry of the soul of D = [[1, a], [0, 1]] is even, but the soul
    # matrix squares to zero, so D is invertible
    x = _loaded(1, 2, {"a": "even"}, [["1", "0", "0"], ["0", "1", "a"], ["0", "0", "1"]])
    assert berezinian(x) == 1


def test_berezinian_accepts_a_lower_block_whose_determinant_is_a_unit():
    # D = [[1 + a^2, a], [a, 1]] with a even: no power of its soul vanishes,
    # but det(D) = 1, so D^-1 = adj(D) = [[1, -a], [-a, 1 + a^2]]
    x = _loaded(1, 2, {"a": "even", "s": "odd", "t": "odd"},
                [["2", "t", "0"], ["0", "1+a*a", "a"], ["s", "a", "1"]])
    a, s, t = (x.algebra.gen(name) for name in "ast")
    assert berezinian(x) == 2 - a * s * t


@pytest.mark.parametrize("m, n", [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (2, 0), (0, 2)])
def test_berezinian_is_the_eigenvalue_ratio(m, n):
    """Ber is invariant under conjugation, so Ber(X) = prod(omega) / prod(varpi)
    over the even and odd eigenvalues that diagonalize finds; an odd eigenvalue
    with body 0 makes the body of D singular."""
    from superimm.immanants import SingularMatrixError

    for s in range(6):
        point = random_grassmann_point(m, n, 1000 + s)
        x = generator_matrix(m, n).evaluate(point)
        result = diagonalize(x)
        one = point.target.one()
        even = prod(result["even_eigenvalues"], start=one)
        odd = prod(result["odd_eigenvalues"], start=one)
        if odd.constant_term() == 0:
            with pytest.raises(SingularMatrixError, match="matrix body is singular"):
                berezinian(x)
        else:
            assert berezinian(x) == even * odd.inverse_of_unit(), (m, n, s)


def test_characteristic_series_matches_invariants():
    # the invariants come from the characteristic series; both other routes
    # (normalized immanant sum, idempotent supertrace) must agree with them
    blocks = [(1, 1, 4), (2, 1, 3), (1, 2, 3), (2, 0, 3), (0, 2, 3), (1, 0, 3), (0, 1, 3)]
    for m, n, order in blocks:
        x = generator_matrix(m, n)
        assert elementary_invariant(x, 0) == complete_invariant(x, 0) == x.algebra.one()
        for k in range(1, order + 1):
            for invariant, shape in [(elementary_invariant, (1,) * k), (complete_invariant, (k,))]:
                value = invariant(x, k)
                assert value == normalized_immanant_sum(shape, x), (m, n, shape)
                tab = row_reading_tableau(shape)
                assert value == idempotent_chain_supertrace(tab, x), (m, n, shape)


def test_diagonalize_lambda2_example():
    lam = grassmann_algebra(2)
    th1, th2 = lam.gen("th1"), lam.gen("th2")
    x = SuperMatrix(1, 1, [[lam.scalar(2), th1], [th2, lam.scalar(1)]])
    result = diagonalize(x)
    assert result["residual_zero"]
    assert result["even_eigenvalues"] == [lam.scalar(2) + th1 * th2]
    assert result["odd_eigenvalues"] == [lam.scalar(1) + th1 * th2]
    # the Berezinian of tI - X factors through the eigenvalues
    om, vp = result["even_eigenvalues"][0], result["odd_eigenvalues"][0]
    series = TruncatedSeries.from_polys(lam, [lam.one(), -om], 3) * TruncatedSeries.from_polys(
        lam, [lam.one(), -vp], 3
    ).invert()
    x_gen = generator_matrix(1, 1)
    pt = GrassmannPoint(
        x_gen.algebra,
        {"x1_1": lam.scalar(2), "x1_2": th2, "x2_1": th1, "x2_2": lam.scalar(1)},
        n_units=2,
    )
    got = [pt.evaluate(c) for c in characteristic_coefficients(x_gen, 3)]
    assert TruncatedSeries(lam, [got[k] * (-1) ** k for k in range(4)], 3) == series


def test_diagonalize_block_diagonal_trivial():
    lam = grassmann_algebra(2)
    x = SuperMatrix(1, 1, [[lam.scalar(3), lam.zero()], [lam.zero(), lam.scalar(1)]])
    result = diagonalize(x)
    assert result["residual_zero"]
    assert result["u"] == SuperMatrix.identity(1, 1, lam)


def test_diagonalize_rejects_degenerate_bodies():
    lam = grassmann_algebra(2)
    x = SuperMatrix(1, 1, [[lam.scalar(1), lam.gen("th1")], [lam.gen("th2"), lam.scalar(1)]])
    with pytest.raises(DegenerateSpectrumError):
        diagonalize(x)


def test_diagonalize_refuses_souls_outside_the_odd_ideal():
    # with an even generator t, 1 + t is no rational body plus an odd-ideal soul
    alg = Algebra("even soul")
    t = alg.even("t")
    a, b = alg.odd("a", "b")
    one, two, zero = alg.scalar(1), alg.scalar(2), alg.zero()
    for entries in ([[one + t, zero], [zero, two]], [[one + t, a], [b, two]]):
        with pytest.raises(DegenerateSpectrumError, match=r"^entry \(1, 1\) is not a rational body"):
            diagonalize(SuperMatrix(1, 1, entries))


@pytest.mark.parametrize("n_units", [2, 3, 4, 5])
@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (2, 0), (0, 2)])
def test_diagonalize_solves_at_other_unit_counts(m, n, n_units):
    """u^-1 is a two-sided inverse of u, hence the unique one, one-block
    matrices included.  At (1|1) and (1|3) Q^-1 has parts of degrees that Q
    lacks, so its recurrence must run to the unit count."""
    point = random_grassmann_point(m, n, 20240613 + n_units, n_units=n_units)
    result = diagonalize(generator_matrix(m, n).evaluate(point).transpose())
    assert result["residual_zero"]
    u, u_inv = result["u"], result["u_inv"]
    identity = SuperMatrix.identity(m, n, point.target)
    assert u @ u_inv == identity
    assert u_inv @ u == identity


def test_weight_space_supertrace_matches_immanants():
    # at (2|1) r = 3 the weight (1,1,1) meets the (2,1) copy in a
    # two-dimensional space
    cases = [(1, 1, 1), (1, 1, 2), (1, 1, 3), (2, 1, 1), (2, 1, 2), (2, 1, 3),
             (1, 2, 1), (1, 2, 2), (1, 2, 3), (2, 2, 1), (2, 2, 2)]
    for m, n, r in cases:
        x = generator_matrix(m, n)
        for lam in partitions(r):
            for weight in weak_compositions(r, m + n):
                indices = composition_to_multiset(weight)
                alpha = repetition_factor(indices)
                lhs = super_immanant(lam, x, indices) * Fraction(1, alpha)
                assert weight_space_supertrace(lam, weight, x) == lhs


def test_weight_space_supertrace_empty_weight_space():
    x = generator_matrix(1, 1)
    # weight (3,0) has no vectors in the (2,1)-isotypic image
    value = weight_space_supertrace((2, 1), (3, 0), x)
    assert value.is_zero
    assert super_immanant((2, 1), x, (1, 1, 1)).is_zero


def test_weight_space_supertrace_off_hook_shape():
    x = generator_matrix(1, 1)
    for weight in weak_compositions(4, 2):
        assert weight_space_supertrace((2, 2), weight, x).is_zero


def test_weight_space_supertrace_rejects_a_malformed_weight():
    x = generator_matrix(1, 1)
    for shape, weight in [((2, 1), (3,)), ((2, 1), (3, 0, 0)), ((1,), (-1, 2)),
                          ((2, 1), (-1, 4)), ((2, 1), (True, 2))]:
        with pytest.raises(SuperMatrixError):
            weight_space_supertrace(shape, weight, x)


def test_weight_space_supertrace_never_inverts_a_matrix(monkeypatch):
    """The trace is read off the echelon basis: no Gram matrix is inverted."""
    def refuse(mat):
        raise AssertionError("ratlinalg.inv called")

    monkeypatch.setattr(immanants.ratlinalg, "inv", refuse)
    x = generator_matrix(2, 1)
    assert weight_space_supertrace((2, 1), (1, 1, 1), x) == super_immanant((2, 1), x, (1, 2, 3))


def test_diagonalize_with_mixed_body():
    # integer shear keeps the spectrum but moves the block bodies off diagonal
    lam = grassmann_algebra(4)
    th = [lam.gen(f"th{i}") for i in range(1, 5)]
    raw = [
        [lam.scalar(2) + th[0] * th[1], lam.scalar(1), th[0] + th[2]],
        [lam.zero(), lam.scalar(-1) + th[2] * th[3], th[1]],
        [th[3], th[0] - th[1], lam.scalar(5) + th[0] * th[3]],
    ]
    x = SuperMatrix(2, 1, raw)
    result = diagonalize(x)
    assert result["residual_zero"]
    bodies = sorted(v.constant_term() for v in result["even_eigenvalues"])
    assert bodies == [Fraction(-1), Fraction(2)]
    assert result["odd_eigenvalues"][0].constant_term() == 5
    assert (result["u"] @ result["u_inv"]) == SuperMatrix.identity(2, 1, lam)


def _point_matrix(m, n, seed):
    """The transposed generator matrix at a seeded point, as Littlewood III takes it."""
    return generator_matrix(m, n).evaluate(random_grassmann_point(m, n, seed)).transpose()


def _conjugated(x, seed):
    """P X P^-1 for a seeded block-diagonal integer unimodular P: a product of
    shears I + c E_ij, i != j in one block, so P^-1 is an integer matrix too."""
    rng = random.Random(seed)
    size = x.size
    p, p_inv = ([[int(i == j) for j in range(size)] for i in range(size)] for _ in range(2))
    blocks = [range(lo, hi) for lo, hi in ((0, x.m), (x.m, size)) if hi - lo > 1]
    for _ in range(4):
        i, j = rng.sample(rng.choice(blocks), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in p:  # P (I + c E_ij): column j gains c times column i
            row[j] += c * row[i]
        p_inv[i] = [a - c * b for a, b in zip(p_inv[i], p_inv[j])]  # (I - c E_ij) P^-1
    lift = [SuperMatrix(x.m, x.n, [[x.algebra.scalar(v) for v in row] for row in grid])
            for grid in (p, p_inv)]
    assert lift[0] @ lift[1] == SuperMatrix.identity(x.m, x.n, x.algebra)
    return lift[0] @ x @ lift[1]


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (3, 1)])
def test_diagonalize_conjugated_points_use_a_non_identity_eigenbasis(m, n):
    """Y = P X P^-1 moves the block bodies off the diagonal, so the rational
    eigenbasis V is not I; Y keeps X's eigenvalues, in the same order."""
    for seed in range(3):
        x = _point_matrix(m, n, 500 + seed)
        y = _conjugated(x, seed)
        plain, result = diagonalize(x), diagonalize(y)
        u, u_inv = result["u"], result["u_inv"]
        assert any(u[i, j].constant_term() != (i == j)
                   for i in range(1, m + n + 1) for j in range(1, m + n + 1))
        assert result["residual_zero"]
        identity = SuperMatrix.identity(m, n, x.algebra)
        assert u @ u_inv == identity
        assert u_inv @ u == identity
        for side in ("even_eigenvalues", "odd_eigenvalues"):
            assert result[side] == plain[side]


def test_diagonalize_eigenvector_check_catches_a_corrupted_solve(monkeypatch):
    """The solve reads the souls of X' = V^-1 X V through `odd_degree_parts`;
    doubled degree-1 souls give the eigenvectors of another matrix, and the
    check X u = u D refuses them before any residual is formed."""
    original = immanants.odd_degree_parts

    def doubled(p):
        return {e: part * 2 if e == 1 else part for e, part in original(p).items()}

    monkeypatch.setattr(immanants, "odd_degree_parts", doubled)
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        with pytest.raises(DegenerateSpectrumError,
                           match=r"^eigenvector solve failed its check X'z = omega z$"):
            diagonalize(_point_matrix(m, n, 99))


def _digest(polys) -> str:
    text = json.dumps([poly_to_terms(p) for p in polys], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _diagonalize_digests(x):
    """Digests of u, u^-1, the eigenvalues (even, then odd, in order) and the
    residual, matrix entries row by row."""
    result = diagonalize(x)
    u, u_inv, residual = ([e for row in result[key].entries for e in row]
                          for key in ("u", "u_inv", "residual"))
    eigenvalues = result["even_eigenvalues"] + result["odd_eigenvalues"]
    return tuple(_digest(polys) for polys in (u, u_inv, eigenvalues, residual))


# (m, n, seed, conjugated) -> the fixed _diagonalize_digests that every
# version of diagonalize must reproduce
PINNED_DIAGONALIZATIONS = {
    (2, 1, 1, False): ('ac055c02da90e79f', '0128805c15ae41f4', '052751b322c40968', '95d15e75300129c5'),
    (2, 1, 1, True): ('8937fa5cfe91bcff', '9d69e2ebbc77c2b3', '052751b322c40968', '95d15e75300129c5'),
    (2, 1, 2, False): ('397d9b04a3880bc7', '15a9517bb88345fe', 'bc7a9a934660de23', '95d15e75300129c5'),
    (2, 1, 2, True): ('0abc2cf703d2f899', '76b87b02dfb64dac', 'bc7a9a934660de23', '95d15e75300129c5'),
    (2, 2, 1, False): ('d942da8efc92d942', '89724ada7cae52fd', '6eb870b45303004c', '24c746e0ea0f7610'),
    (2, 2, 1, True): ('da7297c28bedf426', '09b01b450c90f7b2', '6eb870b45303004c', '24c746e0ea0f7610'),
    (2, 2, 2, False): ('fcae16c2e85b773d', 'c47a16ad1e95274c', 'b01e6f7b97cca322', '24c746e0ea0f7610'),
    (2, 2, 2, True): ('c52d0259f074dbf0', '24b33f2bfef79578', 'b01e6f7b97cca322', '24c746e0ea0f7610'),
    (3, 1, 1, False): ('584603a28b781610', '5326153c749d7109', '694a8ff9b496ee6b', '24c746e0ea0f7610'),
    (3, 1, 1, True): ('76d3b628740a1cf0', '703a2a2c2a83c542', '694a8ff9b496ee6b', '24c746e0ea0f7610'),
    (3, 1, 2, False): ('a37eaab60fb2d336', 'c3686fd95fd848f2', '9ebcf870c75e514f', '24c746e0ea0f7610'),
    (3, 1, 2, True): ('7824b43a4ece4331', '70dff3f9defe8d5c', '9ebcf870c75e514f', '24c746e0ea0f7610'),
}


@pytest.mark.parametrize("m, n, seed, conjugated", sorted(PINNED_DIAGONALIZATIONS))
def test_diagonalize_output_is_pinned(m, n, seed, conjugated):
    """A reordered root, a permuted or rescaled eigenvector column, or another
    normal form of u^-1 changes a digest even when every check still passes."""
    x = _point_matrix(m, n, seed)
    got = _diagonalize_digests(_conjugated(x, seed) if conjugated else x)
    assert got == PINNED_DIAGONALIZATIONS[m, n, seed, conjugated]


def test_schur_weyl_identity_filling():
    rep = schur_weyl_norm_report(standard_tableaux((2, 1))[0], (1, 1, 1), 2, 1)
    assert rep["semistandard"] and not rep["vector_zero"]
    assert rep["norm"] == Fraction(1, hook_product((2, 1)))


@pytest.mark.parametrize("weight, m, n, message", [
    ((0, 0, 2), 1, 1, "weight needs one multiplicity per index, 2 in all"),
    ((1, -1, 2), 1, 1, "weight needs one multiplicity per index, 2 in all"),
    ((1, -1, 2), 2, 1, "weight entries must be non-negative integers"),
    ((True, 1), 1, 1, "weight entries must be non-negative integers"),
    ((1, 2), 1, 1, "shape size and weight size differ"),
])
def test_schur_weyl_norm_report_rejects_a_malformed_weight(weight, m, n, message):
    """Each bad weight fails with the one-line message of
    `weight_space_supertrace`: (0, 0, 2) at (1|1) gave a report over an index
    3 that does not exist, and (1, -1, 2) a SymGroupError about slot counts."""
    tab = row_reading_tableau((2,))
    with pytest.raises(SuperMatrixError, match=f"^{message}$"):
        schur_weyl_norm_report(tab, weight, m, n)
    with pytest.raises(SuperMatrixError, match=f"^{message}$"):
        weight_space_supertrace(tab.shape, weight, generator_matrix(m, n))


def test_idempotent_chain_supertrace_equals_immanant_sum():
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        x = generator_matrix(m, n)
        for r in (1, 2, 3):
            for lam in partitions(r):
                want = normalized_immanant_sum(lam, x)
                for tab in standard_tableaux(lam):
                    assert idempotent_chain_supertrace(tab, x) == want


def test_immanants_refuse_a_shape_whose_parts_are_not_ints():
    """(1.9,) was read as (1,) and "11" as (1, 1)."""
    x = generator_matrix(1, 1)
    for call in (lambda: normalized_immanant_sum((1.9,), x),
                 lambda: super_immanant("11", x, (1, 2))):
        with pytest.raises(TableauxError, match="^partition parts must be non-negative integers"):
            call()


def test_idempotent_chain_supertrace_refuses_what_is_not_a_tableau():
    x = generator_matrix(1, 1)
    tab = row_reading_tableau((2, 1))
    for bad in (primitive_idempotent(tab), tab.rows, (2, 1)):
        with pytest.raises(SuperMatrixError, match="StandardTableau") as info:
            idempotent_chain_supertrace(bad, x)
        assert "\n" not in str(info.value)


def test_idempotent_routes_never_regroup_permutations(monkeypatch):
    """Both idempotent routes read the trace off the idempotent's image: they
    share neither the walk over S_r, its rearrangements K = perm . I nor the
    signed class table with the character route they are checked against,
    and read no character and no Kostka number."""
    def refuse(*args):
        raise AssertionError("the idempotent route regrouped permutations")

    monkeypatch.setattr(immanants, "permuted_tuple", refuse)
    monkeypatch.setattr(immanants, "_typed_permutations", refuse)
    monkeypatch.setattr(immanants, "_signed_class_table", refuse)
    monkeypatch.setattr(immanants, "character", refuse)
    monkeypatch.setattr(tableaux, "character", refuse)
    monkeypatch.setattr(tableaux, "kostka", refuse)
    x = generator_matrix(2, 1)
    for tab in standard_tableaux((2, 1)):
        idempotent_chain_supertrace(tab, x)
        immanants._image_trace(tab, x, (1, 2, 3))


def test_load_supermatrix_round_trip(tmp_path):
    doc = {
        "m": 1,
        "n": 1,
        "generators": {"a": "even", "d": "even", "beta": "odd", "gamma": "odd"},
        "entries": [["a", "2*beta"], ["gamma - beta", "d"]],
    }
    x = load_supermatrix(json.dumps(doc))
    assert x.m == 1 and x.n == 1
    assert str(x[1, 2]) == "2*beta"
    bad = dict(doc, entries=[["beta", "a"], ["d", "gamma"]])
    with pytest.raises(SuperMatrixError):
        load_supermatrix(json.dumps(bad))


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def _matrix_documents(draw):
    """A well-shaped document, then some of its fields replaced or dropped."""
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    cells = st.sampled_from(["a", "b", "c", "0", "1/2", "a*b", "b*c", "a/2", "(a"]) | _json_values
    doc = {
        "m": m,
        "n": n,
        "generators": draw(
            st.dictionaries(st.sampled_from(["a", "b", "c", "1x"]), st.sampled_from(["even", "odd"]))
        ),
        "entries": draw(
            st.lists(st.lists(cells, min_size=m + n, max_size=m + n), min_size=m + n, max_size=m + n)
        ),
    }
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        if draw(st.booleans()):
            doc[key] = draw(_json_values)
        else:
            del doc[key]
    return json.dumps(doc)


@given(st.one_of(_matrix_documents(), _json_values.map(json.dumps), st.text(max_size=20)))
@example("[" * 5000 + "]" * 5000)
@settings(max_examples=200, deadline=None)
def test_load_supermatrix_raises_only_value_errors(text):
    try:
        load_supermatrix(text)
    except ValueError:
        pass


def test_super_immanant_reads_cycle_types_from_one_table_per_degree(monkeypatch):
    """The cycle types of S_r are computed once per r, not once per permutation
    on every call."""
    calls = []
    cycle_type = Permutation.cycle_type
    monkeypatch.setattr(Permutation, "cycle_type", lambda perm: calls.append(perm) or cycle_type(perm))
    immanants._typed_permutations.cache_clear()
    x = generator_matrix(1, 1)
    super_immanant((2, 1), x, (1, 1, 2))
    super_immanant((3,), x, (1, 2, 2))
    assert len(calls) <= 6


def _permutation_sum(char, x, rows, cols):
    """The immanant as the prefactor times the literal Koszul-signed sum over
    S_r: chi(cycle type) * action sign * chain coefficient at K = I o perm."""
    chi = immanants._as_class_function(char, len(rows))
    value = x.algebra.zero()
    for perm in symmetric_group(len(rows)):
        k = oracles.composed_tuple(rows, perm)
        weight = chi[perm.cycle_type()] * action_sign(k, x.m, perm)
        if weight:
            value = value + chain_coefficient(x, k, cols) * weight
    return -value if immanant_prefactor(rows, cols, x.m) < 0 else value


def _loaded_matrix():
    """A (2|1) matrix with rational entries, repeated across positions, so that
    chain coefficients of distinct K coincide and cancel in the sum."""
    doc = {
        "m": 2,
        "n": 1,
        "generators": {"a": "even", "b": "even", "beta": "odd", "gamma": "odd"},
        "entries": [["1/2*a", "1/2*a", "1/3*beta"],
                    ["1/2*a", "1/2*a", "beta"],
                    ["1/2*gamma", "beta", "b - 1/3"]],
    }
    return load_supermatrix(json.dumps(doc))


def test_super_immanant_table_route_matches_the_permutation_sum():
    blocks = [*((generator_matrix(m, n), 4) for m, n in [(1, 1), (2, 1), (1, 2)]),
              (_loaded_matrix(), 4), (generator_matrix(2, 2), 3)]
    for x, max_r in blocks:
        for r in range(1, max_r + 1):
            dict_char = {ct: Fraction(k - 2, 3) for k, ct in enumerate(partitions(r))}
            for rows in sorted_multisets(x.m, x.n, r):
                cols = tuple(reversed(rows))  # non-principal unless rows is a palindrome
                for char in [*partitions(r), dict_char]:
                    assert super_immanant(char, x, rows) == _permutation_sum(char, x, rows, rows)
                assert super_immanant((r,), x, rows, cols) == _permutation_sum((r,), x, rows, cols)
                assert super_immanant(dict_char, x, rows, cols) == \
                    _permutation_sum(dict_char, x, rows, cols)


def test_signed_class_table_is_built_once_per_index_tuple(monkeypatch):
    """A second shape at the same I reads the cached table and makes no sign
    call; a sign seam replaced after the cache is warm still reaches the sum."""
    x = generator_matrix(1, 1)
    rows = (1, 2, 2)
    calls = []
    original = immanants.action_sign

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(immanants, "action_sign", spy)
    first = super_immanant((2, 1), x, rows)
    assert len(calls) == 6
    super_immanant((3,), x, rows)
    super_immanant((1, 1, 1), x, rows)
    assert len(calls) == 6
    assert first == _permutation_sum((2, 1), x, rows, rows)

    monkeypatch.setattr(immanants, "action_sign", lambda *a: 1)
    assert super_immanant((2, 1), x, rows) != first


@pytest.mark.parametrize("module, seam",
                         [(immanants, "comodule_sign"), (superring, "merge_odd_parts")])
def test_chain_memo_is_keyed_by_the_sign_seams(monkeypatch, module, seam):
    """A sign seam replaced after the memo is warm still reaches the sum."""
    x = generator_matrix(1, 1)
    rows = (1, 2, 2)
    first = super_immanant((2, 1), x, rows)
    assert super_immanant((2, 1), x, rows) == first
    original = getattr(module, seam)
    mutants = {"comodule_sign": lambda *args: 1,
               "merge_odd_parts": lambda a, b: (1, original(a, b)[1])}
    monkeypatch.setattr(module, seam, mutants[seam])
    assert super_immanant((2, 1), x, rows) != first


def test_chain_memo_is_shared_across_shapes_not_across_matrices(monkeypatch):
    """A second shape at the same (I, J) reads the chains the first one stored;
    an equal matrix built apart, or a different one, fills its own memo."""
    calls = []
    original = immanants.chain_coefficient
    monkeypatch.setattr(immanants, "chain_coefficient",
                        lambda *args: calls.append(args) or original(*args))
    rows = (1, 2, 2)
    x = SuperMatrix(1, 1, generator_matrix(1, 1).entries)
    first = super_immanant((2, 1), x, rows)
    assert len(calls) == 3
    for shape in [(3,), (1, 1, 1), (2, 1)]:
        super_immanant(shape, x, rows)
    assert len(calls) == 3
    twin = SuperMatrix(1, 1, x.entries)
    assert super_immanant((2, 1), twin, rows) == first and len(calls) == 6
    other = SuperMatrix(1, 1, [[e * 2 for e in row] for row in x.entries])
    assert super_immanant((2, 1), other, rows) == first * 8 and len(calls) == 9
    assert len({id(y._chains) for y in (x, twin, other)}) == 3


@pytest.mark.parametrize("module, seam",
                         [(immanants, "parity_weight"), (superring, "merge_odd_parts")])
def test_trace_memo_is_keyed_by_the_sign_seams(monkeypatch, module, seam):
    """A sign seam replaced after the power traces are memoized still reaches
    the normalized immanant sum and the trace itself."""
    x = generator_matrix(1, 1)
    reads = {"immanant sum": lambda: normalized_immanant_sum((2,), x),
             "power trace": lambda: power_trace(x, 2)}
    first = {name: read() for name, read in reads.items()}
    assert {name: read() for name, read in reads.items()} == first
    original = getattr(module, seam)
    mutants = {"parity_weight": lambda i, m: 1,
               "merge_odd_parts": lambda a, b: (1, original(a, b)[1])}
    monkeypatch.setattr(module, seam, mutants[seam])
    for name, read in reads.items():
        assert read() != first[name], name


def test_trace_memo_is_shared_across_shapes_not_across_matrices(monkeypatch):
    """The one-row shape needs every power trace of its degree; the other
    shapes and `power_trace` itself read them from the memo, while an equal
    matrix built apart fills its own.  The traces up to degree 3 take one star
    product, X * X, kept in the memo beside them."""
    computed = []
    original = immanants.star_product
    monkeypatch.setattr(immanants, "star_product", lambda y, z: computed.append(z) or original(y, z))
    x = SuperMatrix(1, 1, generator_matrix(1, 1).entries)
    first = normalized_immanant_sum((3,), x)
    assert computed == [x]
    for shape in [(2, 1), (1, 1, 1), (2,), (1, 1), (1,)]:
        normalized_immanant_sum(shape, x)
    assert [power_trace(x, k) for k in (1, 2, 3)] and len(computed) == 1
    twin = SuperMatrix(1, 1, x.entries)
    assert normalized_immanant_sum((3,), twin) == first and len(computed) == 2


@pytest.mark.parametrize("m, n, max_r", [(1, 1, 4), (2, 1, 5), (1, 2, 4), (2, 2, 4), (3, 1, 4)])
def test_immanant_sum_by_power_traces_is_the_summed_table(m, n, max_r):
    """The library's super Frobenius route against the definition, the
    normalized immanant table summed, for every shape up to degree max_r."""
    from superimm.verify import _immanant_sum_by_definition

    x = generator_matrix(m, n)
    for r in range(1, max_r + 1):
        for lam in partitions(r):
            assert normalized_immanant_sum(lam, x) == _immanant_sum_by_definition(lam, x), lam


def test_immanant_sum_of_the_empty_shape_is_one():
    x = generator_matrix(2, 1)
    for shape in [(), (0,)]:
        assert normalized_immanant_sum(shape, x) == x.algebra.one()
    with pytest.raises(TableauxError):
        normalized_immanant_sum((1, 2), x)


def test_power_products_are_built_once_per_matrix(monkeypatch):
    """Across every shape of degree 4, read twice, each product p_mu of two or
    more power traces is multiplied out once: one product per distinct prefix
    of length >= 2 among the mu |- 4."""
    from superimm.superring import SuperPoly

    products, in_trace = [], []
    original_mul, original_trace = SuperPoly.__mul__, immanants.power_trace

    def mul(a, b):
        if not in_trace:
            products.append((id(a), id(b)))
        return original_mul(a, b)

    def trace(x, k):
        in_trace.append(k)
        try:
            return original_trace(x, k)
        finally:
            in_trace.pop()

    x = SuperMatrix(2, 1, generator_matrix(2, 1).entries)
    want = {lam: normalized_immanant_sum(lam, x) for lam in partitions(4)}
    monkeypatch.setattr(SuperPoly, "__mul__", mul)
    monkeypatch.setattr(immanants, "power_trace", trace)
    x = SuperMatrix(2, 1, x.entries)
    for _ in range(2):
        assert {lam: normalized_immanant_sum(lam, x) for lam in partitions(4)} == want
    prefixes = {mu[:i] for mu in partitions(4) for i in range(2, len(mu) + 1)}
    assert len(products) == len(set(products)) == len(prefixes) == 7


BLOCKS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]


@pytest.mark.parametrize("m, n", BLOCKS)
def test_series_memo_reads_equal_fresh_series_in_any_order(m, n):
    """Orders 0..5 read ascending (every read replaces the entry), descending
    (every read truncates it) and shuffled, on a matrix with an empty memo:
    each read equals a fresh characteristic series and its inverse."""
    fresh = {k: characteristic_series(generator_matrix(m, n), k) for k in range(6)}
    inverse = {k: series.invert() for k, series in fresh.items()}
    shuffled = list(range(6))
    random.Random(m * 10 + n).shuffle(shuffled)
    for orders in (range(6), range(5, -1, -1), shuffled):
        x = SuperMatrix(m, n, generator_matrix(m, n).entries)
        for k in orders:
            assert immanants._series_memo(x, k).coeffs[:k + 1] == fresh[k].coeffs
            assert immanants._series_memo(x, k, inverted=True).coeffs[:k + 1] == inverse[k].coeffs
            assert characteristic_coefficients(x, k) == [
                -c if i % 2 else c for i, c in enumerate(fresh[k].coeffs)]
            assert elementary_invariant(x, k) == characteristic_coefficients(x, k)[k]
            assert complete_invariant(x, k) == inverse[k].coefficient(k)


@pytest.mark.parametrize("module, seam",
                         [(immanants, "characteristic_series"), (immanants, "_adjugate"),
                          (superring, "merge_odd_parts")])
def test_series_memo_is_keyed_by_the_functions_it_reads(monkeypatch, module, seam):
    """A mutant of the series route installed after the memo is warm still
    reaches every invariant read off the series."""
    x = generator_matrix(1, 1)
    reads = {
        "elementary": lambda: elementary_invariant(x, 2),
        "complete": lambda: complete_invariant(x, 2),
        "coefficients": lambda: characteristic_coefficients(x, 2),
    }
    first = {name: read() for name, read in reads.items()}
    assert {name: read() for name, read in reads.items()} == first
    original = getattr(module, seam)
    mutants = {"characteristic_series": lambda x, order: original(x, order) * 2,
               "_adjugate": lambda d, one: [[-e for e in row] for row in original(d, one)],
               "merge_odd_parts": lambda a, b: (1, original(a, b)[1])}
    monkeypatch.setattr(module, seam, mutants[seam])
    for name, read in reads.items():
        assert read() != first[name], name


def test_series_memo_is_shared_across_reads_not_across_matrices(monkeypatch):
    """The series built for one invariant serves the others and its inverse;
    a higher order rebuilds it, and an equal matrix built apart fills its own."""
    calls = []
    original = immanants.characteristic_series
    monkeypatch.setattr(immanants, "characteristic_series",
                        lambda x, order: calls.append(order) or original(x, order))
    x = SuperMatrix(2, 1, generator_matrix(2, 1).entries)
    first = elementary_invariant(x, 3)
    complete_invariant(x, 3)
    characteristic_coefficients(x, 2)
    elementary_invariant(x, 1)
    assert calls == [3]
    complete_invariant(x, 4)
    assert calls == [3, 4]
    twin = SuperMatrix(2, 1, x.entries)
    assert elementary_invariant(twin, 3) == first and calls == [3, 4, 3]


@pytest.mark.parametrize("order", [True, 2.0, "2", None], ids=["bool", "float", "str", "none"])
@pytest.mark.parametrize("entry", [elementary_invariant, complete_invariant,
                                   characteristic_coefficients, characteristic_series],
                         ids=lambda f: f.__name__)
def test_series_order_must_be_a_plain_int(entry, order):
    """Checked before any memo lookup, so True is never stored as order 1."""
    x = SuperMatrix(1, 1, generator_matrix(1, 1).entries)
    with pytest.raises(SuperMatrixError, match="^series order must be an integer$"):
        entry(x, order)
    assert not hasattr(x, "_chains")


@pytest.mark.parametrize("entry, what", [
    (elementary_invariant, "series order"), (complete_invariant, "series order"),
    (characteristic_coefficients, "series order"), (characteristic_series, "series order"),
    (power_trace, "star exponent"), (star_power, "star exponent"),
], ids=lambda v: getattr(v, "__name__", v))
def test_orders_above_the_bound_are_refused(entry, what):
    """Refused before any series or star power is built: 10**20 once ended in
    a raw OverflowError, or in star products without end.  On a numeric
    identity, an entry that missed the bound would return at MAX_ORDER + 1."""
    x = SuperMatrix.identity(1, 1, grassmann_algebra(0))
    for order in (immanants.MAX_ORDER + 1, 10**20):
        with pytest.raises(SuperMatrixError, match=f"^{what} must be at most 1000$"):
            entry(x, order)
    assert not hasattr(x, "_chains")
