import json
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from superimm import immanants
from superimm.immanants import (
    DegenerateSpectrumError,
    SuperMatrix,
    SuperMatrixError,
    berezinian,
    chain_coefficient,
    chain_coefficient_slotwise,
    characteristic_coefficients,
    classical_immanant,
    complete_invariant,
    diagonalize,
    elementary_invariant,
    generator_matrix,
    idempotent_chain_supertrace,
    immanant_via_idempotent,
    load_supermatrix,
    normalized_immanant_sum,
    power_trace,
    schur_weyl_norm_report,
    star_power,
    star_product,
    star_product_slotwise,
    super_immanant,
    supertrace,
    weight_space_supertrace,
)
from superimm.superring import Algebra, GrassmannPoint, TruncatedSeries, grassmann_algebra
from superimm.symgroup import Permutation, primitive_idempotent
from superimm.tableaux import hook_product, partitions, row_reading_tableau, standard_tableaux
from superimm.tensorspace import (
    apply_group_algebra_to_state,
    composition_to_multiset,
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
        lambda x: immanant_via_idempotent((1, 1), x, (0, 1)),
    ],
    ids=["chain-0", "chain-3", "slotwise-3", "classical-0", "idempotent-0"],
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
    for m, n in [(1, 1)]:
        x = generator_matrix(m, n)
        for r in (1, 2, 3):
            for lam in partitions(r):
                for indices in sorted_multisets(m, n, r):
                    want = super_immanant(lam, x, indices)
                    for tab in standard_tableaux(lam):
                        assert immanant_via_idempotent(lam, x, indices, tab) == want


def test_idempotent_route_requires_sorted():
    x, _ = gens(1, 1)
    with pytest.raises(SuperMatrixError):
        immanant_via_idempotent((1, 1), x, (2, 1))


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
    assert elementary_invariant(x, -2).is_zero
    assert elementary_invariant(x, 1) == supertrace(x)
    assert complete_invariant(x, 1) == supertrace(x)
    alphas = [elementary_invariant(x, k) for k in range(4)]
    for a in alphas:
        for b in alphas:
            assert a * b == b * a


def test_star_product_against_slot_oracle():
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        x = generator_matrix(m, n)
        assert star_product(x, x) == star_product_slotwise(x, x)
    y = generator_matrix(2, 0)
    assert star_product(y, y) == y @ y  # no odd signs at n=0
    x = generator_matrix(1, 1)
    assert star_power(x, 1) == x
    assert power_trace(x, 0) == 0  # supertrace of the identity at m=n


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
                e = primitive_idempotent(row_reading_tableau(shape))
                assert value == idempotent_chain_supertrace(e, x, k), (m, n, shape)


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
    for m, n, r in [(1, 1, 1), (1, 1, 2), (1, 1, 3), (2, 1, 1), (2, 1, 2)]:
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


def test_weight_space_supertrace_rejects_a_weight_of_the_wrong_length():
    x = generator_matrix(1, 1)
    for weight in [(3,), (3, 0, 0)]:
        with pytest.raises(SuperMatrixError):
            weight_space_supertrace((2, 1), weight, x)


def test_weight_space_supertrace_builds_each_chain_state_once(monkeypatch):
    # at (2|1) the weight (1,1,1) meets the (2,1) copy in a 2-dimensional
    # space, so two basis vectors share keys
    x = generator_matrix(2, 1)
    e = primitive_idempotent(row_reading_tableau((2, 1)))
    support = {key for start in permutations((1, 2, 3))
               for key in apply_group_algebra_to_state(e, {start: Fraction(1)}, 2)}
    calls = []
    original = immanants.chain_state

    def spy(x, in_indices, *rest):
        calls.append(tuple(in_indices))
        return original(x, in_indices, *rest)

    monkeypatch.setattr(immanants, "chain_state", spy)
    value = weight_space_supertrace((2, 1), (1, 1, 1), x)
    assert value == super_immanant((2, 1), x, (1, 2, 3))
    assert sorted(calls) == sorted(support)


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


def test_schur_weyl_identity_filling():
    rep = schur_weyl_norm_report(standard_tableaux((2, 1))[0], (1, 1, 1), 2, 1)
    assert rep["semistandard"] and not rep["vector_zero"]
    assert rep["norm"] == Fraction(1, hook_product((2, 1)))


def test_idempotent_chain_supertrace_equals_immanant_sum():
    for m, n in [(1, 1), (2, 1)]:
        x = generator_matrix(m, n)
        for r in (1, 2, 3):
            for lam in partitions(r):
                for tab in standard_tableaux(lam):
                    assert idempotent_chain_supertrace(
                        primitive_idempotent(tab), x, r
                    ) == normalized_immanant_sum(lam, x)


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
