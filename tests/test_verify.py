import json
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from superimm import verify
from superimm.immanants import SuperMatrix, generator_matrix, super_immanant
from superimm.superring import TruncatedSeries
from superimm.symgroup import MAX_DEGREE
from superimm.tableaux import partitions
from superimm.verify import (
    CHECK_FAMILIES,
    CheckReport,
    VerifyError,
    check_berezinian_series,
    check_chain_oracle,
    check_goulden_jackson,
    check_hessenberg,
    check_kostant,
    check_littlewood_1,
    check_littlewood_2,
    check_littlewood_3,
    check_lmw,
    check_macmahon,
    check_newton,
    check_phi_isomorphism,
    check_schur_weyl,
    check_vanishing,
    lr_coefficient,
    random_grassmann_point,
    sweep,
)


def test_lr_pieri_and_gates():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1, 1), (2, 1)) == 1
    assert lr_coefficient((2,), (1,), (1, 1, 1)) == 0
    assert lr_coefficient((2, 1), (), (2, 1)) == 1
    with pytest.raises(VerifyError):
        lr_coefficient((2,), (1,), (2,))


def test_lr_against_known_table():
    # s_(2,1) * s_(2,1) in enough variables
    want = {
        (4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1,
        (2, 2, 2): 1, (2, 2, 1, 1): 1,
    }
    for lam in partitions(6):
        assert lr_coefficient((2, 1), (2, 1), lam) == want.get(lam, 0)


@pytest.mark.parametrize("route", ["_lr_by_characters", "_lr_by_kostka"])
def test_each_lr_route_is_watched(monkeypatch, route):
    import superimm.verify as verify

    original = getattr(verify, route)

    def broken(mu, nu, r):
        table = dict(original(mu, nu, r))
        table[(3, 1)] = table.get((3, 1), 0) + 1
        return table

    verify._lr_table.cache_clear()
    monkeypatch.setattr(verify, route, broken)
    try:
        with pytest.raises(VerifyError):
            lr_coefficient((2, 1), (1,), (3, 1))
    finally:
        verify._lr_table.cache_clear()


def test_lr_routes_agree_through_degree_six():
    """The Kostka route and the character route give the same table for every
    pair (mu, nu) with |mu| + |nu| <= 6, empty factors included."""
    import superimm.verify as verify

    pairs = [(mu, nu) for a in range(7) for b in range(7 - a)
             for mu in partitions(a) for nu in partitions(b)]
    assert len(pairs) == 139
    for mu, nu in pairs:
        r = sum(mu) + sum(nu)
        assert verify._lr_by_kostka(mu, nu, r) == verify._lr_by_characters(mu, nu, r), (mu, nu)


def test_littlewood_2_builds_each_table_entry_once(monkeypatch):
    import superimm.immanants as immanants

    calls = []
    original = immanants.super_immanant

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(immanants, "super_immanant", spy)
    report = check_littlewood_2((1,), (1,), 2, 1)
    assert report.passed and report.cases == 6
    # 3 entries of the one (1,) factor table, then the LR-weighted side
    # (2 shapes x 6 multisets)
    assert len(calls) == 15


def test_littlewood_2_memo_is_keyed_by_block_size():
    memo: dict = {}
    assert check_littlewood_2((1,), (1,), 2, 1, memo).passed
    report = check_littlewood_2((1,), (1,), 1, 2, memo)
    assert report.passed and report.cases == 6, report.witness


def _assert_pass(report: CheckReport):
    assert report.passed, report.witness
    assert report.cases > 0
    assert report.witness is None


def test_littlewood_1_degenerate_and_generic():
    _assert_pass(check_littlewood_1((2,), (), 1, 1))
    _assert_pass(check_littlewood_1((1,), (1,), 1, 1))
    _assert_pass(check_littlewood_1((2,), (1,), 2, 1))
    _assert_pass(check_littlewood_1((1, 1), (1,), 2, 1))
    with pytest.raises(VerifyError):
        check_littlewood_1((1,), (1,), 2, 1)


def test_littlewood_1_three_factor_smoke():
    # iterate the two-factor identity: subsets of sizes (1,1,1) at (2,1)
    m, n = 2, 1
    x = generator_matrix(m, n)
    full = (1, 2, 3)
    lhs = x.algebra.zero()
    for s1 in combinations(full, 1):
        rest = tuple(sorted(set(full) - set(s1)))
        for s2 in combinations(rest, 1):
            s3 = tuple(sorted(set(rest) - set(s2)))
            lhs = lhs + (
                super_immanant((1,), x, s1)
                * super_immanant((1,), x, s2)
                * super_immanant((1,), x, s3)
            )
    rhs = x.algebra.zero()
    for kappa in partitions(2):
        c1 = lr_coefficient((1,), (1,), kappa)
        for lam in partitions(3):
            c2 = lr_coefficient(kappa, (1,), lam)
            if c1 and c2:
                rhs = rhs + super_immanant(lam, x, full) * (c1 * c2)
    assert lhs == rhs


def test_littlewood_2_cases():
    _assert_pass(check_littlewood_2((1,), (1,), 1, 1))
    _assert_pass(check_littlewood_2((2,), (1,), 1, 1))
    _assert_pass(check_littlewood_2((), (2,), 1, 1))  # one factor empty
    _assert_pass(check_littlewood_2((1, 1), (1,), 2, 1))


def test_lmw_cases():
    _assert_pass(check_lmw((1, 1, 1), 1, 1))
    _assert_pass(check_lmw((2, 1), 1, 1))
    _assert_pass(check_lmw((2, 2), 2, 1))


def test_series_identities():
    _assert_pass(check_macmahon(1, 1, 1))  # order one pins the two first invariants equal
    _assert_pass(check_macmahon(1, 1, 4))
    _assert_pass(check_newton(1, 1, 4))
    _assert_pass(check_macmahon(2, 1, 3))
    _assert_pass(check_newton(2, 1, 3))


def test_goulden_jackson_cases():
    _assert_pass(check_goulden_jackson((1,), 1, 1))
    _assert_pass(check_goulden_jackson((2, 1), 1, 1))
    _assert_pass(check_goulden_jackson((2, 2), 1, 1))  # forced 0 = 0 = 0


def test_hessenberg_cases():
    for lam in [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]:
        _assert_pass(check_hessenberg(lam, 1, 1))


def test_kostant_vanishing_schur_weyl():
    _assert_pass(check_kostant(1, 1, 2))
    _assert_pass(check_vanishing(1, 1, 4))
    _assert_pass(check_schur_weyl(1, 1, 2))


def test_littlewood_3_and_berezinian():
    pt = random_grassmann_point(1, 1, 99)
    _assert_pass(check_littlewood_3((2,), 1, 1, pt))
    _assert_pass(check_littlewood_3((1, 1), 1, 1, pt))
    _assert_pass(check_berezinian_series(1, 1, 3))


def test_littlewood_3_canonical_two_unit_point():
    # bodies 2 and 1, single-theta odd entries, inside Lambda_2
    from superimm.superring import GrassmannPoint, grassmann_algebra

    lam2 = grassmann_algebra(2)
    x = generator_matrix(1, 1)
    pt = GrassmannPoint(
        x.algebra,
        {
            "x1_1": lam2.scalar(2),
            "x2_2": lam2.scalar(1),
            "x1_2": lam2.gen("th1"),
            "x2_1": lam2.gen("th2"),
        },
        n_units=2,
    )
    for shape in [(1,), (2,), (1, 1), (2, 1), (3,)]:
        _assert_pass(check_littlewood_3(shape, 1, 1, pt))


def test_littlewood_3_diagonal_point_is_classical():
    # with vanishing odd blocks the identity reduces to evaluating the Schur
    # polynomial at rational numbers
    from superimm.superring import GrassmannPoint, grassmann_algebra

    lam4 = grassmann_algebra(4)
    x = generator_matrix(2, 1)
    values = {f"x{i}_{j}": lam4.zero() for i in (1, 2, 3) for j in (1, 2, 3)}
    values["x1_1"], values["x2_2"], values["x3_3"] = (
        lam4.scalar(3),
        lam4.scalar(-2),
        lam4.scalar(5),
    )
    pt = GrassmannPoint(x.algebra, values)
    for shape in [(1,), (2,), (1, 1), (2, 1)]:
        _assert_pass(check_littlewood_3(shape, 2, 1, pt))


def test_hessenberg_degree_two_closed_forms():
    from superimm.immanants import complete_invariant, elementary_invariant, power_trace

    x = generator_matrix(1, 1)
    g1, g2 = power_trace(x, 1), power_trace(x, 2)
    assert (g1 * g1 + g2) * Fraction(1, 2) == complete_invariant(x, 2)
    assert (g1 * g1 - g2) * Fraction(1, 2) == elementary_invariant(x, 2)


def test_phi_and_oracle_checks():
    _assert_pass(check_phi_isomorphism(1, 1, 3))
    _assert_pass(check_chain_oracle(1, 1, 2))


def test_random_point_is_seeded_deterministically():
    p1 = random_grassmann_point(2, 1, 1234)
    p2 = random_grassmann_point(2, 1, 1234)
    assert p1.assignment == p2.assignment
    p3 = random_grassmann_point(2, 1, 1235)
    assert p1.assignment != p3.assignment


def test_report_determinism():
    r1 = check_kostant(1, 1, 2).to_dict()
    r2 = check_kostant(1, 1, 2).to_dict()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_witness_on_failure(monkeypatch):
    # perturb one convention to watch a witness materialize
    from superimm import tensorspace

    original = tensorspace.parity_weight
    monkeypatch.setattr("superimm.tensorspace.parity_weight", lambda i, m: 1)
    monkeypatch.setattr("superimm.immanants.parity_weight", lambda i, m: 1)
    report = check_kostant(1, 1, 2)
    assert not report.passed
    assert report.witness is not None and "case" in report.witness
    monkeypatch.setattr("superimm.tensorspace.parity_weight", original)
    monkeypatch.setattr("superimm.immanants.parity_weight", original)
    assert check_kostant(1, 1, 2).passed


def test_sweep_all_small():
    reports = sweep("all", 1, 1, 2, order=2, trials=1)
    assert reports and all(r.passed for r in reports)
    with pytest.raises(VerifyError):
        sweep("nope", 1, 1, 2)


def test_sweep_all_runs_every_cli_family(monkeypatch):
    import superimm.verify as verify
    from superimm.cli import CHECK_NAMES

    ran = []

    def spy(name, *args, **kwargs):
        if name == "all":
            return sweep(name, *args, **kwargs)
        ran.append(name)
        return []

    monkeypatch.setattr(verify, "sweep", spy)
    verify.sweep("all", 1, 1, 2)
    assert sorted(ran) == sorted(set(CHECK_NAMES) - {"all"})
    assert {"phi-isomorphism", "chain-oracle"} <= set(ran)


# -- the oracles still bite: each check fails when one of its routes is broken


def _double_linear_coefficient(original):
    def broken(x, order):
        series = original(x, order)
        coeffs = list(series.coeffs)
        if order >= 1:
            coeffs[1] = coeffs[1] * 2
        return TruncatedSeries(series.algebra, coeffs, series.order)

    return broken


def _failed_case(report: CheckReport) -> str:
    assert not report.passed
    return report.witness["case"]


def test_broken_characteristic_series_is_caught(monkeypatch):
    import superimm.immanants as immanants

    monkeypatch.setattr(immanants, "characteristic_series",
                        _double_linear_coefficient(immanants.characteristic_series))
    assert _failed_case(check_berezinian_series(1, 1, 2)) == "symbolic coefficient k=1"
    assert _failed_case(check_goulden_jackson((2, 1), 1, 1)).startswith("det(alpha-JT)")


def test_broken_column_immanant_sums_are_caught(monkeypatch):
    """Each route to the normalized immanant sums has its own watchers.
    Doubling the column shapes on the definition route (the table, or the
    helper that sums it) turns macmahon, newton and hessenberg red; doubling
    them on the library's power-trace route turns berezinian, goulden-jackson
    and littlewood3 red.  Either way the other three stay green."""
    import superimm.verify as verify

    watchers = {"definition": ("macmahon", "newton", "hessenberg"),
                "library": ("berezinian", "goulden-jackson", "littlewood3")}

    def doubled_on_columns(route):
        def broken(shape, x):
            value = route(shape, x)
            if set(shape) != {1}:
                return value
            return {k: v * 2 for k, v in value.items()} if isinstance(value, dict) else value * 2
        return broken

    def red(family):
        return not all(r.passed for r in sweep(family, 1, 1, 2, order=2, trials=1))

    for route, name in [("definition", "normalized_immanant_table"),
                        ("definition", "_immanant_sum_by_definition"),
                        ("library", "normalized_immanant_sum")]:
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, doubled_on_columns(getattr(verify, name)))
            for owner, families in watchers.items():
                for family in families:
                    assert red(family) == (owner == route), (name, family)
            if route == "definition":
                assert _failed_case(check_macmahon(1, 1, 2)) == "lambda(-t) sigma(t) = 1"
            else:
                assert _failed_case(check_berezinian_series(1, 1, 2)) == "symbolic coefficient k=1"


def test_berezinian_sweep_draws_no_grassmann_point(monkeypatch):
    import superimm.verify as verify

    def no_point(*args):
        raise AssertionError("the Berezinian series drew a Grassmann point")

    monkeypatch.setattr(verify, "random_grassmann_point", no_point)
    order = 3
    reports = sweep("berezinian", 2, 1, 3, order=order)
    assert reports
    for report in reports:
        _assert_pass(report)
        assert report.cases == order + 1
        assert set(report.params) == {"identity", "m", "n", "order"}


@pytest.mark.parametrize("k", range(4))  # every coefficient of an order-3 series
def test_every_berezinian_coefficient_is_compared(monkeypatch, k):
    import superimm.verify as verify

    original = verify.characteristic_coefficients

    def shifted(x, order):
        coeffs = original(x, order)
        coeffs[k] = coeffs[k] + 1
        return coeffs

    monkeypatch.setattr(verify, "characteristic_coefficients", shifted)
    assert _failed_case(check_berezinian_series(1, 1, 3)) == f"symbolic coefficient k={k}"


def test_broken_idempotent_supertrace_is_caught(monkeypatch):
    import superimm.verify as verify

    original = verify.idempotent_chain_supertrace
    monkeypatch.setattr(verify, "idempotent_chain_supertrace", lambda e, x: original(e, x) * 2)
    for lam in [(1,), (2,), (1, 1), (2, 1)]:
        assert _failed_case(check_goulden_jackson(lam, 1, 1)) == (
            "idempotent supertrace = normalized immanant sum"
        )


def test_negated_adjugate_is_caught(monkeypatch):
    import superimm.immanants as immanants

    original = immanants._adjugate
    monkeypatch.setattr(
        immanants, "_adjugate", lambda d, one: [[-e for e in row] for row in original(d, one)]
    )
    assert _failed_case(check_berezinian_series(1, 1, 3)) == "symbolic coefficient k=2"
    # diagonalize does not use the adjugate; the characteristic series behind
    # elementary_invariant does
    point = random_grassmann_point(2, 1, 99)
    assert _failed_case(check_littlewood_3((2, 1), 2, 1, point)) == "elementary specialization"


def test_transposed_adjugate_is_caught(monkeypatch):
    import superimm.immanants as immanants

    original = immanants._adjugate
    # a 1x1 adjugate is its own transpose: the mutation needs a 2x2 lower block
    monkeypatch.setattr(
        immanants, "_adjugate", lambda d, one: [list(col) for col in zip(*original(d, one))]
    )
    assert _failed_case(check_berezinian_series(1, 2, 3)) == "symbolic coefficient k=3"
    assert _failed_case(check_goulden_jackson((2, 1), 1, 2)).startswith("det(alpha-JT)")


def test_broken_unipotent_inverse_is_caught(monkeypatch):
    import superimm.immanants as immanants

    original = immanants._unipotent_inverse

    def flipped(columns, algebra):
        # F^(d) = +sum_e N^(e) F^(d-e): the recurrence loses its sign
        negated = [[[p if e == 0 else -p for e, p in enumerate(parts)] for parts in column]
                   for column in columns]
        return original(negated, algebra)

    monkeypatch.setattr(immanants, "_unipotent_inverse", flipped)
    point = random_grassmann_point(2, 1, 99)
    assert _failed_case(check_littlewood_3((2, 1), 2, 1, point)) == "diagonalization residual"


def test_exception_witness_names_the_raising_frame(monkeypatch):
    import superimm.verify as verify

    # a power trace that fails inside the library, as a broken convention might
    monkeypatch.setattr(verify, "power_trace", lambda x, k: TruncatedSeries(x.algebra, [], -1))
    witnesses = [check_newton(1, 1, 2).witness for _ in range(2)]
    assert witnesses[0] == witnesses[1]
    assert witnesses[0]["error"] == "SuperRingError: truncation order must be >= 0"
    assert re.fullmatch(r"superimm\.superring:\d+ in __init__", witnesses[0]["where"])


@pytest.mark.parametrize(
    "check, low",
    [
        (lambda order: check_newton(1, 1, order), 1),
        (lambda order: check_macmahon(1, 1, order), 0),
        (lambda order: check_berezinian_series(1, 1, order), 0),
    ],
    ids=["newton", "macmahon", "berezinian-series"],
)
def test_orders_below_the_minimum_are_rejected_up_front(check, low, monkeypatch):
    import superimm.verify as verify

    def no_work(*args):
        raise AssertionError("work started before the order was checked")

    monkeypatch.setattr(verify, "generator_matrix", no_work)
    for order in (low - 1, low - 3):
        with pytest.raises(VerifyError, match=f"order >= {low}, got {order}"):
            check(order)


@pytest.mark.parametrize("check, low", [(check_newton, 1), (check_macmahon, 0)],
                         ids=["newton", "macmahon"])
def test_orders_above_the_degree_bound_are_rejected_up_front(check, low, monkeypatch):
    """The immanant sums of degree k sum over S_k, which is refused above
    MAX_DEGREE: an order past it is a VerifyError, not a failed report."""
    import superimm.verify as verify

    def no_work(*args):
        raise AssertionError("work started before the order was checked")

    monkeypatch.setattr(verify, "generator_matrix", no_work)
    name = check.__name__.removeprefix("check_")
    for order in (MAX_DEGREE + 1, 10**20):
        with pytest.raises(VerifyError, match=f"^{name} needs 8 >= order >= {low}, got {order}$"):
            check(1, 1, order)


def test_littlewood_3_rejects_the_empty_shape_up_front(monkeypatch):
    import superimm.verify as verify

    point = random_grassmann_point(1, 1, 99)

    def no_work(*args):
        raise AssertionError("work started before the shape was checked")

    monkeypatch.setattr(verify, "generator_matrix", no_work)
    with pytest.raises(VerifyError, match="nonempty shape"):
        check_littlewood_3((), 1, 1, point)


def test_hessenberg_rejects_the_empty_shape_up_front():
    with pytest.raises(VerifyError, match="nonempty shape"):
        check_hessenberg((), 1, 1)


def test_sweep_rejects_trials_below_one():
    for trials in (0, -2):
        with pytest.raises(VerifyError, match=f"trials >= 1, got {trials}"):
            sweep("littlewood3", 1, 1, 2, trials=trials)


def test_a_size_below_one_is_refused_before_any_work(monkeypatch):
    """`all` at max_r = 0 returned ten passing reports, one of them a rank
    count over no images, and most families returned none at all."""
    def no_work(*args):
        raise AssertionError("a check started on a size below one")

    monkeypatch.setattr(verify, "generator_matrix", no_work)
    for size in (0, -1):
        for name in ("all", *CHECK_FAMILIES):
            with pytest.raises(VerifyError, match=f"^sweep needs max_r >= 1, got {size}$"):
                sweep(name, 1, 1, size)
        with pytest.raises(VerifyError, match=f"^phi-isomorphism needs max_size >= 1, got {size}$"):
            check_phi_isomorphism(1, 1, size)
        with pytest.raises(VerifyError, match=f"^chain-oracle needs max_r >= 1, got {size}$"):
            check_chain_oracle(1, 1, size)


def test_a_degree_above_max_degree_is_refused_before_any_check(monkeypatch):
    """`vanishing` at max_r = 9 ran every degree up to 8 before failing, and
    `littlewood1` at m + n = 9 enumerated S_9 without end."""
    ran = []
    for attr in dir(verify):
        if attr.startswith("check_"):
            monkeypatch.setattr(verify, attr, lambda *args, _name=attr: ran.append(_name))
    cases = [(name, 1, 1, MAX_DEGREE + 1) for name in ("all", *CHECK_FAMILIES)]
    cases += [("littlewood1", 5, 4, 1), ("all", 5, 4, 1)]
    for name, m, n, max_r in cases:
        with pytest.raises(VerifyError) as info:
            sweep(name, m, n, max_r)
        assert "\n" not in str(info.value)
    assert ran == []
    sweep("littlewood1", 4, 4, 1)  # the spies are in place
    assert set(ran) == {"check_littlewood_1"}


def test_a_series_order_outside_the_bounds_is_refused_before_any_check(monkeypatch):
    """`all` at order 9 ran eleven checks before `check_macmahon` refused the
    order, and at order 0 twelve before `check_newton` did."""
    ran = []
    for attr in dir(verify):
        if attr.startswith("check_"):
            monkeypatch.setattr(verify, attr, lambda *args, _name=attr: ran.append(_name))
    cases = [("macmahon", -1, "macmahon needs 8 >= order >= 0, got -1"),
             ("macmahon", MAX_DEGREE + 1, "macmahon needs 8 >= order >= 0, got 9"),
             ("newton", 0, "newton needs 8 >= order >= 1, got 0"),
             ("newton", MAX_DEGREE + 1, "newton needs 8 >= order >= 1, got 9"),
             ("all", 0, "newton needs 8 >= order >= 1, got 0"),
             ("all", MAX_DEGREE + 1, "macmahon needs 8 >= order >= 0, got 9")]
    for name, order, message in cases:
        with pytest.raises(VerifyError) as info:
            sweep(name, 1, 1, 1, order=order)
        assert str(info.value) == message
    assert ran == []
    sweep("macmahon", 1, 1, 1, order=0)  # the spies are in place
    sweep("berezinian", 1, 1, 1, order=MAX_DEGREE + 1)  # its series are not sums over S_k
    assert ran == ["check_macmahon", "check_berezinian_series"]


def _spy(monkeypatch, module, name, calls):
    """Count the calls of module.name in calls[name]."""
    original = getattr(module, name)

    def spy(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, spy)


def test_littlewood_3_sweep_shares_its_work(monkeypatch):
    import superimm.verify as verify
    from superimm.superring import GrassmannPoint

    calls = {}
    for name in ("diagonalize", "normalized_immanant_sum", "power_trace",
                 "elementary_invariant", "complete_invariant", "evaluate_two_alphabets"):
        _spy(monkeypatch, verify, name, calls)
    original = GrassmannPoint.evaluate

    def evaluate(point, poly):
        calls["GrassmannPoint.evaluate"] = calls.get("GrassmannPoint.evaluate", 0) + 1
        return original(point, poly)

    monkeypatch.setattr(GrassmannPoint, "evaluate", evaluate)
    reports = sweep("littlewood3", 2, 1, 3, trials=3)
    assert len(reports) == 3 * 6 and all(r.passed for r in reports)
    # one diagonalization per point, the symbolic sides once per shape or degree;
    # each point evaluates the 9 entries of its matrix, then the 8 sides that
    # differ as polynomials on each end (e_r, h_r and p_1 equal immanant sums)
    assert calls == {"diagonalize": 3, "normalized_immanant_sum": 6, "power_trace": 3,
                     "elementary_invariant": 3, "complete_invariant": 3,
                     "evaluate_two_alphabets": 3 * 8, "GrassmannPoint.evaluate": 3 * (9 + 8)}


def test_littlewood_3_memo_is_keyed_by_point(monkeypatch):
    import superimm.verify as verify

    calls = {}
    _spy(monkeypatch, verify, "diagonalize", calls)
    memo: dict = {}
    for seed in (1, 2):
        report = check_littlewood_3((1,), 2, 1, random_grassmann_point(2, 1, seed), memo=memo)
        assert report.passed and report.cases == 5, report.witness
    assert calls == {"diagonalize": 2}


def test_lmw_sweep_builds_each_table_once(monkeypatch):
    """An lmw sweep at (2|2), r <= 4, reads its 7 distinct row and column
    tables from one memo, and reports exactly what unshared checks report."""
    import superimm.verify as verify

    calls = {}
    _spy(monkeypatch, verify, "normalized_immanant_table", calls)
    reports = sweep("lmw", 2, 2, 4)
    assert calls == {"normalized_immanant_table": 7}
    alone = [check_lmw(lam, 2, 2) for r in range(1, 5) for lam in partitions(r)]
    assert [json.dumps(r.to_dict(), sort_keys=True) for r in reports] == \
        [json.dumps(r.to_dict(), sort_keys=True) for r in alone]


def _generator_copies(monkeypatch, shared: bool) -> None:
    """Point verify at copies of the generator matrices whose memos start
    empty (`generator_matrix` is process-global, so its memos may be warm):
    one copy per block size if `shared`, else a new copy per call."""
    import superimm.verify as verify

    copies = {}

    def copy(m, n):
        if not shared or (m, n) not in copies:
            copies[m, n] = SuperMatrix(m, n, generator_matrix(m, n).entries)
        return copies[m, n]

    monkeypatch.setattr(verify, "generator_matrix", copy)


def test_hessenberg_sweep_makes_each_power_trace_once(monkeypatch):
    """A Hessenberg sweep at (2|2), r <= 5, computes the traces gamma_1..gamma_5
    once each from two star products, X^{*2} and X^{*3}, and reports exactly
    what checks on matrices of their own report."""
    import superimm.immanants as immanants

    calls = {}
    _spy(monkeypatch, immanants, "star_product", calls)
    _generator_copies(monkeypatch, shared=True)
    reports = sweep("hessenberg", 2, 2, 5)
    assert calls == {"star_product": 2}
    _generator_copies(monkeypatch, shared=False)
    alone = [check_hessenberg(lam, 2, 2) for r in range(1, 6) for lam in partitions(r)]
    assert [json.dumps(r.to_dict(), sort_keys=True) for r in reports] == \
        [json.dumps(r.to_dict(), sort_keys=True) for r in alone]


def test_goulden_jackson_sweep_builds_each_series_once(monkeypatch):
    """The suite grid's two goulden-jackson rows build the characteristic
    series of 7 distinct (m, n, r) and its inverse once each, 17 shapes in
    all, and report exactly what checks on matrices of their own report.
    With n = 1 each series build inverts det(D) once, so 7 + 7 inversions."""
    import superimm.immanants as immanants

    calls = {}
    _spy(monkeypatch, immanants, "characteristic_series", calls)
    _spy(monkeypatch, TruncatedSeries, "invert", calls)
    _generator_copies(monkeypatch, shared=True)
    reports = sweep("goulden-jackson", 1, 1, 4) + sweep("goulden-jackson", 2, 1, 3)
    assert calls == {"characteristic_series": 7, "invert": 14} and len(reports) == 17
    _generator_copies(monkeypatch, shared=False)
    alone = [check_goulden_jackson(lam, m, n) for m, n, max_r in ((1, 1, 4), (2, 1, 3))
             for r in range(1, max_r + 1) for lam in partitions(r)]
    assert [json.dumps(r.to_dict(), sort_keys=True) for r in reports] == \
        [json.dumps(r.to_dict(), sort_keys=True) for r in alone]


# n_units -> digest of every assignment over 40 seeds at each block size, as
# the seeded points were first drawn; a cheaper build must draw the same points
PINNED_POINT_DIGESTS = {2: "adb54f9d937ceb99", 3: "c8242b433b962766", 4: "a8b9f2c94d8f5abf"}


@pytest.mark.parametrize("n_units", sorted(PINNED_POINT_DIGESTS))
def test_random_grassmann_points_are_pinned(n_units):
    import hashlib

    from superimm.superring import poly_to_terms

    text = json.dumps([[name, poly_to_terms(value)]
                       for m, n in ((1, 1), (2, 1), (2, 2), (3, 1), (1, 2)) for seed in range(40)
                       for name, value in random_grassmann_point(m, n, seed, n_units).assignment.items()])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_POINT_DIGESTS[n_units]


@pytest.mark.parametrize("n_units", [-1, 1.5, True], ids=["negative", "float", "bool"])
def test_random_grassmann_point_rejects_a_bad_unit_count(n_units):
    from superimm.superring import SuperRingError

    with pytest.raises(SuperRingError, match="^the unit count must be an integer >= 0, got "):
        random_grassmann_point(2, 1, 5, n_units=n_units)


@pytest.mark.parametrize("m, n", [(31, 1), (0, 32), (30, 30)])
def test_random_grassmann_point_needs_distinct_bodies(m, n):
    """The diagonal bodies are drawn without repeats from 31 values: the
    integers in [-10, 10] and the halves in [-5, 5]."""
    with pytest.raises(VerifyError, match=f"^a Grassmann point needs m \\+ n <= 31, the number "
                                          f"of distinct bodies available, got {m + n}$"):
        random_grassmann_point(m, n, 5)
    assert len(random_grassmann_point(30, 1, 5).assignment) == 31 * 31


def test_wrong_normalized_immanant_table_is_caught(monkeypatch):
    """Adding one to the entries of one shape's table turns every family that
    reads the table red: (1, 1) is a Kostant shape at r = 2, an LR term of
    (1) x (1) and the column factor of lmw at (2)."""
    import superimm.immanants as immanants
    import superimm.verify as verify

    original = immanants.normalized_immanant_table

    def off_by_one(shape, x):
        table = original(shape, x)
        if tuple(shape) != (1, 1):
            return table
        return {indices: value + x.algebra.one() for indices, value in table.items()}

    for module in (immanants, verify):
        monkeypatch.setattr(module, "normalized_immanant_table", off_by_one)
    for family in ("kostant", "littlewood2", "lmw"):
        assert not all(r.passed for r in sweep(family, 2, 1, 3)), family


def test_littlewood_3_failure_at_one_point_stays_with_its_reports(monkeypatch):
    import superimm.verify as verify
    from superimm.immanants import DegenerateSpectrumError

    bad = generator_matrix(2, 1).evaluate(random_grassmann_point(2, 1, 20240613 + 1)).transpose()
    original = verify.diagonalize

    def diagonalize(x):
        if x == bad:
            raise DegenerateSpectrumError("eigenvalue bodies collide across the blocks")
        return original(x)

    monkeypatch.setattr(verify, "diagonalize", diagonalize)
    reports = sweep("littlewood3", 2, 1, 2, trials=3)
    at_bad = reports[3:6]
    assert all(r.passed for r in reports[:3] + reports[6:])
    witness = at_bad[0].witness
    assert witness["case"] == "exception"
    assert witness["error"] == "DegenerateSpectrumError: eigenvalue bodies collide across the blocks"
    assert re.fullmatch(r"test_verify:\d+ in diagonalize", witness["where"])
    assert all(not r.passed and r.cases == 0 and r.witness == witness for r in at_bad)


def test_littlewood_3_wrong_immanant_sum_fails_only_its_shape(monkeypatch):
    import superimm.verify as verify

    original = verify.normalized_immanant_sum

    def off_by_one(lam, x):
        value = original(lam, x)
        return value + x.algebra.one() if tuple(lam) == (2, 1) else value

    monkeypatch.setattr(verify, "normalized_immanant_sum", off_by_one)
    reports = sweep("littlewood3", 2, 1, 3, trials=2)
    for report in reports:
        if report.params["lambda"] == [2, 1]:
            assert not report.passed and report.witness["case"] == "lambda=[2, 1]"
        else:
            assert report.passed, report.witness
    assert sum(not r.passed for r in reports) == 2


def test_vacuous_reports_keep_their_json():
    vacuous = check_vanishing(1, 1, 2)
    assert vacuous.passed and vacuous.cases == 0 and vacuous.vacuous
    assert "vacuous" not in vacuous.to_dict()
    assert not check_vanishing(1, 1, 4).vacuous


def test_littlewood_2_sweep_computes_each_immanant_once_per_side(monkeypatch):
    """Both sides of every report read one table per shape, so across a sweep
    each (lambda, I) is computed once, whichever module calls it."""
    import superimm.immanants as immanants
    import superimm.verify as verify

    calls = Counter()
    immanant = immanants.super_immanant

    def spy(lam, x, indices):
        calls[tuple(lam), tuple(indices)] += 1
        return immanant(lam, x, indices)

    for module in (immanants, verify):
        monkeypatch.setattr(module, "super_immanant", spy)
    reports = sweep("littlewood2", 2, 1, 4)
    assert reports and all(r.passed for r in reports)
    assert calls and set(calls.values()) == {1}


def test_littlewood_2_wrong_immanant_fails_only_its_reports(monkeypatch):
    import superimm.immanants as immanants
    import superimm.verify as verify

    original = immanants.super_immanant
    bad = (2, 1)

    def off_by_one(lam, x, indices):
        value = original(lam, x, indices)
        return value + x.algebra.one() if tuple(lam) == bad else value

    monkeypatch.setattr(immanants, "super_immanant", off_by_one)
    reports = sweep("littlewood2", 2, 1, 4)
    failed, touched = set(), set()
    for report in reports:
        pair = tuple(report.params["mu"]), tuple(report.params["nu"])
        if not report.passed:
            assert report.witness["case"].startswith("I=")
            failed.add(pair)
        if bad in pair or bad in verify._lr_table(*pair):
            touched.add(pair)
    # with an empty factor both sides carry the same shift, so they agree
    assert failed == {pair for pair in touched if () not in pair}
    assert len(failed) == 6


def test_grouping_by_rearrangement_is_watched(monkeypatch):
    """Keeping one permutation per rearrangement in the signed class table,
    rather than the signed counts of all of them, breaks Kostant's identity:
    its other side, the weight-space supertrace, does not read the table."""
    import superimm.immanants as immanants
    from oracles import composed_tuple

    _assert_pass(check_kostant(1, 1, 3))

    def first_of_each(row_indices, m, sign):
        kept = {}
        for perm, ct in immanants._typed_permutations(len(row_indices)):
            k = composed_tuple(row_indices, perm)
            kept.setdefault(k, ((ct, sign(k, m, perm)),))
        return tuple(kept.items())

    monkeypatch.setattr(immanants, "_signed_class_table", first_of_each)
    assert not check_kostant(1, 1, 3).passed
