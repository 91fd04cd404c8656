import json
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from superimm.immanants import generator_matrix, super_immanant
from superimm.superring import TruncatedSeries
from superimm.tableaux import partitions
from superimm.verify import (
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


@pytest.mark.parametrize("route", ["_lr_by_characters", "_lr_by_schur_multiplication"])
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


def test_littlewood_2_builds_each_table_entry_once(monkeypatch):
    import superimm.verify as verify

    calls = []
    original = verify.super_immanant

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "super_immanant", spy)
    report = check_littlewood_2((1,), (1,), 2, 1)
    assert report.passed and report.cases == 6
    # 3 entries of the one (1,) factor table, then the LR-weighted side
    # (2 shapes x 6 multisets)
    assert len(calls) == 15


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
    _assert_pass(check_berezinian_series(1, 1, 3, 99, 2))


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
    import superimm.verify as verify

    broken = _double_linear_coefficient(immanants.characteristic_series)
    for module in (immanants, verify):  # goulden-jackson reads the series directly
        monkeypatch.setattr(module, "characteristic_series", broken)
    assert _failed_case(check_berezinian_series(1, 1, 2, 99, 1)) == "symbolic coefficient k=1"
    assert _failed_case(check_goulden_jackson((2, 1), 1, 1)).startswith("det(alpha-JT)")


def test_broken_column_immanant_sums_are_caught(monkeypatch):
    import superimm.verify as verify

    original = verify.normalized_immanant_sum

    def broken(shape, x):
        value = original(shape, x)
        return value * 2 if set(shape) == {1} else value

    monkeypatch.setattr(verify, "normalized_immanant_sum", broken)
    assert _failed_case(check_macmahon(1, 1, 2)) == "lambda(-t) sigma(t) = 1"
    assert _failed_case(check_berezinian_series(1, 1, 2, 99, 1)) == "symbolic coefficient k=1"


def test_broken_idempotent_supertrace_is_caught(monkeypatch):
    import superimm.verify as verify

    original = verify.idempotent_chain_supertrace
    monkeypatch.setattr(
        verify, "idempotent_chain_supertrace", lambda e, x, r: original(e, x, r) * 2
    )
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
    assert _failed_case(check_berezinian_series(1, 1, 3, 99, 1)) == "symbolic coefficient k=2"
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
    assert _failed_case(check_berezinian_series(1, 2, 3, 99, 1)) == "symbolic coefficient k=3"
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
        (lambda order: check_berezinian_series(1, 1, order, seed=7, trials=1), 0),
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


def _spy(monkeypatch, module, name, calls):
    """Count the calls of module.name in calls[name]."""
    original = getattr(module, name)

    def spy(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, spy)


def test_littlewood_3_sweep_shares_its_work(monkeypatch):
    import superimm.verify as verify

    calls = {}
    for name in ("diagonalize", "normalized_immanant_sum", "power_trace",
                 "elementary_invariant", "complete_invariant"):
        _spy(monkeypatch, verify, name, calls)
    reports = sweep("littlewood3", 2, 1, 3, trials=3)
    assert len(reports) == 3 * 6 and all(r.passed for r in reports)
    # one diagonalization per point, the symbolic sides once per shape or degree
    assert calls == {"diagonalize": 3, "normalized_immanant_sum": 6, "power_trace": 3,
                     "elementary_invariant": 3, "complete_invariant": 3}


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
    import superimm.verify as verify

    calls = Counter()
    side = ["weighted"]
    immanant, table = verify.super_immanant, verify._immanant_table

    def immanant_spy(lam, x, indices):
        calls[side[0], tuple(lam), tuple(indices)] += 1
        return immanant(lam, x, indices)

    def table_spy(shape, x):
        side[0] = "factors"
        try:
            return table(shape, x)
        finally:
            side[0] = "weighted"

    monkeypatch.setattr(verify, "super_immanant", immanant_spy)
    monkeypatch.setattr(verify, "_immanant_table", table_spy)
    reports = sweep("littlewood2", 2, 1, 4)
    assert reports and all(r.passed for r in reports)
    assert set(calls.values()) == {1}
    assert {key[0] for key in calls} == {"factors", "weighted"}


def test_littlewood_2_wrong_immanant_fails_only_its_reports(monkeypatch):
    import superimm.verify as verify

    original = verify.super_immanant
    bad = (2, 1)

    def off_by_one(lam, x, indices):
        value = original(lam, x, indices)
        return value + x.algebra.one() if tuple(lam) == bad else value

    monkeypatch.setattr(verify, "super_immanant", off_by_one)
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
    """Keeping one permutation per rearrangement, rather than the signed sum
    of all of them, breaks Kostant's identity: its other side, the
    weight-space supertrace, does not run through the Koszul sum."""
    import superimm.immanants as immanants
    from superimm.tensorspace import composed_tuple

    _assert_pass(check_kostant(1, 1, 3))
    original = immanants._koszul_sum

    def first_of_each(x, weighted, row_indices, col_indices):
        kept = {}
        for perm, c in weighted:
            kept.setdefault(composed_tuple(row_indices, perm), (perm, c))
        return original(x, kept.values(), row_indices, col_indices)

    monkeypatch.setattr(immanants, "_koszul_sum", first_of_each)
    assert not check_kostant(1, 1, 3).passed
