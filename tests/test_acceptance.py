"""Acceptance suite: every criterion is exact (zero tolerance) at desk scale.

Each test prints one `ACCEPTANCE <k> ... PASS` line on success.  Criterion 12
documents five sign-convention mutations; each must flip at least one check
in a small battery to fail:

  M1  odd-monomial reordering sign in polynomial multiplication
  M2  Koszul sign of the permutation action on basis tensors
  M3  closed-form chain-coefficient (comodule) sign
  M4  immanant row/column parity prefactor
  M5  parity weight of the supertrace
"""

import random
from fractions import Fraction
from math import factorial

import pytest

import superimm.immanants as immanants
import superimm.superring as superring
import superimm.tensorspace as tensorspace
from superimm.superring import Algebra
from superimm.symgroup import GroupAlgebraElement, primitive_idempotent
from superimm.tableaux import (
    character,
    class_size,
    partitions,
    standard_tableaux,
)
from superimm.verify import (
    check_berezinian_series,
    check_chain_oracle,
    check_classical_degeneration,
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
)

SEED = 20240613


def _all_pass(reports):
    failed = [r for r in reports if not r.passed]
    assert not failed, [(r.name, r.params, r.witness) for r in failed]
    return sum(r.cases for r in reports)


def test_criterion_01_vanishing():
    reports = []
    for m, n in [(1, 1), (1, 2), (2, 1)]:
        for r in range(1, 5):
            reports.append(check_vanishing(m, n, r))
    cases = _all_pass(reports)
    assert cases >= 5  # the on-grid non-vacuous family
    print(f"ACCEPTANCE 1: vanishing off the hook, {cases} cases ... PASS")


def test_criterion_02_kostant():
    reports = [check_kostant(1, 1, 2), check_kostant(1, 1, 3), check_kostant(2, 1, 3)]
    cases = _all_pass(reports)
    print(f"ACCEPTANCE 2: weight-space supertrace formula, {cases} cases ... PASS")


def test_criterion_03_schur_weyl_norms():
    reports = []
    for m, n in [(1, 1), (2, 1)]:
        for r in range(1, 4):
            reports.append(check_schur_weyl(m, n, r))
    cases = _all_pass(reports)
    print(f"ACCEPTANCE 3: idempotent image norms, {cases} cases ... PASS")


def test_criterion_04_macmahon_newton():
    reports = [check_macmahon(1, 1, 4), check_newton(1, 1, 4)]
    for m, n in [(2, 1), (2, 2)]:
        reports.append(check_macmahon(m, n, 3))
        reports.append(check_newton(m, n, 3))
    cases = _all_pass(reports)
    print(f"ACCEPTANCE 4: MacMahon and Newton series identities, {cases} cases ... PASS")


def test_criterion_05_goulden_jackson():
    reports = []
    for r in range(1, 5):
        for lam in partitions(r):
            reports.append(check_goulden_jackson(lam, 1, 1))
    for r in range(1, 4):
        for lam in partitions(r):
            reports.append(check_goulden_jackson(lam, 2, 1))
    cases = _all_pass(reports)
    print(f"ACCEPTANCE 5: Goulden-Jackson determinant identities, {cases} cases ... PASS")


def test_criterion_06_littlewood_1_2_lmw():
    # LR gate first: the two oracles must agree wherever the checks need them
    for total in range(1, 5):
        for k in range(total + 1):
            for mu in partitions(k):
                for nu in partitions(total - k):
                    for lam in partitions(total):
                        lr_coefficient(mu, nu, lam)
    reports = []
    for m, n in [(1, 1), (2, 1)]:
        for total in range(1, 5):
            for k in range(total + 1):
                for mu in partitions(k):
                    for nu in partitions(total - k):
                        if total == m + n:
                            reports.append(check_littlewood_1(mu, nu, m, n))
                        reports.append(check_littlewood_2(mu, nu, m, n))
        for r in range(1, 5):
            for lam in partitions(r):
                reports.append(check_lmw(lam, m, n))
    cases = _all_pass(reports)
    print(f"ACCEPTANCE 6: Littlewood I/II and LMW expansions, {cases} cases ... PASS")


def test_criterion_07_littlewood_3():
    reports = []
    for m, n in [(1, 1), (2, 1)]:
        for trial in range(10):
            point = random_grassmann_point(m, n, SEED + trial)
            for r in range(1, 4):
                for lam in partitions(r):
                    reports.append(check_littlewood_3(lam, m, n, point))
        reports.append(check_berezinian_series(m, n, 3))
    cases = _all_pass(reports)
    print(f"ACCEPTANCE 7: eigenvalue correspondence at Grassmann points, {cases} cases ... PASS")


def test_criterion_08_hessenberg():
    reports = []
    for m, n in [(1, 1), (2, 1)]:
        for r in range(1, 4):
            for lam in partitions(r):
                reports.append(check_hessenberg(lam, m, n))
    cases = _all_pass(reports)
    print(f"ACCEPTANCE 8: Hessenberg immanant identities, {cases} cases ... PASS")


def test_criterion_09_phi_isomorphism():
    reports = [check_phi_isomorphism(1, 1, 4), check_phi_isomorphism(2, 1, 4)]
    cases = _all_pass(reports)
    print(f"ACCEPTANCE 9: diagonal specialization isomorphism, {cases} cases ... PASS")


def test_criterion_10_kernel_properties():
    # -- 1000 seeded supercommutativity/associativity cases
    rng = random.Random(SEED)
    alg = Algebra("fuzz")
    alg.even("x", "y")
    alg.odd("t1", "t2", "t3")
    names = [g.name for g in alg.generators()]

    def random_poly():
        p = alg.zero()
        for _ in range(rng.randrange(4)):
            term = alg.scalar(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
            for _ in range(rng.randrange(3)):
                term = term * alg.gen(rng.choice(names))
            p = p + term
        return p

    for _ in range(1000):
        a, b, c = random_poly(), random_poly(), random_poly()
        a0, a1 = a.homogeneous_parts()
        b0, b1 = b.homogeneous_parts()
        assert a0 * b0 == b0 * a0 and a0 * b1 == b1 * a0 and a1 * b1 == -(b1 * a1)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    # -- idempotent completeness (r <= 5) and orthogonality (exhaustive r <= 4,
    #    sampled at r = 5 per the module contract)
    for r in range(1, 6):
        tabs = [t for lam in partitions(r) for t in standard_tableaux(lam)]
        total = GroupAlgebraElement(r)
        for tab in tabs:
            total = total + primitive_idempotent(tab)
        assert total == GroupAlgebraElement.one(r)
        if r <= 4:
            for t1 in tabs:
                for t2 in tabs:
                    prod = primitive_idempotent(t1) * primitive_idempotent(t2)
                    assert prod == (primitive_idempotent(t1) if t1 == t2 else GroupAlgebraElement(r))
        else:
            for _ in range(60):
                t1, t2 = rng.choice(tabs), rng.choice(tabs)
                prod = primitive_idempotent(t1) * primitive_idempotent(t2)
                assert prod == (primitive_idempotent(t1) if t1 == t2 else GroupAlgebraElement(r))

    # -- character orthogonality, rows and columns, r <= 6
    for r in range(1, 7):
        classes = partitions(r)
        for lam in partitions(r):
            for mu in partitions(r):
                total = sum(class_size(c) * character(lam, c) * character(mu, c) for c in classes)
                assert total == (factorial(r) if lam == mu else 0)
        for c1 in classes:
            for c2 in classes:
                total = sum(character(lam, c1) * character(lam, c2) for lam in partitions(r))
                assert total == (factorial(r) // class_size(c1) if c1 == c2 else 0)

    # -- chain-coefficient oracle equivalence, r <= 3
    reports = [check_chain_oracle(1, 1, 3), check_chain_oracle(2, 1, 3)]
    cases = _all_pass(reports)
    print(f"ACCEPTANCE 10: kernel properties (1000 fuzz + {cases} oracle cases) ... PASS")


def test_criterion_11_classical_degeneration():
    reports = [check_classical_degeneration(m, 4) for m in range(1, 5)]
    cases = _all_pass(reports)
    print(f"ACCEPTANCE 11: classical immanant degeneration, {cases} cases ... PASS")


# ---------------------------------------------------------------------------
# Criterion 12: mutation sensitivity
# ---------------------------------------------------------------------------

_SEAMS = {
    "merge_odd_parts": (superring,),
    "action_sign": (tensorspace, immanants),
    "comodule_sign": (tensorspace, immanants),
    "immanant_prefactor": (tensorspace, immanants),
    "parity_weight": (tensorspace, immanants),
}


def _battery():
    return [
        check_chain_oracle(1, 1, 2),
        check_kostant(1, 1, 2),
        check_macmahon(1, 1, 2),
        check_vanishing(1, 1, 4),
        check_schur_weyl(1, 1, 2),
    ]


def _flat_sign(*args):
    return 1


def _merge_without_sign(a, b):
    sign, merged = _ORIGINALS["merge_odd_parts"](a, b)
    return (0, ()) if sign == 0 else (1, merged)


_ORIGINALS = {name: getattr(mods[0], name) for name, mods in _SEAMS.items()}

_MUTANTS = {
    "merge_odd_parts": _merge_without_sign,
    "action_sign": _flat_sign,
    "comodule_sign": _flat_sign,
    "immanant_prefactor": _flat_sign,
    "parity_weight": _flat_sign,
}


@pytest.mark.parametrize("seam", sorted(_SEAMS))
def test_criterion_12_mutation_sensitivity(monkeypatch, seam):
    assert all(r.passed for r in _battery()), "battery must pass unmutated"
    for module in _SEAMS[seam]:
        monkeypatch.setattr(module, seam, _MUTANTS[seam])
    mutated = _battery()
    failed = [r.name for r in mutated if not r.passed]
    assert failed, f"mutating {seam} left the battery green"
    print(f"ACCEPTANCE 12 ({seam}): failing checks {failed} ... PASS")
