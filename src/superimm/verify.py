"""Theorem-level identity checks with exact pass/fail reports.

Every check compares two (or more) independently computed exact objects and
returns a CheckReport carrying the parameters, a case count, and, on failure,
the first differing pair as a serialized witness.  No tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from superimm import ratlinalg
from superimm.immanants import (
    SuperMatrix,
    classical_immanant,
    complete_invariant,
    characteristic_coefficients,
    characteristic_series,
    chain_coefficient,
    chain_coefficient_slotwise,
    diagonalize,
    elementary_invariant,
    generator_matrix,
    idempotent_chain_supertrace,
    normalized_immanant_sum,
    power_trace,
    schur_weyl_norm_report,
    super_immanant,
    weight_space_supertrace,
)
from superimm.superring import (
    GrassmannPoint,
    SuperPoly,
    TruncatedSeries,
    grassmann_algebra,
    poly_to_terms,
)
from superimm.symgroup import commuting_determinant, primitive_idempotent
from superimm.tableaux import (
    character,
    class_size,
    conjugate,
    hook_partitions,
    hook_product,
    in_hook,
    induced_sign_character,
    induced_trivial_character,
    inverse_kostka,
    kostka,
    normalize_partition,
    partitions,
    row_reading_tableau,
    semistandard_super_tableaux,
    standard_tableaux,
    tableau_weight,
)
from superimm.tensorspace import (
    composition_to_multiset,
    repetition_factor,
    sorted_multisets,
    weak_compositions,
)
from superimm.supersym import (
    evaluate_two_alphabets,
    jacobi_trudi_grid,
    power_sum,
    schur_super,
    sym_algebra,
)


class VerifyError(ValueError):
    pass


@dataclass
class CheckReport:
    name: str
    params: dict
    passed: bool
    cases: int
    witness: dict | None = None
    seconds: float = 0.0

    @property
    def vacuous(self) -> bool:
        """Passed without comparing anything."""
        return self.passed and self.cases == 0

    def to_dict(self) -> dict:
        """The report's content; its timing, which varies run to run, is left out."""
        return {
            "name": self.name,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "passed": self.passed,
            "cases": self.cases,
            "witness": self.witness,
        }


def _serialize(value) -> object:
    if isinstance(value, SuperPoly):
        return poly_to_terms(value)
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def _raised_at(exc: Exception) -> str:
    """The innermost frame of a traceback as `module:line in function`."""
    import traceback  # only failing checks pay for the import
    frame, line = list(traceback.walk_tb(exc.__traceback__))[-1]
    return f"{frame.f_globals['__name__']}:{line} in {frame.f_code.co_name}"


def _run(name: str, params: dict, comparisons) -> CheckReport:
    """Consume (label, lhs, rhs) triples; fail on the first inequality."""
    start = time.perf_counter()
    cases = 0
    witness = None
    passed = True
    try:
        for label, lhs, rhs in comparisons:
            cases += 1
            if lhs != rhs:
                passed = False
                witness = {
                    "case": label,
                    "lhs": _serialize(lhs),
                    "rhs": _serialize(rhs),
                }
                break
    except Exception as exc:  # a broken convention may surface as an error
        passed = False
        witness = {
            "case": "exception",
            "error": f"{type(exc).__name__}: {exc}",
            "where": _raised_at(exc),
        }
    return CheckReport(
        name=name,
        params=params,
        passed=passed,
        cases=cases,
        witness=witness,
        seconds=round(time.perf_counter() - start, 6),
    )


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients, twice over
# ---------------------------------------------------------------------------


def _lr_by_characters(mu, nu, r: int) -> dict:
    """Frobenius reciprocity: c^lam_{mu nu} = sum over alpha |- |mu| and
    beta |- |nu| of chi^mu(alpha) chi^nu(beta) chi^lam(alpha u beta) / (z_alpha z_beta),
    with 1/z_alpha = class_size(alpha) / |mu|!."""
    a, b = sum(mu), sum(nu)
    classes = [
        (tuple(sorted(alpha + beta, reverse=True)),
         Fraction(character(mu, alpha) * character(nu, beta) * class_size(alpha) * class_size(beta),
                  factorial(a) * factorial(b)))
        for alpha in partitions(a) for beta in partitions(b)
    ]
    out = {}
    for lam in partitions(r):
        coeff = sum((w * character(lam, rho) for rho, w in classes), Fraction(0))
        if coeff:
            out[lam] = coeff
    return out


def _schur_polynomial(shape, nvars: int) -> SuperPoly:
    """Combinatorial Schur polynomial: sum over classical semistandard
    tableaux with entries bounded by the variable count."""
    shape = normalize_partition(shape)
    alg = sym_algebra(nvars, 0)
    acc = alg.zero()
    for tab in semistandard_super_tableaux(shape, nvars, 0):
        term = alg.one()
        for i, a in enumerate(tableau_weight(tab, nvars, 0), start=1):
            if a:
                term = term * alg.gen(f"u{i}") ** a
        acc = acc + term
    return acc


def _monomial_coefficient(p: SuperPoly, shape, nvars: int) -> Fraction:
    exps = {f"u{i}": shape[i - 1] if i <= len(shape) else 0 for i in range(1, nvars + 1)}
    key = (tuple(sorted((g, e) for g, e in exps.items() if e)), ())
    return p.coefficient(key)


def _lr_by_schur_multiplication(mu, nu, r: int) -> dict:
    """Expand s_mu * s_nu in r variables through the unitriangular
    monomial-to-Schur system."""
    product = _schur_polynomial(mu, r) * _schur_polynomial(nu, r)
    coeffs = {}
    for lam in partitions(r):  # reverse-lex refines dominance
        value = _monomial_coefficient(product, lam, r)
        for rho, c in coeffs.items():
            value -= c * kostka(rho, lam)
        if value:
            coeffs[lam] = value
    return coeffs


@lru_cache(maxsize=None)
def _lr_table(mu, nu) -> dict:
    mu, nu = normalize_partition(mu), normalize_partition(nu)
    r = sum(mu) + sum(nu)
    by_char = _lr_by_characters(mu, nu, r)
    by_schur = _lr_by_schur_multiplication(mu, nu, r)
    if by_char != by_schur:
        raise VerifyError(f"LR oracles disagree for {mu} x {nu}: {by_char} vs {by_schur}")
    return by_char


def lr_coefficient(mu, nu, lam) -> int:
    """Littlewood-Richardson coefficient, from two independent oracles that
    must agree (character inner product; Schur polynomial multiplication)."""
    lam = normalize_partition(lam)
    if sum(normalize_partition(mu)) + sum(normalize_partition(nu)) != sum(lam):
        raise VerifyError("sizes must satisfy |mu| + |nu| = |lam|")
    value = _lr_table(normalize_partition(mu), normalize_partition(nu)).get(lam, 0)
    return int(value)


# ---------------------------------------------------------------------------
# Tables of normalized immanants over multisets
# ---------------------------------------------------------------------------


def _immanant_table(shape, x: SuperMatrix) -> dict:
    """immanant(shape, I) / I! for each sorted multiset I of size |shape|;
    zero entries are left out."""
    table = {}
    for indices in sorted_multisets(x.m, x.n, sum(shape)):
        value = super_immanant(shape, x, indices)
        if not value.is_zero:
            table[indices] = value * Fraction(1, repetition_factor(indices))
    return table


def _table_product(tables, one) -> dict:
    """Product of tables by adding weights: entry I sums, over the ordered
    splittings of the multiset I into one part per table, the products of
    the tables' entries at the parts (in table order)."""
    out = {(): one}
    for table in tables:
        step: dict = {}
        for left, a in out.items():
            for right, b in table.items():
                key = tuple(sorted(left + right))
                value = a * b
                prev = step.get(key)
                step[key] = value if prev is None else prev + value
        out = step
    return out


def _once(memo: dict, key, compute):
    """memo[key], computed on first use.  Nothing is stored when compute
    raises, so every report that needs the value raises it again."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


# ---------------------------------------------------------------------------
# The identity catalog
# ---------------------------------------------------------------------------


def check_littlewood_1(mu, nu, m: int, n: int) -> CheckReport:
    """Product of two Schur-indexed immanants over complementary index subsets
    equals the LR-weighted immanant of the full principal minor."""
    mu, nu = normalize_partition(mu), normalize_partition(nu)
    params = {"identity": "littlewood1", "m": m, "n": n, "mu": list(mu), "nu": list(nu)}
    if sum(mu) + sum(nu) != m + n:
        raise VerifyError("littlewood1 needs |mu| + |nu| = m + n")
    x = generator_matrix(m, n)
    full = tuple(range(1, m + n + 1))
    table = _lr_table(mu, nu)

    def comparisons():
        lhs = x.algebra.zero()
        for subset in combinations(full, sum(mu)):
            complement = tuple(sorted(set(full) - set(subset)))
            lhs = lhs + super_immanant(mu, x, subset) * super_immanant(nu, x, complement)
        rhs = x.algebra.zero()
        for lam, c in table.items():
            rhs = rhs + super_immanant(lam, x, full) * c
        yield ("subset sum vs LR expansion", lhs, rhs)

    return _run("littlewood1", params, comparisons())


def check_littlewood_2(mu, nu, m: int, n: int, factors: dict | None = None,
                       weighted: dict | None = None) -> CheckReport:
    """Normalized immanant products over multiset splittings equal the
    LR-weighted normalized immanant, multiset by multiset.  A sweep shares two
    dicts that fill on first use: the product side's factor tables by shape
    (`factors`), the LR-weighted side's immanants by (lambda, I) (`weighted`)."""
    mu, nu = normalize_partition(mu), normalize_partition(nu)
    params = {"identity": "littlewood2", "m": m, "n": n, "mu": list(mu), "nu": list(nu)}
    r = sum(mu) + sum(nu)
    x = generator_matrix(m, n)
    table = _lr_table(mu, nu)
    factors, weighted = ({} if memo is None else memo for memo in (factors, weighted))

    def comparisons():
        zero = x.algebra.zero()
        tables = [_once(factors, shape, lambda: _immanant_table(shape, x)) for shape in (mu, nu)]
        product = _table_product(tables, x.algebra.one())
        for indices in sorted_multisets(m, n, r):
            rhs = zero
            for lam, c in table.items():
                value = _once(weighted, (lam, indices), lambda: super_immanant(lam, x, indices))
                if not value.is_zero:
                    rhs = rhs + value * Fraction(c, repetition_factor(indices))
            yield (f"I={list(indices)}", product.get(indices, zero), rhs)

    return _run("littlewood2", params, comparisons())


def check_lmw(lam, m: int, n: int) -> CheckReport:
    """Both induced-character immanant expansions: the sign-induced character
    against column shapes and the trivial-induced character against rows."""
    lam = normalize_partition(lam)
    params = {"identity": "lmw", "m": m, "n": n, "lambda": list(lam)}
    r = sum(lam)
    x = generator_matrix(m, n)
    psi = induced_sign_character(lam)
    phi = induced_trivial_character(lam)

    def comparisons():
        zero = x.algebra.zero()
        columns = [(1,) * part for part in lam]
        rows = [(part,) for part in lam]
        tables = {shape: _immanant_table(shape, x) for shape in dict.fromkeys(columns + rows)}
        column_product, row_product = (
            _table_product([tables[shape] for shape in shapes], x.algebra.one())
            for shapes in (columns, rows)
        )
        for indices in sorted_multisets(m, n, r):
            alpha = repetition_factor(indices)
            yield (
                f"sign-induced, I={list(indices)}",
                super_immanant(psi, x, indices),
                column_product.get(indices, zero) * alpha,
            )
            yield (
                f"trivial-induced, I={list(indices)}",
                super_immanant(phi, x, indices),
                row_product.get(indices, zero) * alpha,
            )

    return _run("lmw", params, comparisons())


def _invariant_series(x: SuperMatrix, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """lambda(-t) and sigma(t) by the immanant route (one-column and one-row
    normalized immanant sums), never by the library's characteristic series."""
    one = [x.algebra.one()]
    lam_neg = one + [normalized_immanant_sum((1,) * k, x) * ((-1) ** k) for k in range(1, order + 1)]
    sig = one + [normalized_immanant_sum((k,), x) for k in range(1, order + 1)]
    return TruncatedSeries(x.algebra, lam_neg, order), TruncatedSeries(x.algebra, sig, order)


def check_macmahon(m: int, n: int, order: int) -> CheckReport:
    """The elementary series at -t times the complete series is one."""
    if order < 0:
        raise VerifyError(f"macmahon needs order >= 0, got {order}")
    params = {"identity": "macmahon", "m": m, "n": n, "order": order}
    x = generator_matrix(m, n)

    def comparisons():
        lam_neg, sig = _invariant_series(x, order)
        yield ("lambda(-t) sigma(t) = 1", lam_neg * sig, TruncatedSeries.one(x.algebra, order))

    return _run("macmahon", params, comparisons())


def check_newton(m: int, n: int, order: int) -> CheckReport:
    """Logarithmic-derivative identities tying both invariant series to the
    power-sum traces of star powers."""
    if order < 1:
        raise VerifyError(f"newton needs order >= 1, got {order}")
    params = {"identity": "newton", "m": m, "n": n, "order": order}
    x = generator_matrix(m, n)

    def comparisons():
        lam_neg, sig = _invariant_series(x, order)
        psi = TruncatedSeries(x.algebra, [power_trace(x, k + 1) for k in range(order)], order - 1)
        yield ("d/dt lambda(-t) = -lambda(-t) psi(t)", lam_neg.derivative(), (lam_neg * psi) * (-1))
        yield ("d/dt sigma(t) = psi(t) sigma(t)", sig.derivative(), psi * sig)

    return _run("newton", params, comparisons())


def check_goulden_jackson(lam, m: int, n: int) -> CheckReport:
    """Four-way equality: both Jacobi-Trudi determinants in the invariants,
    the idempotent supertrace, and the normalized immanant sum; plus the
    inverse-Kostka expansions of both determinants."""
    lam = normalize_partition(lam)
    params = {"identity": "goulden-jackson", "m": m, "n": n, "lambda": list(lam)}
    r = sum(lam)
    x = generator_matrix(m, n)

    def comparisons():
        zero, one = x.algebra.zero(), x.algebra.one()
        # alpha_k is (-1)^k times the u^k coefficient of the characteristic
        # series, beta_k the u^k coefficient of its inverse (MacMahon); the
        # largest Jacobi-Trudi index, lambda_1 + len(lambda) - 1, is at most r
        series = characteristic_series(x, r)
        alphas = {k: -c if k % 2 else c for k, c in enumerate(series.coeffs)}
        betas = dict(enumerate(series.invert().coeffs))
        sides = [("alpha", conjugate(lam), alphas), ("beta", lam, betas)]
        dets = [
            commuting_determinant(jacobi_trudi_grid(shape, lambda k: table.get(k, zero)), one)
            for _, shape, table in sides
        ]
        imm_sum = normalized_immanant_sum(lam, x)
        trace_form = idempotent_chain_supertrace(
            primitive_idempotent(row_reading_tableau(lam)), x, r
        )
        for (label, _, _), det in zip(sides, dets):
            yield (f"det({label}-JT) = normalized immanant sum", det, imm_sum)
        yield ("idempotent supertrace = normalized immanant sum", trace_form, imm_sum)

        for (label, shape, table), det in zip(sides, dets):
            expansion = zero
            for mu in partitions(r):
                coeff = inverse_kostka(mu, shape)
                if coeff:
                    term = one
                    for part in mu:
                        term = term * table[part]
                    expansion = expansion + term * coeff
            yield (f"inverse-Kostka {label} expansion", expansion, det)

    return _run("goulden-jackson", params, comparisons())


def check_hessenberg(lam, m: int, n: int) -> CheckReport:
    """Classical immanant of the power-trace Hessenberg matrix over r! equals
    the normalized immanant sum; the traces must commute first."""
    lam = normalize_partition(lam)
    if not lam:
        raise VerifyError("hessenberg needs a nonempty shape")
    params = {"identity": "hessenberg", "m": m, "n": n, "lambda": list(lam)}
    r = sum(lam)
    x = generator_matrix(m, n)

    def comparisons():
        gammas = {k: power_trace(x, k) for k in range(1, r + 1)}
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                yield (
                    f"power traces commute ({i},{j})",
                    gammas[i] * gammas[j],
                    gammas[j] * gammas[i],
                )
        grid = []
        for i in range(1, r + 1):
            row = []
            for j in range(1, r + 1):
                if j == i + 1:
                    row.append(x.algebra.scalar(i))
                elif j <= i:
                    row.append(gammas[i - j + 1])
                else:
                    row.append(x.algebra.zero())
            grid.append(row)
        lhs = classical_immanant(grid, lam) * Fraction(1, factorial(r))
        yield ("Hessenberg immanant / r!", lhs, normalized_immanant_sum(lam, x))

    return _run("hessenberg", params, comparisons())


def check_kostant(m: int, n: int, r: int) -> CheckReport:
    """Weight-space supertraces against normalized immanants, all shapes and
    weights of one degree (shapes off the hook must give zero on both sides)."""
    params = {"identity": "kostant", "m": m, "n": n, "r": r}
    x = generator_matrix(m, n)

    def comparisons():
        for lam in partitions(r):
            for weight in weak_compositions(r, m + n):
                indices = composition_to_multiset(weight)
                lhs = super_immanant(lam, x, indices) * Fraction(1, repetition_factor(indices))
                rhs = weight_space_supertrace(lam, weight, x)
                yield (f"lambda={list(lam)}, weight={list(weight)}", lhs, rhs)

    return _run("kostant", params, comparisons())


def check_vanishing(m: int, n: int, r: int) -> CheckReport:
    """Immanants indexed by shapes outside the hook vanish identically."""
    params = {"identity": "vanishing", "m": m, "n": n, "r": r}
    x = generator_matrix(m, n)

    def comparisons():
        zero = x.algebra.zero()
        for lam in partitions(r):
            if in_hook(lam, m, n):
                continue
            for indices in sorted_multisets(m, n, r):
                yield (
                    f"lambda={list(lam)}, I={list(indices)}",
                    super_immanant(lam, x, indices),
                    zero,
                )

    return _run("vanishing", params, comparisons())


def check_schur_weyl(m: int, n: int, r: int) -> CheckReport:
    """Idempotent image vectors of multiset tensors: vanishing exactly off the
    semistandard relabellings, the norm value for unique preimages, the
    aggregated norm across shared relabellings, and pairwise orthogonality."""
    params = {"identity": "schur-weyl", "m": m, "n": n, "r": r}

    def comparisons():
        from superimm.tensorspace import bilinear_form

        for lam in partitions(r):
            h = hook_product(lam)
            tabs = standard_tableaux(lam)
            for weight in weak_compositions(r, m + n):
                indices = composition_to_multiset(weight)
                alpha = repetition_factor(indices)
                reports = {tab: schur_weyl_norm_report(tab, weight, m, n) for tab in tabs}
                groups: dict = {}
                for tab, rep in reports.items():
                    yield (
                        f"vanishing iff not semistandard: lambda={list(lam)}, "
                        f"weight={list(weight)}, T={tab!r}",
                        rep["vector_zero"],
                        not rep["semistandard"],
                    )
                    if rep["semistandard"]:
                        groups.setdefault(rep["filling"], []).append(rep)
                for filling, reps in groups.items():
                    if len(reps) == 1:
                        yield (
                            f"unique preimage norm: lambda={list(lam)}, filling={filling}",
                            reps[0]["norm"],
                            Fraction(alpha, h),
                        )
                    else:
                        yield (
                            f"aggregated norm: lambda={list(lam)}, filling={filling}",
                            sum((Fraction(h, alpha) * rep["norm"] for rep in reps), Fraction(0)),
                            Fraction(1),
                        )
                vectors = [rep["vector"] for rep in reports.values() if not rep["vector_zero"]]
                for i in range(len(vectors)):
                    for j in range(i + 1, len(vectors)):
                        yield (
                            f"orthogonality: lambda={list(lam)}, weight={list(weight)}",
                            Fraction(bilinear_form(vectors[i], vectors[j])),
                            Fraction(0),
                        )

    return _run("schur-weyl", params, comparisons())


# ---------------------------------------------------------------------------
# Grassmann-point identities
# ---------------------------------------------------------------------------


def random_grassmann_point(m: int, n: int, seed: int, n_units: int = 4) -> GrassmannPoint:
    """Seeded evaluation point for the generator matrix: distinct rational
    bodies on the diagonal, small soul coefficients, odd blocks pure soul.
    Even off-diagonal entries get souls only, so the block bodies are
    diagonal, with distinct eigenvalues.
    """
    rng = random.Random(seed)
    d = m + n
    lam = grassmann_algebra(n_units)
    thetas = [lam.gen(f"th{i}") for i in range(1, n_units + 1)]
    even_monomials = [thetas[a] * thetas[b] for a in range(n_units) for b in range(a + 1, n_units)]

    candidates = [Fraction(p, q) for q in (1, 2) for p in range(-10, 11) if p % q or q == 1]
    bodies = rng.sample(sorted(set(candidates)), d)

    def even_soul():
        acc = lam.zero()
        for mono in even_monomials:
            c = rng.choice((-1, 0, 0, 1))
            if c:
                acc = acc + mono * c
        return acc

    def odd_soul():
        acc = lam.zero()
        for th in thetas:
            c = rng.choice((-1, 0, 1))
            if c:
                acc = acc + th * c
        if n_units >= 3 and rng.random() < 0.3:
            acc = acc + thetas[0] * thetas[1] * thetas[2]
        return acc

    x = generator_matrix(m, n)
    assignment = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            name = f"x{i}_{j}"
            if (i <= m) == (j <= m):
                value = even_soul()
                if i == j:
                    value = value + bodies[i - 1]
            else:
                value = odd_soul()
            assignment[name] = value
    return GrassmannPoint(x.algebra, assignment, n_units=n_units)


def check_berezinian_series(m: int, n: int, order: int, seed: int, trials: int) -> CheckReport:
    """The characteristic series coefficients equal the one-column normalized
    immanant sums, symbolically and at seeded Grassmann points."""
    if order < 0:
        raise VerifyError(f"berezinian-series needs order >= 0, got {order}")
    params = {
        "identity": "berezinian-series",
        "m": m,
        "n": n,
        "order": order,
        "seed": seed,
        "trials": trials,
    }
    x = generator_matrix(m, n)

    def comparisons():
        coeffs = characteristic_coefficients(x, order)
        alphas = [x.algebra.one()]
        alphas += [normalized_immanant_sum((1,) * k, x) for k in range(1, order + 1)]
        for k in range(order + 1):
            yield (f"symbolic coefficient k={k}", coeffs[k], alphas[k])
        for t in range(trials):
            point = random_grassmann_point(m, n, seed + t)
            for k in range(order + 1):
                yield (
                    f"trial {t}, coefficient k={k}",
                    point.evaluate(coeffs[k]),
                    point.evaluate(alphas[k]),
                )

    return _run("berezinian-series", params, comparisons())


def check_littlewood_3(lam, m: int, n: int, point: GrassmannPoint,
                       symbolic: dict | None = None, at_point: dict | None = None) -> CheckReport:
    """Evaluate the normalized immanant sum at a Grassmann point and compare
    with the Schur supersymmetric polynomial at the eigenvalues of the
    transposed point matrix; the diagonalization must be exact.  A sweep
    shares work between its reports through two dicts that fill on first use:
    `symbolic` across the points of one (m, n), `at_point` across the shapes
    at one point."""
    lam = normalize_partition(lam)
    if not lam:
        raise VerifyError("littlewood3 needs a nonempty shape")
    params = {"identity": "littlewood3", "m": m, "n": n, "lambda": list(lam)}
    r = sum(lam)
    x = generator_matrix(m, n)
    symbolic = {} if symbolic is None else symbolic
    at_point = {} if at_point is None else at_point
    # case label -> (key, left side in x), (key, right side in the two alphabets)
    sides = {
        f"lambda={list(lam)}": ((("immanant sum", lam), lambda: normalized_immanant_sum(lam, x)),
                                (("schur", lam), lambda: schur_super(lam, m, n))),
        "power-sum specialization": ((("power trace", r), lambda: power_trace(x, r)),
                                     (("power sum", r), lambda: power_sum(r, m, n))),
        "elementary specialization": ((("elementary", r), lambda: elementary_invariant(x, r)),
                                      (("schur", (1,) * r), lambda: schur_super((1,) * r, m, n))),
        "complete specialization": ((("complete", r), lambda: complete_invariant(x, r)),
                                    (("schur", (r,)), lambda: schur_super((r,), m, n))),
    }

    def comparisons():
        eigen = _once(at_point, "eigen", lambda: diagonalize(x.evaluate(point).transpose()))
        yield ("diagonalization residual", eigen["residual_zero"], True)
        alphabets = (eigen["even_eigenvalues"], [-w for w in eigen["odd_eigenvalues"]],
                     grassmann_algebra(point.n_units))
        for label, (left, right) in sides.items():
            def evaluate():
                return (point.evaluate(_once(symbolic, *left)),
                        evaluate_two_alphabets(_once(symbolic, *right), *alphabets))
            yield (label,) + _once(at_point, (label, r), evaluate)

    return _run("littlewood3", params, comparisons())


def check_phi_isomorphism(m: int, n: int, max_size: int) -> CheckReport:
    """The diagonal specialization carries each normalized immanant sum to the
    Schur supersymmetric polynomial, and the images stay linearly independent."""
    from superimm.supersym import diagonal_specialization

    params = {"identity": "phi-isomorphism", "m": m, "n": n, "max_size": max_size}
    x = generator_matrix(m, n)

    def comparisons():
        images = []
        for r in range(1, max_size + 1):
            for lam in hook_partitions(m, n, r):
                image = diagonal_specialization(normalized_immanant_sum(lam, x), m, n)
                yield (f"lambda={list(lam)}", image, schur_super(lam, m, n))
                images.append({(even, odd): c for even, odd, c in image.terms()})
        keys = sorted({key for img in images for key in img})
        rows = [[img.get(key, Fraction(0)) for key in keys] for img in images]
        yield ("linear independence of the images", ratlinalg.rank(rows), len(images))

    return _run("phi-isomorphism", params, comparisons())


def check_classical_degeneration(m: int, max_r: int) -> CheckReport:
    """At n = 0 the super-immanant is the classical immanant."""
    params = {"identity": "classical-degeneration", "m": m, "max_r": max_r}
    x = generator_matrix(m, 0)

    def comparisons():
        for r in range(1, max_r + 1):
            for lam in partitions(r):
                for indices in sorted_multisets(m, 0, r):
                    yield (
                        f"lambda={list(lam)}, I={list(indices)}",
                        super_immanant(lam, x, indices),
                        classical_immanant(x.entries, lam, indices),
                    )

    return _run("classical-degeneration", params, comparisons())


def check_chain_oracle(m: int, n: int, max_r: int) -> CheckReport:
    """Closed-form chain coefficients against the slot-by-slot oracle."""
    from itertools import product as iproduct

    params = {"identity": "chain-oracle", "m": m, "n": n, "max_r": max_r}
    x = generator_matrix(m, n)

    def comparisons():
        for r in range(1, max_r + 1):
            for out_indices in iproduct(range(1, m + n + 1), repeat=r):
                for in_indices in iproduct(range(1, m + n + 1), repeat=r):
                    yield (
                        f"I={list(out_indices)}, J={list(in_indices)}",
                        chain_coefficient(x, out_indices, in_indices),
                        chain_coefficient_slotwise(x, out_indices, in_indices),
                    )

    return _run("chain-oracle", params, comparisons())


# ---------------------------------------------------------------------------
# Sweeps (CLI entry points)
# ---------------------------------------------------------------------------


def _partition_pairs(total_min, total_max):
    for total in range(total_min, total_max + 1):
        for k in range(total + 1):
            for mu in partitions(k):
                for nu in partitions(total - k):
                    yield mu, nu


CHECK_FAMILIES = (
    "vanishing",
    "kostant",
    "schur-weyl",
    "littlewood1",
    "littlewood2",
    "lmw",
    "macmahon",
    "newton",
    "goulden-jackson",
    "littlewood3",
    "berezinian",
    "hessenberg",
    "phi-isomorphism",
    "chain-oracle",
)


def sweep(name: str, m: int, n: int, max_r: int, order: int = 3, seed: int = 20240613,
          trials: int = 10) -> list[CheckReport]:
    """Run one named check family at desk scale; `all` runs every family of
    CHECK_FAMILIES, the whole catalog."""
    if trials < 1:
        raise VerifyError(f"sweep needs trials >= 1, got {trials}")
    degrees = range(1, max_r + 1)
    shapes = [lam for r in degrees for lam in partitions(r)]
    per_degree = {"vanishing": check_vanishing, "kostant": check_kostant,
                  "schur-weyl": check_schur_weyl}
    per_shape = {"lmw": check_lmw, "goulden-jackson": check_goulden_jackson,
                 "hessenberg": check_hessenberg}
    single = {
        "macmahon": lambda: check_macmahon(m, n, order),
        "newton": lambda: check_newton(m, n, order),
        "berezinian": lambda: check_berezinian_series(m, n, order, seed, trials),
        "phi-isomorphism": lambda: check_phi_isomorphism(m, n, max_r),
        "chain-oracle": lambda: check_chain_oracle(m, n, max_r),
    }
    if name in per_degree:
        return [per_degree[name](m, n, r) for r in degrees]
    if name in per_shape:
        return [per_shape[name](lam, m, n) for lam in shapes]
    if name in single:
        return [single[name]()]
    if name == "littlewood1":
        return [check_littlewood_1(mu, nu, m, n) for mu, nu in _partition_pairs(m + n, m + n)]
    if name == "littlewood2":
        shared: tuple = ({}, {})  # factor tables, LR-weighted immanants
        return [check_littlewood_2(mu, nu, m, n, *shared) for mu, nu in _partition_pairs(1, max_r)]
    if name == "littlewood3":
        symbolic: dict = {}
        reports = []
        for t in range(trials):
            point = random_grassmann_point(m, n, seed + t)
            at_point: dict = {}
            reports += [check_littlewood_3(lam, m, n, point, symbolic, at_point) for lam in shapes]
        return reports
    if name == "all":
        return [report for sub in CHECK_FAMILIES
                for report in sweep(sub, m, n, max_r, order=order, seed=seed, trials=trials)]
    raise VerifyError(f"unknown check name {name!r}")
