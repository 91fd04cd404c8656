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
from itertools import combinations, product
from math import factorial

from superimm import ratlinalg
from superimm.immanants import (
    SuperMatrix,
    classical_immanant,
    complete_invariant,
    characteristic_coefficients,
    chain_coefficient,
    chain_coefficient_slotwise,
    diagonalize,
    elementary_invariant,
    generator_matrix,
    idempotent_chain_supertrace,
    normalized_immanant_sum,
    normalized_immanant_table,
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
    linear_combination,
    poly_to_terms,
)
from superimm.symgroup import MAX_DEGREE, commuting_determinant
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
    standard_tableaux,
)
from superimm.tensorspace import (
    bilinear_form,
    composition_to_multiset,
    repetition_factor,
    sorted_multisets,
    weak_compositions,
)
from superimm.supersym import (
    diagonal_specialization,
    evaluate_two_alphabets,
    jacobi_trudi_grid,
    power_sum,
    schur_super,
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


def _lr_by_kostka(mu, nu, r: int) -> dict:
    """Expand s_mu * s_nu through the Kostka matrix: its x^rho coefficient is
    sum over beta <= rho of K[mu, beta] K[nu, rho - beta], and the inverse
    Kostka matrix turns those monomial coefficients into Schur coefficients."""
    a = sum(mu)
    monomial = {}
    for rho in partitions(r):
        value = sum(kostka(mu, beta) * kostka(nu, tuple(p - b for p, b in zip(rho, beta)))
                    for beta in product(*(range(p + 1) for p in rho)) if sum(beta) == a)
        if value:
            monomial[rho] = value
    coeffs = {}
    for lam in partitions(r):
        value = sum(c * inverse_kostka(rho, lam) for rho, c in monomial.items())
        if value:
            coeffs[lam] = value
    return coeffs


@lru_cache(maxsize=None)
def _lr_table(mu, nu) -> dict:
    mu, nu = normalize_partition(mu), normalize_partition(nu)
    r = sum(mu) + sum(nu)
    by_char = _lr_by_characters(mu, nu, r)
    by_kostka = _lr_by_kostka(mu, nu, r)
    if by_char != by_kostka:
        raise VerifyError(f"LR oracles disagree for {mu} x {nu}: {by_char} vs {by_kostka}")
    return by_char


def lr_coefficient(mu, nu, lam) -> int:
    """Littlewood-Richardson coefficient, from two independent oracles that
    must agree (character inner product; Kostka expansion of s_mu s_nu)."""
    lam = normalize_partition(lam)
    if sum(normalize_partition(mu)) + sum(normalize_partition(nu)) != sum(lam):
        raise VerifyError("sizes must satisfy |mu| + |nu| = |lam|")
    value = _lr_table(normalize_partition(mu), normalize_partition(nu)).get(lam, 0)
    return int(value)


# ---------------------------------------------------------------------------
# Products of normalized immanant tables
# ---------------------------------------------------------------------------


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


def _table(memo: dict, shape, x: SuperMatrix) -> dict:
    """The normalized immanant table of `shape` at x, shared through `memo`
    under the key (m, n, shape)."""
    return _once(memo, (x.m, x.n, shape), lambda: normalized_immanant_table(shape, x))


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


def check_littlewood_2(mu, nu, m: int, n: int, memo: dict | None = None) -> CheckReport:
    """Normalized immanant products over multiset splittings equal the
    LR-weighted normalized immanant, multiset by multiset.  Both sides read
    normalized immanant tables; a sweep shares them through `memo`, keyed by
    (m, n, shape) and filled on first use."""
    mu, nu = normalize_partition(mu), normalize_partition(nu)
    params = {"identity": "littlewood2", "m": m, "n": n, "mu": list(mu), "nu": list(nu)}
    r = sum(mu) + sum(nu)
    x = generator_matrix(m, n)
    lr = _lr_table(mu, nu)
    memo = {} if memo is None else memo

    def comparisons():
        zero = x.algebra.zero()
        product = _table_product([_table(memo, mu, x), _table(memo, nu, x)], x.algebra.one())
        weighted = [(_table(memo, lam, x), c) for lam, c in lr.items()]
        for indices in sorted_multisets(m, n, r):
            rhs = zero
            for entries, c in weighted:
                if indices in entries:
                    rhs = rhs + entries[indices] * c
            yield (f"I={list(indices)}", product.get(indices, zero), rhs)

    return _run("littlewood2", params, comparisons())


def check_lmw(lam, m: int, n: int, memo: dict | None = None) -> CheckReport:
    """Both induced-character immanant expansions: the sign-induced character
    against column shapes and the trivial-induced character against rows.  A
    sweep shares the row and column tables through `memo` (see `_table`)."""
    lam = normalize_partition(lam)
    params = {"identity": "lmw", "m": m, "n": n, "lambda": list(lam)}
    r = sum(lam)
    x = generator_matrix(m, n)
    psi = induced_sign_character(lam)
    phi = induced_trivial_character(lam)
    memo = {} if memo is None else memo

    def comparisons():
        zero = x.algebra.zero()
        columns = [(1,) * part for part in lam]
        rows = [(part,) for part in lam]
        column_product, row_product = (
            _table_product([_table(memo, shape, x) for shape in shapes], x.algebra.one())
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


def _immanant_sum_by_definition(shape, x: SuperMatrix) -> SuperPoly:
    """The normalized immanant sum as its definition reads: the entries of the
    normalized immanant table, summed.  The library's `normalized_immanant_sum`
    is built from power traces instead, so identities whose other side is made
    of power traces or the invariant series compare against this route."""
    table = normalized_immanant_table(shape, x)
    return linear_combination(x.algebra, ((1, value) for value in table.values()))


def _invariant_series(x: SuperMatrix, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """lambda(-t) and sigma(t) by the immanant route (one-column and one-row
    normalized immanant sums, by definition), never by the library's
    characteristic series or power traces."""
    one = [x.algebra.one()]
    lam_neg = one + [_immanant_sum_by_definition((1,) * k, x) * ((-1) ** k)
                     for k in range(1, order + 1)]
    sig = one + [_immanant_sum_by_definition((k,), x) for k in range(1, order + 1)]
    return TruncatedSeries(x.algebra, lam_neg, order), TruncatedSeries(x.algebra, sig, order)


def check_macmahon(m: int, n: int, order: int) -> CheckReport:
    """The elementary series at -t times the complete series is one."""
    if not 0 <= order <= MAX_DEGREE:  # the immanant sums of degree k sum over S_k
        raise VerifyError(f"macmahon needs {MAX_DEGREE} >= order >= 0, got {order}")
    params = {"identity": "macmahon", "m": m, "n": n, "order": order}
    x = generator_matrix(m, n)

    def comparisons():
        lam_neg, sig = _invariant_series(x, order)
        yield ("lambda(-t) sigma(t) = 1", lam_neg * sig, TruncatedSeries.one(x.algebra, order))

    return _run("macmahon", params, comparisons())


def check_newton(m: int, n: int, order: int) -> CheckReport:
    """Logarithmic-derivative identities tying both invariant series to the
    power-sum traces of star powers."""
    if not 1 <= order <= MAX_DEGREE:
        raise VerifyError(f"newton needs {MAX_DEGREE} >= order >= 1, got {order}")
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
        # alpha_k and beta_k are the elementary and complete invariants; the
        # largest Jacobi-Trudi index, lambda_1 + len(lambda) - 1, is at most r
        alphas = dict(enumerate(characteristic_coefficients(x, r)))
        betas = {k: complete_invariant(x, k) for k in range(r + 1)}
        sides = [("alpha", conjugate(lam), alphas), ("beta", lam, betas)]
        dets = [
            commuting_determinant(jacobi_trudi_grid(shape, lambda k: table.get(k, zero)), one)
            for _, shape, table in sides
        ]
        imm_sum = normalized_immanant_sum(lam, x)
        trace_form = idempotent_chain_supertrace(row_reading_tableau(lam), x)
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
    the normalized immanant sum by definition (the library's sum is itself
    built from power traces); the traces must commute first."""
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
        yield ("Hessenberg immanant / r!", lhs, _immanant_sum_by_definition(lam, x))

    return _run("hessenberg", params, comparisons())


def check_kostant(m: int, n: int, r: int) -> CheckReport:
    """Weight-space supertraces against normalized immanants, all shapes and
    weights of one degree (shapes off the hook must give zero on both sides)."""
    params = {"identity": "kostant", "m": m, "n": n, "r": r}
    x = generator_matrix(m, n)

    def comparisons():
        zero = x.algebra.zero()
        for lam in partitions(r):
            table = normalized_immanant_table(lam, x)
            for weight in weak_compositions(r, m + n):
                lhs = table.get(composition_to_multiset(weight), zero)
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


_BODY_CANDIDATES = sorted({Fraction(p, q) for q in (1, 2) for p in range(-10, 11)})  # 31 values


def random_grassmann_point(m: int, n: int, seed: int, n_units: int = 4) -> GrassmannPoint:
    """Seeded evaluation point for the generator matrix: distinct rational
    bodies on the diagonal, small soul coefficients, odd blocks pure soul.
    Even off-diagonal entries get souls only, so the block bodies are
    diagonal, with distinct eigenvalues.
    """
    d = m + n
    if d > len(_BODY_CANDIDATES):
        raise VerifyError(f"a Grassmann point needs m + n <= {len(_BODY_CANDIDATES)}, the number "
                          f"of distinct bodies available, got {d}")
    rng = random.Random(seed)
    lam = grassmann_algebra(n_units)
    thetas = [lam.gen(f"th{i}") for i in range(1, n_units + 1)]
    even_monomials = [thetas[a] * thetas[b] for a in range(n_units) for b in range(a + 1, n_units)]
    triple = thetas[0] * thetas[1] * thetas[2] if n_units >= 3 else None
    bodies = rng.sample(_BODY_CANDIDATES, d)

    def even_soul(body):  # body + a random sum of +-th_a th_b, draws in monomial order
        pairs = [(rng.choice((-1, 0, 0, 1)), mono) for mono in even_monomials]
        return linear_combination(lam, pairs + [(body, lam.one())])

    def odd_soul():  # a random sum of +-th_a, plus th1 th2 th3 with probability 0.3
        pairs = [(rng.choice((-1, 0, 1)), th) for th in thetas]
        if triple is not None and rng.random() < 0.3:
            pairs.append((1, triple))
        return linear_combination(lam, pairs)

    x = generator_matrix(m, n)
    assignment = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if (i <= m) == (j <= m):
                value = even_soul(bodies[i - 1] if i == j else 0)
            else:
                value = odd_soul()
            assignment[f"x{i}_{j}"] = value
    return GrassmannPoint(x.algebra, assignment, n_units=n_units)


def check_berezinian_series(m: int, n: int, order: int) -> CheckReport:
    """The characteristic series coefficients equal the one-column normalized
    immanant sums, as polynomials in the generic entries, so at every
    Grassmann point too."""
    if order < 0:
        raise VerifyError(f"berezinian-series needs order >= 0, got {order}")
    params = {"identity": "berezinian-series", "m": m, "n": n, "order": order}
    x = generator_matrix(m, n)

    def comparisons():
        coeffs = characteristic_coefficients(x, order)
        alphas = [x.algebra.one()]
        alphas += [normalized_immanant_sum((1,) * k, x) for k in range(1, order + 1)]
        for k in range(order + 1):
            yield (f"symbolic coefficient k={k}", coeffs[k], alphas[k])

    return _run("berezinian-series", params, comparisons())


def check_littlewood_3(lam, m: int, n: int, point: GrassmannPoint,
                       memo: dict | None = None) -> CheckReport:
    """Evaluate the normalized immanant sum at a Grassmann point and compare
    with the Schur supersymmetric polynomial at the eigenvalues of the
    transposed point matrix; the diagonalization must be exact.  A sweep
    shares work between its reports through `memo`, which fills on first
    use: symbolic sides keyed by (m, n, side), the diagonalization by
    (point, m, n) and each evaluated side by (point, m, n, its polynomial)."""
    lam = normalize_partition(lam)
    if not lam:
        raise VerifyError("littlewood3 needs a nonempty shape")
    params = {"identity": "littlewood3", "m": m, "n": n, "lambda": list(lam)}
    r = sum(lam)
    x = generator_matrix(m, n)
    memo = {} if memo is None else memo
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

    def symbolic(key, compute):
        return _once(memo, (m, n) + key, compute)

    def comparisons():
        eigen = _once(memo, (point, m, n, "eigen"),
                      lambda: diagonalize(x.evaluate(point).transpose()))
        yield ("diagonalization residual", eigen["residual_zero"], True)
        alphabets = (eigen["even_eigenvalues"], [-w for w in eigen["odd_eigenvalues"]],
                     grassmann_algebra(point.n_units))
        def evaluated(side, poly, evaluate):
            return _once(memo, (point, m, n, side, poly), lambda: evaluate(poly))

        for label, (left, right) in sides.items():
            yield (label, evaluated("left", symbolic(*left), point.evaluate),
                   evaluated("right", symbolic(*right),
                             lambda poly: evaluate_two_alphabets(poly, *alphabets)))

    return _run("littlewood3", params, comparisons())


def check_phi_isomorphism(m: int, n: int, max_size: int) -> CheckReport:
    """The diagonal specialization carries each normalized immanant sum to the
    Schur supersymmetric polynomial, and the images stay linearly independent."""
    if max_size < 1:
        raise VerifyError(f"phi-isomorphism needs max_size >= 1, got {max_size}")
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
    if max_r < 1:
        raise VerifyError(f"chain-oracle needs max_r >= 1, got {max_r}")
    params = {"identity": "chain-oracle", "m": m, "n": n, "max_r": max_r}
    x = generator_matrix(m, n)

    def comparisons():
        for r in range(1, max_r + 1):
            for out_indices in product(range(1, m + n + 1), repeat=r):
                for in_indices in product(range(1, m + n + 1), repeat=r):
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
    CHECK_FAMILIES, the whole catalog.  `seed` and `trials` choose the
    Littlewood III points."""
    if trials < 1:
        raise VerifyError(f"sweep needs trials >= 1, got {trials}")
    if max_r < 1:
        raise VerifyError(f"sweep needs max_r >= 1, got {max_r}")
    if max_r > MAX_DEGREE:  # the immanants of degree r sum over S_r
        raise VerifyError(f"sweep needs max_r <= {MAX_DEGREE}, got {max_r}")
    if name in ("littlewood1", "all") and m + n > MAX_DEGREE:  # littlewood1 runs at r = m + n
        raise VerifyError(f"littlewood1 needs m + n <= {MAX_DEGREE}, got {m + n}")
    degrees = range(1, max_r + 1)
    shapes = [lam for r in degrees for lam in partitions(r)]
    per_degree = {"vanishing": check_vanishing, "kostant": check_kostant,
                  "schur-weyl": check_schur_weyl}
    single = {
        "macmahon": lambda: check_macmahon(m, n, order),
        "newton": lambda: check_newton(m, n, order),
        "berezinian": lambda: check_berezinian_series(m, n, order),
        "phi-isomorphism": lambda: check_phi_isomorphism(m, n, max_r),
        "chain-oracle": lambda: check_chain_oracle(m, n, max_r),
    }
    if name in per_degree:
        return [per_degree[name](m, n, r) for r in degrees]
    if name in single:
        return [single[name]()]
    if name == "littlewood1":
        return [check_littlewood_1(mu, nu, m, n) for mu, nu in _partition_pairs(m + n, m + n)]
    if name == "hessenberg":
        return [check_hessenberg(lam, m, n) for lam in shapes]
    if name == "goulden-jackson":
        return [check_goulden_jackson(lam, m, n) for lam in shapes]
    memo: dict = {}
    if name == "lmw":
        return [check_lmw(lam, m, n, memo) for lam in shapes]
    if name == "littlewood2":
        return [check_littlewood_2(mu, nu, m, n, memo) for mu, nu in _partition_pairs(1, max_r)]
    if name == "littlewood3":
        points = [random_grassmann_point(m, n, seed + t) for t in range(trials)]
        return [check_littlewood_3(lam, m, n, point, memo) for point in points for lam in shapes]
    if name == "all":
        return [report for sub in CHECK_FAMILIES
                for report in sweep(sub, m, n, max_r, order=order, seed=seed, trials=trials)]
    raise VerifyError(f"unknown check name {name!r}")
