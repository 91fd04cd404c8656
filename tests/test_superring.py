import gc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from superimm.superring import (
    MAX_ORDER,
    Algebra,
    AlgebraMismatchError,
    EvaluationError,
    GrassmannPoint,
    NotInvertibleError,
    ParseError,
    Parity,
    SuperRingError,
    TruncatedSeries,
    grassmann_algebra,
    linear_combination,
    merge_odd_parts,
    parse_poly,
    poly_from_terms,
    poly_to_terms,
    sum_of_products,
)


def _mixed_algebra():
    alg = Algebra("mixed")
    x, y = alg.even("x", "y")
    t1, t2, t3 = alg.odd("t1", "t2", "t3")
    return alg, x, y, t1, t2, t3


@pytest.fixture
def mixed():
    return _mixed_algebra()


def test_odd_generators_anticommute(mixed):
    alg, x, y, t1, t2, t3 = mixed
    assert t1 * t2 == -(t2 * t1)
    assert str(t1 * t2) == "t1*t2"


def test_odd_square_is_zero(mixed):
    alg, x, y, t1, t2, t3 = mixed
    assert (t1 * t1).is_zero


def test_mixed_product_expansion(mixed):
    alg, x, y, t1, t2, t3 = mixed
    # (x + t1)(x - t1) = x^2 because the cross terms cancel and t1^2 = 0
    assert (x + t1) * (x - t1) == x * x


def test_even_generators_central(mixed):
    alg, x, y, t1, t2, t3 = mixed
    p = (x + t1 * t2) * (y * t3)
    q = (y * t3) * (x + t1 * t2)
    assert p == q


def test_algebra_mismatch_raises(mixed):
    alg, x, *_ = mixed
    other = Algebra("other")
    z = other.even("z")
    with pytest.raises(AlgebraMismatchError):
        x * z


def test_redeclare_conflicting_parity(mixed):
    alg, *_ = mixed
    with pytest.raises(ValueError):
        alg.declare("x", Parity.ODD)


# -- random algebra fuzzing -------------------------------------------------


def _random_poly(alg, rng, max_terms=4):
    gens = [g.name for g in alg.generators()]
    p = alg.zero()
    for _ in range(rng.randrange(max_terms + 1)):
        term = alg.scalar(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
        for _ in range(rng.randrange(3)):
            term = term * alg.gen(rng.choice(gens))
        p = p + term
    return p


@st.composite
def poly_pair(draw):
    alg = Algebra("h")
    alg.even("x", "y")
    alg.odd("t1", "t2", "t3")
    import random

    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return alg, _random_poly(alg, rng), _random_poly(alg, rng), _random_poly(alg, rng)


@given(poly_pair())
@settings(max_examples=200, deadline=None)
def test_supercommutativity_on_homogeneous_parts(data):
    alg, a, b, _ = data
    a0, a1 = a.homogeneous_parts()
    b0, b1 = b.homogeneous_parts()
    assert a0 * b0 == b0 * a0
    assert a0 * b1 == b1 * a0
    assert a1 * b1 == -(b1 * a1)


@given(poly_pair())
@settings(max_examples=200, deadline=None)
def test_associativity_distributivity(data):
    alg, a, b, c = data
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_sum_of_products_matches_the_sum_of_its_products(seed):
    """Mixed denominators (coefficients over 1, 2 and 3), cancellation, the
    empty list, and truncated series pairs, which sum product by product."""
    import random

    rng = random.Random(seed)
    alg = _mixed_algebra()[0]
    pairs = [(_random_poly(alg, rng), _random_poly(alg, rng)) for _ in range(rng.randrange(6))]
    expected = alg.zero()
    for a, b in pairs:
        expected = expected + a * b
    got = sum_of_products(alg.zero(), pairs)
    assert got == expected
    _assert_canonical(got)
    assert sum_of_products(alg.zero(), pairs + [(-a, b) for a, b in pairs]).is_zero
    assert sum_of_products(alg.zero(), []) == 0
    series = [TruncatedSeries.from_polys(alg, [a, b], 2) for a, b in pairs]
    zero = TruncatedSeries.from_polys(alg, [], 2)
    expected = zero
    for f, g in zip(series, series[1:]):
        expected = expected + f * g
    assert sum_of_products(zero, zip(series, series[1:])) == expected


def test_evaluation_is_homomorphism(mixed):
    alg, x, y, t1, t2, t3 = mixed
    lam = grassmann_algebra(4)
    th = {i: lam.gen(f"th{i}") for i in range(1, 5)}
    pt = GrassmannPoint(
        alg,
        {
            "x": lam.scalar(3) + th[1] * th[2],
            "y": lam.scalar(Fraction(1, 2)),
            "t1": th[1],
            "t2": th[2] + th[3],
            "t3": th[4],
        },
    )
    a = x * t1 + y * t2
    b = t2 * t3 - x
    assert pt.evaluate(a * b) == pt.evaluate(a) * pt.evaluate(b)
    assert pt.evaluate(x) == lam.scalar(3) + th[1] * th[2]


def test_evaluation_examples(mixed):
    alg, x, y, t1, t2, t3 = mixed
    lam = grassmann_algebra(4)
    pt = GrassmannPoint(alg, {"x": lam.scalar(3), "t1": lam.gen("th1"), "t2": lam.gen("th2")})
    assert pt.evaluate(x) == lam.scalar(3)
    assert pt.evaluate(t1) == lam.gen("th1")
    assert pt.evaluate(t1 * t2) == lam.gen("th1") * lam.gen("th2")
    with pytest.raises(EvaluationError):
        pt.evaluate(y)


def test_point_body_accessor(mixed):
    alg, *_ = mixed
    lam = grassmann_algebra(2)
    pt = GrassmannPoint(alg, {"x": lam.scalar(Fraction(5, 2)) + lam.gen("th1") * lam.gen("th2")}, n_units=2)
    assert pt.assignment["x"].constant_term() == Fraction(5, 2)


def test_point_rejects_parity_mismatch(mixed):
    alg, *_ = mixed
    lam = grassmann_algebra(2)
    with pytest.raises(EvaluationError):
        GrassmannPoint(alg, {"x": lam.gen("th1")}, n_units=2)
    with pytest.raises(EvaluationError):
        GrassmannPoint(alg, {"t1": lam.scalar(1)}, n_units=2)


def test_inverse_of_unit_grassmann():
    lam = grassmann_algebra(4)
    th1, th2, th3, th4 = (lam.gen(f"th{i}") for i in range(1, 5))
    u = lam.scalar(2) + th1 * th2 + 3 * th3 * th4
    assert u * u.inverse_of_unit() == lam.one()
    with pytest.raises(NotInvertibleError):
        (th1 * th2).inverse_of_unit()


def test_inverse_of_unit_rejects_polynomial_soul(mixed):
    alg, x, *_ = mixed
    with pytest.raises(NotInvertibleError):
        (1 + x).inverse_of_unit()


# -- truncated series --------------------------------------------------------


def test_series_geometric():
    alg = Algebra("s")
    f = TruncatedSeries.from_scalars(alg, [1, 1], 3)
    g = TruncatedSeries.from_scalars(alg, [1, -1, 1, -1], 3)
    assert f * g == TruncatedSeries.one(alg, 3)


def test_series_invert_identity():
    alg = Algebra("s")
    one = TruncatedSeries.one(alg, 4)
    assert one.invert() == one


def test_series_invert_geometric(mixed):
    alg, x, *_ = mixed
    f = TruncatedSeries.from_polys(alg, [alg.one(), -x], 2)
    inv = f.invert()
    assert inv.coefficient(0) == 1
    assert inv.coefficient(1) == x
    assert inv.coefficient(2) == x * x
    assert f * inv == TruncatedSeries.one(alg, 2)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_series_invert_random_units(seed):
    import random

    rng = random.Random(seed)
    alg = Algebra("h")
    alg.even("x", "y")
    alg.odd("t1", "t2")
    order = rng.randrange(1, 4)
    coeffs = [alg.scalar(rng.choice([1, 2, -1, Fraction(1, 2)]))]
    for _ in range(order):
        coeffs.append(_random_poly(alg, rng, max_terms=2))
    f = TruncatedSeries(alg, coeffs, order)
    assert f * f.invert() == TruncatedSeries.one(alg, order)


def test_series_derivative():
    alg = Algebra("s")
    f = TruncatedSeries.from_scalars(alg, [5, 1, 3, 2], 3)
    assert f.derivative() == TruncatedSeries.from_scalars(alg, [1, 6, 6], 2)


def test_series_no_silent_extension():
    alg = Algebra("s")
    f = TruncatedSeries.from_scalars(alg, [1, 2], 1)
    with pytest.raises(ValueError):
        f.coefficient(2)
    g = TruncatedSeries.from_scalars(alg, [1, 0, 0], 2)
    assert (f * g).order == 1


@pytest.mark.parametrize("build", [
    lambda alg, order: TruncatedSeries(alg, [alg.one()], order),
    lambda alg, order: TruncatedSeries.from_polys(alg, [alg.one()], order),
    lambda alg, order: TruncatedSeries.from_scalars(alg, [1], order),
    lambda alg, order: TruncatedSeries.one(alg, order),
], ids=["init", "from_polys", "from_scalars", "one"])
def test_series_orders_outside_the_bound_are_refused(build):
    """Refused before any coefficient is made: 10**20 once ended in a raw
    OverflowError from the padding; True is not taken for the order 1."""
    alg = Algebra("q")
    for order, message in [
        (MAX_ORDER + 1, "truncation order must be at most 1000"),
        (10**20, "truncation order must be at most 1000"),
        (True, "truncation order must be an integer"),
        (2.0, "truncation order must be an integer"),
        (-1, "truncation order must be >= 0"),
    ]:
        with pytest.raises(SuperRingError, match=f"^{message}$"):
            build(alg, order)
    assert TruncatedSeries.from_scalars(alg, [1], MAX_ORDER).order == MAX_ORDER


def test_series_rejects_a_negative_index():
    f = TruncatedSeries.from_scalars(Algebra("q"), [1, 2, 3], 2)
    with pytest.raises(SuperRingError, match="negative"):
        f.coefficient(-1)


def test_series_invert_requires_unit(mixed):
    alg, x, *_ = mixed
    f = TruncatedSeries.from_polys(alg, [alg.zero(), x], 1)
    with pytest.raises(NotInvertibleError):
        f.invert()


# -- grammar and serialization -------------------------------------------------


def test_parse_basic(mixed):
    alg, x, y, t1, t2, t3 = mixed
    assert parse_poly(alg, "2*x + 3/4*t1*t2 - (x - 1)") == x + Fraction(3, 4) * t1 * t2 + 1
    assert parse_poly(alg, "-x*-y") == x * y
    assert parse_poly(alg, "t2*t1") == -(t1 * t2)


def test_parse_errors(mixed):
    alg, *_ = mixed
    for bad in ["x +", "2 ** x", "q", "3/0", "(x", "x x"]:
        with pytest.raises(ParseError):
            parse_poly(alg, bad)


def test_parse_slash_only_forms_integer_rationals(mixed):
    alg, x, *_ = mixed
    assert parse_poly(alg, "2*3/4") == Fraction(3, 2)
    for bad in ["x/2", "(x)/2", "3/4/5", "x/"]:
        with pytest.raises(ParseError, match="^'/' only forms p/q rationals of two integers$"):
            parse_poly(alg, bad)


@given(st.text(st.sampled_from("0123456789xyt()+-*/ ") | st.characters(), max_size=40))
@example("(" * 5000 + "x" + ")" * 5000)
@settings(max_examples=300, deadline=None)
def test_parse_poly_raises_only_value_errors(text):
    alg = Algebra("fuzz")
    alg.even("x", "y")
    alg.odd("t1", "t2")
    try:
        parse_poly(alg, text)
    except ValueError:
        pass


def test_serialization_round_trip(mixed):
    alg, x, y, t1, t2, t3 = mixed
    p = Fraction(3, 2) * x * x * t1 * t3 - y + 7
    data = poly_to_terms(p)
    assert all(set(d) == {"coefficient", "even", "odd"} for d in data)
    assert poly_from_terms(alg, data) == p


def test_poly_from_terms_rejects_names_off_the_algebra():
    alg = grassmann_algebra(2)
    p = 3 * alg.gen("th1") * alg.gen("th2") - alg.gen("th2") + Fraction(1, 2)
    assert poly_from_terms(alg, poly_to_terms(p)) == p
    for bad in (
        {"coefficient": 1, "even": [["zz", 1]]},  # undeclared even name
        {"coefficient": 1, "even": [["th1", 1]]},  # odd generator listed as even
        {"coefficient": 1, "odd": ["qq"]},  # undeclared odd name
        {"coefficient": 1, "odd": ["th2", "th1"]},  # odd part out of name order
        {"coefficient": 1, "odd": ["th1", "th1"]},  # repeated odd generator
    ):
        with pytest.raises(SuperRingError):
            poly_from_terms(alg, [bad])


def test_poly_times_series_multiplies_on_the_left(mixed):
    alg, x, y, t1, t2, t3 = mixed
    s = TruncatedSeries.from_polys(alg, [alg.one(), t2], 1)
    assert (t1 * s).coeffs == (t1, t1 * t2)
    assert (s * t1).coeffs == (t1, -(t1 * t2))
    assert (2 * s).coeffs == (alg.scalar(2), 2 * t2)
    with pytest.raises(TypeError):
        t1 + s


def test_series_with_a_non_series_operand_raises_type_error(mixed):
    alg, x, y, t1, t2, t3 = mixed
    s = TruncatedSeries.from_polys(alg, [alg.one(), t2], 1)
    for left, right in [(s, x), (x, s), (s, 1), (1, s)]:
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right
    with pytest.raises(TypeError):
        s * "x"


def test_algebra_equality_implies_equal_hashes():
    a, b = Algebra("a"), Algebra("b")
    for alg in (a, b):
        alg.even("x")
        alg.odd("t")
    assert a.compatible(b)
    assert a.gen("x") + b.gen("t") == b.gen("x") + a.gen("t")
    assert a != b or hash(a) == hash(b)


@pytest.mark.parametrize("value", [5, -3, Fraction(2, 3), Fraction(4, 2), 0, Fraction(0)])
def test_constant_poly_hashes_like_its_rational_value(value):
    alg = Algebra("c")
    alg.even("x")
    for p in (alg.scalar(value), alg.gen("x") * 0 + value):
        assert p == value and hash(p) == hash(value)
        assert {value: "found"}[p] == "found"
    assert alg.zero() == 0 and hash(alg.zero()) == hash(0)


# -- integer-first coefficients against a plain-Fraction reference -------------
#
# A reference polynomial is a dict {(even_part, odd_part): Fraction} in the
# normal form SuperPoly shows (odd names sorted by name); its arithmetic below
# shares no code with superring (the Koszul sign is an inversion count of the
# concatenated odd factors).  SuperPoly stores odd parts in declaration order,
# so the kernel tests also run on algebras whose odd generators are declared
# out of name order.

EVEN_GENS = ("x", "y")
ODD_GENS = ("th1", "th2", "th10")
ODD_ORDERS = {
    "name-order": ("th1", "th10", "th2"),
    "reversed": ("th2", "th10", "th1"),
    "th2-before-th10": ("th1", "th2", "th10"),
}
ONE_KEY = ((), ())

rationals = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
)
monomials = st.tuples(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda exps: tuple((g, e) for g, e in zip(EVEN_GENS, exps) if e)
    ),
    st.lists(st.sampled_from(ODD_GENS), unique=True, max_size=3).map(lambda o: tuple(sorted(o))),
)


def raw_polys(keys=monomials, max_size=3):
    """{key: int or Fraction}, zero coefficients included, as a caller may pass them."""
    return st.dictionaries(keys, rationals, max_size=max_size)


def _kernel_algebra(odd_order=ODD_ORDERS["name-order"]):
    alg = Algebra("kernel")
    alg.even(*EVEN_GENS)
    alg.odd(*odd_order)
    return alg


by_odd_order = pytest.mark.parametrize("odd_order", ODD_ORDERS.values(), ids=ODD_ORDERS)


def _as_terms(raw):
    return [{"coefficient": c, "even": [list(g) for g in e], "odd": list(o)} for (e, o), c in raw.items()]


def _ref(raw):
    return {key: Fraction(c) for key, c in raw.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def _ref_scale(a, s):
    return {key: c * Fraction(s) for key, c in a.items() if c * s}


def _ref_mul(a, b):
    out = {}
    for (ea, oa), ca in a.items():
        for (eb, ob), cb in b.items():
            odd = oa + ob
            if len(set(odd)) < len(odd):
                continue
            inversions = sum(odd[i] > odd[j] for i in range(len(odd)) for j in range(i + 1, len(odd)))
            exps = dict(ea)
            for g, e in eb:
                exps[g] = exps.get(g, 0) + e
            key = (tuple(sorted(exps.items())), tuple(sorted(odd)))
            out[key] = out.get(key, Fraction(0)) + (-1) ** inversions * ca * cb
    return {key: c for key, c in out.items() if c}


def _ref_substitute(a, images):
    out = {}
    for (even, odd), c in a.items():
        term = {ONE_KEY: c}
        for g, e in even:
            for _ in range(e):
                term = _ref_mul(term, images[g])
        for g in odd:
            term = _ref_mul(term, images[g])
        out = _ref_add(out, term)
    return out


def _ref_inverse(unit):
    body = unit[ONE_KEY]
    step = {key: -c / body for key, c in unit.items() if key != ONE_KEY}
    out, power = {ONE_KEY: 1 / body}, {ONE_KEY: Fraction(1)}
    for _ in ODD_GENS:
        power = _ref_mul(power, step)
        out = _ref_add(out, _ref_scale(power, 1 / body))
    return out


def _assert_matches(p, ref):
    for _, _, c in p.terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    expected = [
        {"coefficient": str(c), "even": [[g, e] for g, e in even], "odd": list(odd)}
        for (even, odd), c in sorted(ref.items())
    ]
    assert poly_to_terms(p) == expected


@by_odd_order
@given(raw_polys(), raw_polys(), raw_polys(max_size=2), rationals)
@settings(max_examples=200, deadline=None)
def test_kernel_coefficients_match_fraction_reference(odd_order, raw_a, raw_b, raw_c, s):
    alg = _kernel_algebra(odd_order)
    a, b, c = (poly_from_terms(alg, _as_terms(raw)) for raw in (raw_a, raw_b, raw_c))
    ref_a, ref_b, ref_c = _ref(raw_a), _ref(raw_b), _ref(raw_c)
    _assert_matches(a, ref_a)
    _assert_matches(a + b, _ref_add(ref_a, ref_b))
    _assert_matches(a - b, _ref_add(ref_a, _ref_scale(ref_b, -1)))
    _assert_matches(a + s, _ref_add(ref_a, _ref({ONE_KEY: s})))
    _assert_matches(a * b, _ref_mul(ref_a, ref_b))
    _assert_matches((a * b) * c, _ref_mul(_ref_mul(ref_a, ref_b), ref_c))
    _assert_matches(a * s, _ref_scale(ref_a, s))
    _assert_matches(s * a, _ref_scale(ref_a, s))
    images = {g: b for g in EVEN_GENS} | {g: c for g in ODD_GENS}
    ref_images = {g: ref_b for g in EVEN_GENS} | {g: ref_c for g in ODD_GENS}
    _assert_matches(a.substitute(images, alg), _ref_substitute(ref_a, ref_images))


cubic_monomials = st.tuples(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda exps: tuple((g, e) for g, e in zip(EVEN_GENS, exps) if e)
    ),
    monomials.map(lambda key: key[1]),
)
even_images = raw_polys(keys=monomials.filter(lambda key: len(key[1]) % 2 == 0))
odd_images = raw_polys(keys=monomials.filter(lambda key: len(key[1]) % 2 == 1))


@given(
    raw_polys(keys=cubic_monomials, max_size=4),
    st.tuples(even_images, even_images),
    st.tuples(odd_images, odd_images, odd_images),
)
@example(
    raw={((("x", 3), ("y", 1)), ("th1",)): 2, ((("x", 2),), ()): -1, ONE_KEY: Fraction(1, 2)},
    evens=({ONE_KEY: Fraction(1, 3), ((), ("th1", "th2")): 1}, {}),
    odds=({((), ("th2",)): 1}, {((("x", 1),), ("th10",)): -2}, {}),
)
@settings(max_examples=200, deadline=None)
@by_odd_order
def test_substitute_matches_factor_by_factor_reference(odd_order, raw, evens, odds):
    """Even and odd images, exponents up to 3 and zero images, against the
    reference that multiplies in one generator factor at a time."""
    alg = _kernel_algebra(odd_order)
    raw_images = dict(zip(EVEN_GENS, evens)) | dict(zip(ODD_GENS, odds))
    images = {g: poly_from_terms(alg, _as_terms(r)) for g, r in raw_images.items()}
    ref_images = {g: _ref(r) for g, r in raw_images.items()}
    p = poly_from_terms(alg, _as_terms(raw))
    _assert_matches(p.substitute(images, alg), _ref_substitute(_ref(raw), ref_images))


def test_substitute_leaves_no_reference_cycles(mixed):
    """Each call's memos of powers and prefixes are freed on return, so
    repeated evaluations leave nothing for the cyclic collector."""
    alg, x, y, t1, t2, t3 = mixed
    lam = grassmann_algebra(4)
    th = {i: lam.gen(f"th{i}") for i in range(1, 5)}
    pt = GrassmannPoint(alg, {"x": lam.scalar(3) + th[1] * th[2], "y": lam.scalar(Fraction(1, 2)),
                              "t1": th[1], "t2": th[2] + th[3], "t3": th[4]})
    p = x ** 3 * t1 * t2 + x * y ** 2 * t3 + x ** 2 * y - t1 * t3 + 5
    first = pt.evaluate(p)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            assert pt.evaluate(p) == first
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_substitute_missing_generator_raises(mixed):
    alg, x, y, t1, t2, t3 = mixed
    two = alg.scalar(2)
    for p, images in [
        (x * x * t1 + 1, {"x": two, "t2": t2}),
        (x * x * y, {"x": two, "t1": t1}),
        (t1 * t2, {"t1": t3}),
    ]:
        with pytest.raises(EvaluationError, match="no value assigned"):
            p.substitute(images, alg)


@given(raw_polys(max_size=4), rationals)
@example(raw={((("x", 1),), ("th1",)): Fraction(3, 2), ONE_KEY: 3}, s=Fraction(2, 3))
@settings(max_examples=200, deadline=None)
def test_product_with_constant_operand_is_scaling(raw, s):
    """A constant operand on either side gives the product by the plain
    number, in normal form: int coefficients when the denominator is 1 and
    no stored zeros."""
    alg = _kernel_algebra()
    a = poly_from_terms(alg, _as_terms(raw))
    constant = alg.scalar(s)
    for product in (a * constant, constant * a):
        assert product == a * s
        _assert_matches(product, _ref_scale(_ref(raw), s))
        assert all(c != 0 for c in product._terms.values())


@by_odd_order
@given(
    st.one_of(st.integers(1, 5), st.builds(Fraction, st.integers(1, 6), st.integers(1, 3))),
    raw_polys(keys=monomials.filter(lambda key: key[1]), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_kernel_inverse_of_unit_matches_fraction_reference(odd_order, body, raw_soul):
    alg = _kernel_algebra(odd_order)
    raw = {**raw_soul, ONE_KEY: body}
    unit = poly_from_terms(alg, _as_terms(raw))
    inverse = unit.inverse_of_unit()
    _assert_matches(inverse, _ref_inverse(_ref(raw)))
    _assert_matches(unit * inverse, {ONE_KEY: Fraction(1)})


@by_odd_order
@given(raw_polys())
@settings(max_examples=100, deadline=None)
def test_terms_round_trip_under_every_odd_declaration_order(odd_order, raw):
    """poly_to_terms, poly_from_terms, coefficient and str show name order,
    whatever order the odd generators were declared in."""
    alg = _kernel_algebra(odd_order)
    p = poly_from_terms(alg, _as_terms(raw))
    from_generators = alg.zero()
    for (even, odd), c in raw.items():
        term = alg.scalar(c)
        for name in (*(name for name, exp in even for _ in range(exp)), *odd):
            term = term * alg.gen(name)
        from_generators = from_generators + term
    assert from_generators == p
    assert poly_from_terms(alg, poly_to_terms(p)) == p
    for key, c in _ref(raw).items():
        assert p.coefficient(key) == c
    in_name_order = poly_from_terms(_kernel_algebra(), poly_to_terms(p))
    assert poly_to_terms(in_name_order) == poly_to_terms(p)
    assert str(in_name_order) == str(p)


def test_algebras_declaring_odd_generators_in_different_orders_are_not_compatible():
    a, b = _kernel_algebra(ODD_ORDERS["reversed"]), _kernel_algebra(ODD_ORDERS["th2-before-th10"])
    assert not a.compatible(b) and not b.compatible(a)
    p = a.gen("th2") * a.gen("th1") + a.gen("th10") * a.gen("x")
    q = poly_from_terms(b, poly_to_terms(p))
    assert poly_to_terms(q) == poly_to_terms(p) and str(q) == "-th1*th2 + x*th10"
    assert p != q
    with pytest.raises(AlgebraMismatchError):
        p + q
    swapped = [poly.substitute({"x": alg.gen("x"), "th1": alg.gen("th10"), "th2": alg.gen("th2"),
                                "th10": alg.gen("th1")}, alg) for poly, alg in ((p, a), (q, b))]
    # (-th1*th2 + x*th10) * (-th10*th2 + x*th1) = x^2*th10*th1 = -x^2*th1*th10
    assert poly_to_terms(p * swapped[0]) == poly_to_terms(q * swapped[1]) == [
        {"coefficient": "-1", "even": [["x", 2]], "odd": ["th1", "th10"]}
    ]


def test_integer_and_fraction_inputs_build_equal_polys():
    alg = _kernel_algebra()
    x, t1 = alg.gen("x"), alg.gen("th1")
    x_key = ((("x", 1),), ())
    pairs = [
        (alg.scalar(2), alg.scalar(Fraction(2))),
        (x * 2, x * Fraction(4, 2)),
        (2 * t1 + x, Fraction(2) * t1 + x),
        (poly_from_terms(alg, _as_terms({x_key: 2})), poly_from_terms(alg, _as_terms({x_key: Fraction(2)}))),
    ]
    for p, q in pairs:
        assert p == q and hash(p) == hash(q)
        assert poly_to_terms(p) == poly_to_terms(q)


def _assert_canonical(p):
    """Stored as nonzero int numerators over one reduced positive denominator."""
    nums = list(p._terms.values())
    assert all(type(c) is int and c != 0 for c in nums)
    assert type(p._den) is int and p._den >= 1
    assert gcd(p._den, *nums) == 1
    assert nums or p._den == 1


@given(raw_polys(), raw_polys(), raw_polys(max_size=2), rationals)
@example(raw_a={((("x", 1),), ()): 1}, raw_b={}, raw_c={}, s=Fraction(1, 2))
@settings(max_examples=200, deadline=None)
def test_every_result_is_stored_over_one_reduced_denominator(raw_a, raw_b, raw_c, s):
    alg = _kernel_algebra()
    a, b, c = (poly_from_terms(alg, _as_terms(raw)) for raw in (raw_a, raw_b, raw_c))
    images = {g: b for g in EVEN_GENS} | {g: c for g in ODD_GENS}
    soul = poly_from_terms(alg, _as_terms({key: v for key, v in raw_c.items() if key[1]}))
    results = [
        a, -a, a + b, a - b, a + s, s - a, a * b, a * s, s * a, a * alg.scalar(s),
        a.substitute(images, alg), *a.homogeneous_parts(), (soul + (s or 1)).inverse_of_unit(),
        sum_of_products(alg.zero(), [(a, b), (b, c), (a * s, c)]),
    ]
    for p in results:
        _assert_canonical(p)
    for p, q in [
        (a * s + a * (1 - s), a),
        ((a * b) * c, a * (b * c)),
        ((a + b) - b, a),
        (a * Fraction(1, 2) + a * Fraction(1, 2), a),
    ]:
        assert p == q and hash(p) == hash(q)
    assert hash(alg.scalar(s)) == hash(s)


@given(st.lists(st.tuples(rationals, raw_polys()), max_size=4), st.booleans())
@example(pairs=[(Fraction(1, 2), {((), ("th1",)): Fraction(2, 3)})], cancel=True)
@example(pairs=[(Fraction(3, 2), {((), ()): Fraction(1, 3)}), (2, {((), ()): Fraction(-1, 4)})],
         cancel=False)
@settings(max_examples=200, deadline=None)
def test_linear_combination_equals_the_left_fold(pairs, cancel):
    """One pass over one denominator gives the fold's sum, reduced, and zero over
    denominator 1; with `cancel` every pair is repeated with -c, so the sum is 0."""
    alg = _kernel_algebra()
    pairs = [(c, poly_from_terms(alg, _as_terms(raw))) for c, raw in pairs]
    if cancel:
        pairs += [(-c, p) for c, p in pairs]
    folded = alg.zero()
    for c, p in pairs:
        folded = folded + p * c
    result = linear_combination(alg, pairs)
    _assert_canonical(result)
    assert result == folded and poly_to_terms(result) == poly_to_terms(folded)
    assert not cancel or (result.is_zero and result._den == 1)


def test_linear_combination_rejects_a_foreign_algebra(mixed):
    alg, x, *_ = mixed
    other = Algebra("other")
    with pytest.raises(AlgebraMismatchError):
        linear_combination(alg, [(1, x), (2, other.even("x"))])


def test_products_read_the_sign_rule_past_its_memo(monkeypatch):
    """The Koszul sign is memoized per mask pair, but products look the rule up
    in the module at each call: a replaced rule decides even for pairs the
    memo already holds."""
    import superimm.superring as superring

    lam = grassmann_algebra(2)
    th1, th2 = lam.gen("th1"), lam.gen("th2")
    product = th2 * th1  # fills the memo with this mask pair
    assert product == -(th1 * th2)
    original = superring.merge_odd_parts
    monkeypatch.setattr(superring, "merge_odd_parts", lambda a, b: (1, original(a, b)[1]))
    assert th2 * th1 != product


@given(st.integers(0, (1 << 10) - 1), st.integers(0, (1 << 10) - 1))
@settings(max_examples=200, deadline=None)
def test_memoized_sign_counts_the_crossing_pairs(a, b):
    """(sign, a | b) with sign the parity of the pairs (i in a, j in b), i > j,
    over bit positions; 0 when a and b share a bit.  The second call is the memo's."""
    def bits(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    crossings = sum(1 for i in bits(a) for j in bits(b) if i > j)
    want = (0, 0) if a & b else ((-1) ** crossings, a | b)
    assert merge_odd_parts(a, b) == want
    assert merge_odd_parts(a, b) == want


# -- packed monomial keys ------------------------------------------------------
#
# A key holds one bit per odd generator and a 32-bit exponent field per even
# generator, in declaration order; exponents stay below 2**31, the guard bit.

BOUND = 1 << 31


def test_poly_from_terms_rejects_exponents_off_the_normal_form(mixed):
    """x^0, a repeated even name, a negative, non-int or too large exponent
    would each build a monomial outside the normal form."""
    alg, x, *_ = mixed
    for even in ([["x", 0]], [["x", 1], ["x", 2]], [["x", -2]], [["x", BOUND]], [["x", "2"]],
                 [["x", 2.0]], [["x", True]], [["y", 1], ["x", 1], ["y", 1]]):
        with pytest.raises(SuperRingError):
            poly_from_terms(alg, [{"coefficient": 1, "even": even}])
    top = poly_from_terms(alg, [{"coefficient": 1, "even": [["x", BOUND - 1]]}])
    assert top.terms() == [((("x", BOUND - 1),), (), 1)]


def test_powers_reach_the_exponent_bound_and_refuse_to_pass_it(mixed):
    alg, x, y, t1, t2, t3 = mixed
    assert (x ** (BOUND - 1)).terms() == [((("x", BOUND - 1),), (), 1)]
    assert x ** (1 << 30) * x ** ((1 << 30) - 1) == x ** (BOUND - 1)
    # x's field lies just below y's, so a carry would show up as a y factor
    for too_big in (lambda: x ** BOUND, lambda: x ** (1 << 30) * x ** (1 << 30),
                    lambda: x ** (BOUND - 1) * x ** (BOUND - 1) * y,
                    lambda: sum_of_products(alg.zero(), [(x ** (1 << 30), x ** (1 << 30)), (y, t1)]),
                    lambda: (x * x).substitute({"x": x ** (1 << 30)}, alg)):
        with pytest.raises(SuperRingError, match="exponent"):
            too_big()
    with pytest.raises(SuperRingError):
        x ** -1


@given(poly_pair(), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_power_equals_the_repeated_product(data, k):
    alg, a, *_ = data
    product = alg.one()
    for _ in range(k):
        product = product * a
    assert a ** k == product


def test_coefficient_of_a_monomial_off_the_algebra_is_zero(mixed):
    alg, x, y, t1, t2, t3 = mixed
    p = 3 * x * t1 + 5 * t1 + 7
    assert p.coefficient(((("x", 1),), ("t1",))) == 3 and p.coefficient(((), ())) == 7
    assert p.coefficient(([["x", 1]], ["t1"])) == 3  # the lists of poly_to_terms name the same monomial
    for key in (((("zz", 1),), ()), ((), ("qq",)), ((("x", 1),), ("qq",)), ((("zz", 1),), ("t1",)),
                ((("t1", 1),), ()), ((), ("x",)), ((("x", 0),), ("t1",)), ((), ("t1", "t1"))):
        assert p.coefficient(key) == 0


def test_algebras_declaring_even_generators_in_different_orders_are_not_compatible():
    a, b = Algebra("xy"), Algebra("yx")
    a.even("x", "y")
    b.even("y", "x")
    for alg in (a, b):
        alg.odd("t")
    assert not a.compatible(b) and not b.compatible(a)
    p = a.gen("x") * a.gen("x") * a.gen("t") - 2 * a.gen("y")
    with pytest.raises(AlgebraMismatchError):
        p + b.gen("x")
    q = poly_from_terms(b, poly_to_terms(p))
    assert q.algebra is b and poly_to_terms(q) == poly_to_terms(p) and str(q) == str(p)


MIXED_EVEN = ("x", "y", "z")
big_monomials = st.tuples(
    st.lists(st.tuples(st.sampled_from(MIXED_EVEN), st.integers(1, 1 << 30)),
             unique_by=lambda pair: pair[0], max_size=3).map(lambda pairs: tuple(sorted(pairs))),
    monomials.map(lambda key: key[1]),
)


@given(st.permutations(MIXED_EVEN + ODD_GENS), raw_polys(keys=big_monomials), raw_polys(keys=big_monomials))
@settings(max_examples=200, deadline=None)
def test_terms_round_trip_over_mixed_declaration_orders(order, raw_a, raw_b):
    """Even and odd generators interleaved in any declaration order, exponents
    up to 2**30: terms survive poly_to_terms/poly_from_terms, and a product
    matches the reference, or raises where one of its exponents reaches 2**31."""
    alg = Algebra("interleaved")
    for name in order:
        alg.declare(name, Parity.EVEN if name in MIXED_EVEN else Parity.ODD)
    a, b = (poly_from_terms(alg, _as_terms(raw)) for raw in (raw_a, raw_b))
    _assert_matches(a, _ref(raw_a))
    assert poly_from_terms(alg, poly_to_terms(a)) == a
    for key, c in _ref(raw_a).items():
        assert a.coefficient(key) == c
    product = _ref_mul(_ref(raw_a), _ref(raw_b))
    if any(exp >= BOUND for even, _ in product for _, exp in even):
        with pytest.raises(SuperRingError, match="exponent"):
            a * b
    else:
        _assert_matches(a * b, product)


# -- the point memo ------------------------------------------------------------
#
# GrassmannPoint.evaluate keeps the images of generator powers and factor
# prefixes in one slot, keyed by (point, sign rule): polynomials evaluated back
# to back at one point share them, and the next point frees them.


def _random_point(alg, rng, n_units=4):
    """Even generators go to a rational body plus a random even soul, odd ones
    to a random sum of units, so prefixes take Koszul signs and cancellations."""
    lam = grassmann_algebra(n_units)
    units = [lam.gen(f"th{i}") for i in range(1, n_units + 1)]
    assignment = {}
    for g in alg.generators():
        pairs = [(rng.choice((-1, 0, 1)), th) for th in units]
        if g.parity is Parity.EVEN:
            pairs = [(c, th * units[0]) for c, th in pairs[1:]]
            pairs.append((Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)), lam.one()))
        assignment[g.name] = linear_combination(lam, pairs)
    return GrassmannPoint(alg, assignment, n_units=n_units)


@given(st.integers(0, 10 ** 6), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_point_memo_agrees_with_memo_free_substitution(seed, count):
    """A run of polynomials evaluated at points A, B, then A again gives what
    a substitution with fresh memos gives."""
    import random

    rng = random.Random(seed)
    alg, *_ = _mixed_algebra()
    polys = [_random_poly(alg, rng) for _ in range(count)]
    a, b = _random_point(alg, rng), _random_point(alg, rng)
    for point in (a, b, a):
        for p in polys:
            assert point.evaluate(p) == p.substitute(point.assignment, point.target)


def test_point_memo_is_keyed_by_the_sign_rule(monkeypatch):
    """A sign rule installed after a warm-up at the same point gets a fresh
    memo: the memoized prefix t1 t2 -> th2 th1 takes the new rule's sign."""
    import superimm.superring as superring

    alg, x, y, t1, t2, t3 = _mixed_algebra()
    lam = grassmann_algebra(4)
    th1, th2, th3 = (lam.gen(f"th{i}") for i in range(1, 4))
    pt = GrassmannPoint(alg, {"t1": th2, "t2": th1, "t3": th3})
    p = t1 * t2 * t3
    assert pt.evaluate(p) == -(th1 * th2 * th3)
    original = superring.merge_odd_parts
    monkeypatch.setattr(superring, "merge_odd_parts", lambda a, b: (1, original(a, b)[1]))
    assert pt.evaluate(p) == th1 * th2 * th3
    monkeypatch.setattr(superring, "merge_odd_parts", original)
    assert pt.evaluate(p) == -(th1 * th2 * th3)


def test_point_memo_keeps_no_failed_image(mixed):
    """A missing generator raises on every call, after the memo has filled
    the prefixes before it."""
    alg, x, y, t1, t2, t3 = mixed
    lam = grassmann_algebra(4)
    pt = GrassmannPoint(alg, {"x": lam.scalar(2), "t1": lam.gen("th1")})
    for _ in range(3):
        with pytest.raises(EvaluationError, match="no value assigned to generator 'y'"):
            pt.evaluate(x ** 2 * y * t1)
    assert pt.evaluate(x ** 2 * t1) == 4 * lam.gen("th1")


def test_point_memo_frees_the_last_point_at_the_next(mixed):
    import weakref

    alg, x, y, t1, t2, t3 = mixed
    lam = grassmann_algebra(4)
    p = x * t1 + y
    first = GrassmannPoint(alg, {"x": lam.scalar(2), "y": lam.scalar(3), "t1": lam.gen("th1")})
    first.evaluate(p)
    gone = weakref.ref(first)
    del first
    assert gone() is not None  # the slot holds the point it serves
    GrassmannPoint(alg, {"x": lam.scalar(1), "y": lam.scalar(1), "t1": lam.gen("th2")}).evaluate(p)
    assert gone() is None


def test_point_memo_builds_each_power_and_prefix_once(monkeypatch):
    """The six normalized immanant sums with |lambda| <= 3 at a seeded (2|2)
    point (144 terms) take 56 products through the point's memo, 142 with a
    fresh memo per polynomial."""
    from superimm.immanants import generator_matrix, normalized_immanant_sum
    from superimm.superring import SuperPoly
    from superimm.tableaux import partitions
    from superimm.verify import random_grassmann_point

    x = generator_matrix(2, 2)
    sums = [normalized_immanant_sum(lam, x) for r in range(1, 4) for lam in partitions(r)]
    point = random_grassmann_point(2, 2, 20240614)
    original, calls = SuperPoly.__mul__, []

    def spy(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(SuperPoly, "__mul__", spy)
    alone = [s.substitute(point.assignment, point.target) for s in sums]
    assert len(calls) == 142
    calls.clear()
    assert [point.evaluate(s) for s in sums] == alone
    assert len(calls) == 56


# -- the alphabet memo and the hash it is keyed by -----------------------------
#
# supersym.evaluate_two_alphabets keeps one (powers, prefixes) memo, keyed by
# (first values, second values, target, sign rule): the Schur polynomials
# evaluated back to back at one point's eigenvalues share it, and the next
# alphabets free it.  The key hashes every value, so a non-constant SuperPoly
# hashes its stored numerators and denominator, never building a Fraction.


def _random_even_values(rng, count, n_units=4):
    """Rational bodies plus random sums of +-th_a th_b, so prefixes of
    products carry souls that multiply and cancel."""
    lam = grassmann_algebra(n_units)
    units = [lam.gen(f"th{i}") for i in range(1, n_units + 1)]
    pairs = [units[a] * units[b] for a in range(n_units) for b in range(a + 1, n_units)]
    return tuple(linear_combination(lam, [(rng.choice((-1, 0, 1)), p) for p in pairs]
                                    + [(Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)), lam.one())])
                 for _ in range(count))


@given(st.integers(0, 10 ** 6), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_alphabet_memo_agrees_with_memo_free_substitution(seed, count):
    """A run of polynomials evaluated at alphabets A, B, then at a rebuilt copy
    of A gives what a substitution with fresh memos gives."""
    import random

    from superimm.supersym import evaluate_two_alphabets, sym_algebra

    rng = random.Random(seed)
    alg, lam = sym_algebra(2, 2), grassmann_algebra(4)
    polys = [_random_poly(alg, rng) for _ in range(count)]
    a, b = ((_random_even_values(rng, 2), _random_even_values(rng, 2)) for _ in range(2))
    copy = tuple(tuple(linear_combination(lam, [(1, v)]) for v in values) for values in a)
    for first, second in (a, b, copy):
        images = {"u1": first[0], "u2": first[1], "v1": second[0], "v2": second[1]}
        for p in polys:
            assert evaluate_two_alphabets(p, first, second, lam) == p.substitute(images, lam)


def test_alphabet_memo_is_keyed_by_the_sign_rule(monkeypatch):
    """A sign rule installed after a warm-up at the same alphabets gets a fresh
    memo: the memoized prefix u1 u2 -> th1 th2 th3 th4 takes the new rule's sign."""
    import superimm.superring as superring
    from superimm.supersym import evaluate_two_alphabets, sym_algebra

    alg, lam = sym_algebra(2, 1), grassmann_algebra(4)
    th1, th2, th3, th4 = (lam.gen(f"th{i}") for i in range(1, 5))
    p = alg.gen("u1") * alg.gen("u2") * alg.gen("v1")
    alphabets = ((th1 * th2, th3 * th4), (lam.scalar(2),), lam)
    top = th1 * th2 * th3 * th4
    assert evaluate_two_alphabets(p, *alphabets) == 2 * top
    original = superring.merge_odd_parts
    monkeypatch.setattr(superring, "merge_odd_parts", lambda a, b: (-original(a, b)[0], original(a, b)[1]))
    assert evaluate_two_alphabets(p, *alphabets) == -2 * top
    monkeypatch.setattr(superring, "merge_odd_parts", original)
    assert evaluate_two_alphabets(p, *alphabets) == 2 * top


def test_alphabet_memo_frees_the_last_alphabets_at_the_next():
    import weakref

    from superimm.supersym import evaluate_two_alphabets, sym_algebra

    alg, lam = sym_algebra(1, 1), grassmann_algebra(4)
    p = alg.gen("u1") * alg.gen("v1") + alg.gen("u1")
    target = Algebra("fresh")  # compatible with Lambda_4, and no cache holds it
    target.odd("th1", "th2", "th3", "th4")
    assert evaluate_two_alphabets(p, [lam.scalar(2)], [lam.gen("th1") * lam.gen("th2")], target) != 0
    gone = weakref.ref(target)
    del target
    assert gone() is not None  # the slot holds the target it serves
    evaluate_two_alphabets(p, [lam.scalar(3)], [lam.scalar(5)], lam)
    assert gone() is None


def test_alphabet_memo_builds_each_power_and_prefix_once(monkeypatch):
    """The six Schur polynomials with |lambda| <= 3 at the eigenvalues of a
    seeded (2|2) point take 17 products through the shared memo, 45 with a
    fresh memo per polynomial."""
    from superimm.immanants import diagonalize, generator_matrix
    from superimm.superring import SuperPoly
    from superimm.supersym import _alphabet_memo, evaluate_two_alphabets, schur_super
    from superimm.tableaux import partitions
    from superimm.verify import random_grassmann_point

    eigen = diagonalize(generator_matrix(2, 2).evaluate(random_grassmann_point(2, 2, 20240614)).transpose())
    first, second = eigen["even_eigenvalues"], [-w for w in eigen["odd_eigenvalues"]]
    lam = grassmann_algebra(4)
    images = {"u1": first[0], "u2": first[1], "v1": second[0], "v2": second[1]}
    schurs = [schur_super(shape, 2, 2) for r in range(1, 4) for shape in partitions(r)]
    _alphabet_memo.cache_clear()
    original, calls = SuperPoly.__mul__, []

    def spy(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(SuperPoly, "__mul__", spy)
    alone = [s.substitute(images, lam) for s in schurs]
    assert len(calls) == 45
    calls.clear()
    assert [evaluate_two_alphabets(s, first, second, lam) for s in schurs] == alone
    assert len(calls) == 17


def _built_from_generators(alg, raw):
    """sum c * (even powers) * (odd generators in name order), by + and *."""
    p = alg.zero()
    for (even, odd), c in raw.items():
        term = alg.scalar(c)
        for name in (*(name for name, exp in even for _ in range(exp)), *odd):
            term = term * alg.gen(name)
        p = p + term
    return p


@given(raw_polys(max_size=4), st.sampled_from(list(ODD_ORDERS.values())), rationals)
@example(raw={((("x", 1),), ("th1",)): Fraction(1, 2), ((), ()): Fraction(2, 3)},
         odd_order=ODD_ORDERS["reversed"], s=Fraction(-3, 2))
@settings(max_examples=200, deadline=None)
def test_equal_polys_hash_equal_across_routes_and_compatible_algebras(raw, odd_order, s):
    """Parsed terms in one algebra, and generator products summed, scaled by s
    and back, in a second algebra declared alike: equal, so equal hashes."""
    first, second = _kernel_algebra(odd_order), _kernel_algebra(odd_order)
    p = poly_from_terms(first, _as_terms(raw))
    built = _built_from_generators(second, raw)
    routes = [built, built * s * (1 / Fraction(s)) if s else built, linear_combination(second, [(1, built)])]
    for q in routes:
        assert first is not second and first.compatible(second)
        assert p == q and hash(p) == hash(q)


def test_hashing_a_non_constant_builds_no_fraction(monkeypatch):
    from superimm.superring import SuperPoly

    alg = _kernel_algebra()
    p = alg.gen("x") * Fraction(1, 2) + alg.gen("th1") * Fraction(2, 3)
    q = linear_combination(alg, [(Fraction(1, 6), 3 * alg.gen("x") + 4 * alg.gen("th1"))])
    monkeypatch.setattr(SuperPoly, "_coefficients", lambda self: pytest.fail("_coefficients called"))
    assert p._den == 6 and p == q and hash(p) == hash(q)
    assert {p: "found"}[q] == "found"


@pytest.mark.parametrize("k", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_power_exponent_must_be_an_integer(mixed, k):
    alg, x, *_ = mixed
    with pytest.raises(SuperRingError, match="^the exponent of a power must be an integer$"):
        x ** k


@pytest.mark.parametrize("n_units", [-1, 1.5, True, "2", [2]], ids=["negative", "float", "bool", "str", "list"])
def test_unit_count_must_be_a_non_negative_integer(mixed, n_units):
    alg, *_ = mixed
    grassmann_algebra(1)  # True must not read the entry for 1
    for build in (lambda: grassmann_algebra(n_units), lambda: GrassmannPoint(alg, {}, n_units)):
        with pytest.raises(SuperRingError, match="^the unit count must be an integer >= 0, got "):
            build()
