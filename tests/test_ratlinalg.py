import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from superimm import ratlinalg


def _mat_mul(p, q):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*q)] for row in p]


def _expanded(roots):
    """Coefficients of prod (t - d), highest degree first."""
    poly = [Fraction(1)]
    for d in roots:
        poly = [a - d * b for a, b in zip(poly + [Fraction(0)], [Fraction(0)] + poly)]
    return poly


def test_char_poly_of_similar_diagonal_matrices():
    rng = random.Random(11)
    values = [Fraction(p, q) for q in (1, 2, 3) for p in range(-6, 7)]
    for size in range(5):
        for _ in range(5):
            while True:
                p = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
                try:
                    p_inv = ratlinalg.inv(p)
                except ZeroDivisionError:
                    continue
                break
            roots = rng.sample(sorted(set(values)), size)
            diag = [[roots[i] if i == j else Fraction(0) for j in range(size)] for i in range(size)]
            mat = _mat_mul(_mat_mul(p, diag), p_inv)
            assert ratlinalg.char_poly(mat) == _expanded(roots)
    assert ratlinalg.char_poly([]) == [1]


def test_char_poly_of_a_jordan_block():
    for a in (Fraction(0), Fraction(3), Fraction(-5, 2)):
        assert ratlinalg.char_poly([[a, 1], [0, a]]) == [1, -2 * a, a * a]


_small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@given(
    st.lists(_small_rationals, max_size=5),
    _small_rationals.filter(bool),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_rational_roots_recovers_the_linear_factors(roots, lead, irrational):
    """lead * prod (t - d), times t^2 - 2 or not: the roots come back as the
    same multiset, and the polynomial splits exactly when t^2 - 2 is absent."""
    poly = [lead * c for c in _expanded(roots)]
    if irrational:
        poly = [a - 2 * b for a, b in zip(poly + [0, 0], [0, 0] + poly)]
    found, fully_split = ratlinalg.rational_roots(poly)
    assert sorted(found) == sorted(roots)
    assert fully_split is not irrational


def _fraction_gauss_jordan(mat):
    """Reduced row echelon form by Gauss-Jordan over Fractions, pivot rows
    scaled to 1 as they are found; (rows, pivot columns), zero rows last."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


@st.composite
def _matrices(draw):
    """Rational rows, some followed by combinations of earlier rows (which
    eliminate to zero), and some zero rows; ints and Fractions mixed."""
    ncols = draw(st.integers(0, 5))
    row = st.lists(_small_rationals, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            a, b = draw(_small_rationals), draw(_small_rationals)
            first, second = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([a * x + b * y for x, y in zip(first, second)])
        else:
            rows.append([0] * ncols)
    order = draw(st.permutations(range(len(rows))))
    as_ints = draw(st.booleans())
    return [[int(x) if as_ints and x.denominator == 1 else Fraction(x) for x in rows[i]]
            for i in order]


@given(_matrices())
@example([])
@example([[]])
@example([[0, 0, 0]])
@example([[0, 0], [0, 0]])
@example([[Fraction(-3, 2), 4, 0, Fraction(1, 3)]])
@example([[-2, 4], [1, -2]])
@example([[0, -3, 6], [0, 2, -4], [-5, 1, 0]])
@settings(max_examples=300, deadline=None)
def test_fraction_free_rref_matches_fraction_gauss_jordan(mat):
    """Same rows, all Fractions, and same pivots as Gauss-Jordan over
    Fractions: random rows, rows that are or become zero, negative pivots, a
    1 x n matrix, all-zero and empty matrices."""
    rows, pivots = ratlinalg.rref(mat)
    assert (rows, pivots) == _fraction_gauss_jordan(mat)
    assert all(type(x) is Fraction for row in rows for x in row)
    assert ratlinalg.rank(mat) == len(pivots)
