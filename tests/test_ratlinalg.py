import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

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
