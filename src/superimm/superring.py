"""Exact arithmetic in free supercommutative algebras over the rationals.

Generators carry a Z2 parity.  Even generators are central; odd generators
anticommute pairwise and square to zero.  A monomial is kept in normal form
as one int key (one bit per odd generator and a 32-bit exponent field per
even one, in declaration order, the reordering sign of its odd factors into
that order absorbed into the coefficient), so polynomial equality is a
dictionary comparison and a product's key is the sum of its factors' keys.
Every public view shows the factors sorted by name, with the sign of that order.

Also provides truncated power series over such an algebra, finite Grassmann
algebras Lambda_N as evaluation targets, a small expression grammar for
ingesting polynomials, and a JSON-able term serialization.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Mapping


class SuperRingError(ValueError):
    """Base class for errors raised by this module."""


class AlgebraMismatchError(SuperRingError):
    """Operands belong to different generator contexts."""


class EvaluationError(SuperRingError):
    """A generator has no assigned value."""


class NotInvertibleError(SuperRingError):
    """Element (or series constant term) has no inverse."""


class ParseError(SuperRingError):
    """Malformed expression text."""


class Parity(enum.IntEnum):
    EVEN = 0
    ODD = 1


@dataclass(frozen=True)
class Generator:
    name: str
    parity: Parity


_EXP_LIMIT = 1 << 31  # the top bit of a 32-bit exponent field is a guard: exponents stay below it
_FIELD = (_EXP_LIMIT << 1) - 1


class Algebra:
    """A generator context: a set of named generators with parities."""

    def __init__(self, label: str = ""):
        self.label = label
        self._gens: dict[str, Generator] = {}
        self._bit: dict[str, int] = {}  # odd generator -> its key bit
        self._shift: dict[str, int] = {}  # even generator -> the lowest bit of its exponent field
        self._odd = 0  # the key bits of all odd generators
        self._guard = 0  # the top bit of every exponent field
        self._shown: dict[int, tuple] = {}  # memo of _factors

    def declare(self, name: str, parity: Parity) -> "SuperPoly":
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise SuperRingError(f"invalid generator name {name!r}")
        existing = self._gens.get(name)
        if existing is not None:
            if existing.parity != parity:
                raise SuperRingError(f"generator {name!r} already declared with other parity")
        else:
            self._gens[name] = Generator(name, Parity(parity))
            width = max(self._odd, self._guard).bit_length()  # the key bits allotted so far
            if parity == Parity.ODD:
                self._bit[name] = 1 << width
                self._odd |= 1 << width
            else:
                self._shift[name] = width
                self._guard |= _EXP_LIMIT << width
        return self.gen(name)

    def even(self, *names: str):
        polys = tuple(self.declare(n, Parity.EVEN) for n in names)
        return polys[0] if len(polys) == 1 else polys

    def odd(self, *names: str):
        polys = tuple(self.declare(n, Parity.ODD) for n in names)
        return polys[0] if len(polys) == 1 else polys

    def gen(self, name: str) -> "SuperPoly":
        key = self._bit[name] if self._gens[name].parity == Parity.ODD else 1 << self._shift[name]
        return SuperPoly(self, {key: 1})

    def parity_of(self, name: str) -> Parity:
        return self._gens[name].parity

    def generators(self) -> tuple[Generator, ...]:
        return tuple(self._gens.values())

    def __contains__(self, name: str) -> bool:
        return name in self._gens

    def compatible(self, other: "Algebra") -> bool:
        """Same generators in the same declaration order, hence the same key layout."""
        return self is other or list(self._gens.values()) == list(other._gens.values())

    def _factors(self, key: int) -> tuple:
        """(sign, even, odd, head, last) for the monomial `key`: its even part
        as name-sorted (generator, exponent) pairs, its odd part as sorted
        names, the sign that reorders the odd part from bit order into name
        order, and its factors, the even pairs then (name, 1) for each odd
        name, split into all but the last and a tuple of the last (empty for 1)."""
        shown = self._shown.get(key)
        if shown is None:
            even = tuple(sorted((name, key >> shift & _FIELD) for name, shift in self._shift.items()
                                if key >> shift & _FIELD))
            in_bit_order = [name for name, bit in self._bit.items() if key & bit]
            swaps = sum(a > b for a, b in combinations(in_bit_order, 2))
            odd = tuple(sorted(in_bit_order))
            factors = (*even, *((name, 1) for name in odd))
            shown = self._shown[key] = (-1 if swaps % 2 else 1, even, odd, factors[:-1], factors[-1:])
        return shown

    def _key(self, even, odd) -> tuple:
        """(sign, key) for the monomial (even, odd) as `_factors` shows it, its
        inverse; (0, 0) unless both parts name distinct generators of their
        parity in name order, with exponents in 1..2**31 - 1."""
        even, odd, key = tuple(map(tuple, even)), tuple(odd), 0
        for name, exp in even:
            if name not in self._shift or exp.__class__ is not int or not 0 < exp < _EXP_LIMIT:
                return 0, 0
            key += exp << self._shift[name]
        key += sum(self._bit.get(name, 0) for name in odd)  # an unknown name fails the round trip
        sign, shown_even, shown_odd, *_ = self._factors(key)
        return (sign, key) if (shown_even, shown_odd) == (even, odd) else (0, 0)

    def __repr__(self):
        return f"Algebra({self.label or len(self._gens)} gens)"

    def zero(self) -> "SuperPoly":
        return SuperPoly(self, {})

    def one(self) -> "SuperPoly":
        return self.scalar(1)

    def scalar(self, c) -> "SuperPoly":
        return _monomial(self, _ONE, c)


def _monomial(algebra: Algebra, key, c) -> "SuperPoly":
    """The rational c times the monomial `key`."""
    if c.__class__ is not int:
        c = Fraction(c)
        if c.denominator != 1:
            return SuperPoly(algebra, {key: c.numerator}, c.denominator)
        c = c.numerator
    return SuperPoly(algebra, {key: c} if c else {})


def _reduced(algebra: Algebra, terms: dict, den: int) -> "SuperPoly":
    """The SuperPoly with numerators `terms` (no zeros) over the positive `den`,
    the common factor of den and the numerators divided out."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return SuperPoly(algebra, terms, den)


def _reduced_product(algebra: Algebra, terms: dict, den: int) -> "SuperPoly":
    """`_reduced` for summed keys: exponents stay below their field's guard bit,
    so a sum of two never carries into the next field, and one reaching it raises."""
    if algebra._guard and any(key & algebra._guard for key in terms):
        raise SuperRingError(
            f"an exponent reached {_EXP_LIMIT}, the bound of a monomial's exponent field")
    return _reduced(algebra, terms, den)


@lru_cache(maxsize=None)
def merge_odd_parts(a: int, b: int):
    """Multiply two odd parts stored as bitmasks, tracking the Koszul sign.

    Each generator of b moves left past the generators of a on higher bits,
    so the sign is the parity of the pairs (i in a, j in b) with i > j.
    Returns (sign, a | b); sign 0 means a generator repeats and the term dies.
    Memoized per mask pair: a product kernel meets the same few pairs often.
    """
    if a & b:
        return 0, 0
    union, swaps = a | b, 0
    while a and b:
        low = b & -b
        swaps += (a & -(low << 1)).bit_count()  # the bits of a above low
        b ^= low
    return -1 if swaps & 1 else 1, union


def _accumulate(terms: dict, left: dict, right: dict, scale: int, odd: int) -> None:
    """Add scale * left * right (numerator dicts) into `terms`, dropping sums
    that cancel; `odd` masks the algebra's odd key bits.  A pair sharing an
    odd generator dies before the sign rule, and a live pair's key is ka + kb.
    The sign rule is the module's `merge_odd_parts` at call time, so a
    replaced one skips the memo."""
    merge = merge_odd_parts
    for ka, ca in left.items():
        ca *= scale
        oa = ka & odd
        for kb, cb in right.items():
            ob = kb & odd
            if oa & ob:
                continue
            p = ca * cb
            if oa and ob and merge(oa, ob)[0] < 0:
                p = -p
            key = ka + kb
            s = terms.get(key, 0) + p
            if s:
                terms[key] = s
            else:
                del terms[key]


def sum_of_products(zero, pairs):
    """The sum of a * b over the (a, b) pairs, `zero` when there are none.
    SuperPoly pairs accumulate in one pass over one common denominator,
    reduced once; other rings (truncated series) add product by product."""
    if zero.__class__ is not SuperPoly:
        acc = None
        for a, b in pairs:
            if not a.is_zero and not b.is_zero:
                acc = a * b if acc is None else acc + a * b
        return zero if acc is None else acc
    algebra = zero.algebra
    pairs = [(a, b) for a, b in pairs if a._terms and b._terms]
    if len(pairs) < 2:  # one product keeps the constant-operand shortcuts of `*`
        return pairs[0][0] * pairs[0][1] if pairs else zero
    for a, b in pairs:
        if a.algebra is not algebra or b.algebra is not algebra:
            zero._check(a)
            zero._check(b)
    den = lcm(*(a._den * b._den for a, b in pairs))
    terms: dict = {}
    for a, b in pairs:
        _accumulate(terms, a._terms, b._terms, den // (a._den * b._den), algebra._odd)
    return _reduced_product(algebra, terms, den)


def linear_combination(algebra: Algebra, pairs) -> "SuperPoly":
    """The sum of c * p over the (c, p) pairs of a rational c and a SuperPoly p
    of `algebra`, in one pass over one common denominator, reduced once."""
    pairs = [(c, p) for c, p in pairs if c and p._terms]
    if not all(algebra.compatible(p.algebra) for _, p in pairs):
        raise AlgebraMismatchError("operands come from different algebras")
    den = lcm(*(c.denominator * p._den for c, p in pairs))
    terms: dict = {}
    for c, p in pairs:
        scale = c.numerator * (den // (c.denominator * p._den))
        for key, v in p._terms.items():
            terms[key] = terms.get(key, 0) + v * scale
    return _reduced(algebra, {key: v for key, v in terms.items() if v}, den)


def odd_degree_parts(p: "SuperPoly") -> dict:
    """{d: the part of p whose monomials have d odd factors}, nonzero parts only."""
    parts: dict = {}
    odd = p.algebra._odd
    for key, c in p._terms.items():
        parts.setdefault((key & odd).bit_count(), {})[key] = c
    return {d: _reduced(p.algebra, terms, p._den) for d, terms in parts.items()}


_ONE = 0  # the key of the constant monomial


class SuperPoly:
    """Element of a free supercommutative Q-algebra, in normal form.

    Terms map monomial key -> nonzero int numerator, all over one positive
    denominator `_den`, kept reduced: gcd(_den, *numerators) == 1, and
    _den == 1 for zero.  A key is an int with one bit per odd generator and
    one exponent field per even one (see `Algebra.declare`), the monomial
    being their product in declaration order; 0 is the constant.  `terms`,
    `coefficient`, `str` and the term serialization show name-sorted even and
    odd parts, with the sign of name order.  Instances are treated as immutable.
    """

    __slots__ = ("algebra", "_terms", "_den")

    def __init__(self, algebra: Algebra, terms: dict, den: int = 1):
        self.algebra = algebra
        self._terms = terms
        self._den = den

    # -- structure queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _coefficients(self):
        """(key, coefficient) pairs, each coefficient an int when its
        denominator is 1, else a Fraction."""
        den = self._den
        if den == 1:
            return self._terms.items()
        return [(k, c // den if c % den == 0 else Fraction(c, den)) for k, c in self._terms.items()]

    def terms(self):
        """Deterministically ordered (even, odd, coefficient) triples: name-sorted
        tuples of (generator, exponent) pairs and of odd generator names."""
        shown = [(self.algebra._factors(key), c) for key, c in self._coefficients()]
        return sorted((even, odd, sign * c) for (sign, even, odd, *_), c in shown)

    def coefficient(self, key) -> Fraction:
        """Coefficient of the monomial key (even_part, odd_part), both
        name-sorted tuples as `terms` shows them; 0 if absent."""
        sign, packed = self.algebra._key(*key)
        return Fraction(sign * self._terms.get(packed, 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get(_ONE, 0), self._den)

    def parity(self):
        """Parity if homogeneous (0, 1, or 0 for the zero poly); None if mixed."""
        odd = self.algebra._odd
        parities = {(key & odd).bit_count() % 2 for key in self._terms}
        if not parities:
            return Parity.EVEN
        if len(parities) > 1:
            return None
        return Parity(parities.pop())

    def homogeneous_parts(self):
        """Pair (even_part, odd_part) of this polynomial."""
        even = {}
        odd = {}
        odd_bits = self.algebra._odd
        for key, c in self._terms.items():
            (odd if (key & odd_bits).bit_count() % 2 else even)[key] = c
        return _reduced(self.algebra, even, self._den), _reduced(self.algebra, odd, self._den)

    # -- ring operations -------------------------------------------------------

    def _check(self, other: "SuperPoly"):
        if not self.algebra.compatible(other.algebra):
            raise AlgebraMismatchError("operands come from different algebras")

    def __add__(self, other):
        if other.__class__ is not SuperPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.algebra.scalar(other)
        self._check(other)
        den = lcm(self._den, other._den)  # both sides rescaled to the common denominator
        scale, other_scale = den // self._den, den // other._den
        terms = dict(self._terms) if scale == 1 else {k: c * scale for k, c in self._terms.items()}
        for key, c in other._terms.items():
            s = terms.get(key, 0) + c * other_scale
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
        return _reduced(self.algebra, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly(self.algebra, {k: -c for k, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, (SuperPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        left, den = self._terms, self._den
        num = None  # set when the product only scales `left` by num / scale
        if other.__class__ is SuperPoly:
            self._check(other)
            right = other._terms
            if len(right) == 1 and _ONE in right:  # a constant operand only scales the other
                num, scale = right[_ONE], other._den
            elif len(left) == 1 and _ONE in left:
                left, den, num, scale = right, other._den, left[_ONE], den
        elif isinstance(other, (int, Fraction)):
            num, scale = other.numerator, other.denominator
        else:
            return NotImplemented
        if num is not None:
            if num == 0:
                return SuperPoly(self.algebra, {})
            if num == scale == 1:
                return SuperPoly(self.algebra, left, den)
            return _reduced(self.algebra, {k: c * num for k, c in left.items()}, den * scale)
        terms: dict = {}
        _accumulate(terms, left, right, 1, self.algebra._odd)
        return _reduced_product(self.algebra, terms, den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        """By repeated squaring, so an exponent past the bound raises within 2 log2(k) products."""
        if k.__class__ is not int:  # bool included
            raise SuperRingError("the exponent of a power must be an integer")
        if k < 0:
            raise SuperRingError("negative powers are not defined")
        if k == 0:
            return self.algebra.one()
        half = self ** (k >> 1)
        return half * half * self if k & 1 else half * half

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return (self.algebra.compatible(other.algebra) and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self):  # a constant hashes like the rational it equals
        if self._terms.keys() <= {_ONE}:
            return hash(self.constant_term())
        return hash((self._den, frozenset(self._terms.items())))  # compatible algebras share key layouts

    # -- substitution ----------------------------------------------------------

    def substitute(self, images: Mapping[str, "SuperPoly"], target: Algebra,
                   memo: tuple | None = None) -> "SuperPoly":
        """Ring homomorphism determined by generator images.

        Odd factors are substituted in name order, with the stored
        coefficient taken to that order's sign.  `memo`, a (powers, prefixes)
        pair of dicts, keeps the images of generator powers and factor
        prefixes across calls with the same images, target and sign rule.
        """
        # loops, not recursion: a closure reaching itself would leave a cycle per call
        powers, prefixes = ({}, {(): target.one()}) if memo is None else memo

        def power(factor):  # images[name] ** exp for the factor (name, exp), built once per memo
            if (value := powers.get(factor)) is None:
                name, exp = factor
                if name not in images:
                    raise EvaluationError(f"no value assigned to generator {name!r}")
                value = images[name]
                if not target.compatible(value.algebra):
                    raise AlgebraMismatchError(f"the image of {name!r} is not in the target algebra")
                for e in range(1, exp + 1):
                    if (name, e) not in powers:
                        powers[name, e] = value if e == 1 else powers[name, e - 1] * value
                value = powers[factor]
            return value

        def prefix(factors):  # the image of the product of `factors`, built once per memo
            if (head := prefixes.get(factors)) is None:
                i = len(factors) - 1
                while (head := prefixes.get(factors[:i])) is None:
                    i -= 1
                for i in range(i + 1, len(factors) + 1):
                    head = prefixes[factors[:i]] = head if head.is_zero else head * power(factors[i - 1])
            return head

        images_of_terms = []
        factors_of = self.algebra._factors
        for key, c in self._terms.items():
            sign, _, _, head, last = factors_of(key)
            head = prefix(head)
            if not head.is_zero:
                images_of_terms.append((sign * c, head, power(*last) if last else head))
        den = lcm(*(head._den * last._den for _, head, last in images_of_terms))
        terms: dict = {}
        for c, head, last in images_of_terms:
            scale = c * (den // (head._den * last._den))
            _accumulate(terms, head._terms, last._terms, scale, target._odd)
        return _reduced_product(target, terms, self._den * den)

    # -- inverses ----------------------------------------------------------------

    def inverse_of_unit(self) -> "SuperPoly":
        """Inverse of body + nilpotent soul; every soul term must be nilpotent.

        Nilpotency is certified by each soul term containing an odd generator,
        which bounds the Neumann series by the number of distinct odd names.
        """
        body = self.constant_term()
        if body == 0:
            raise NotInvertibleError("constant term is zero")
        soul = self - body
        odd, odd_bits = self.algebra._odd, 0
        for key in soul._terms:
            if not key & odd:
                raise NotInvertibleError("soul contains a non-nilpotent term")
            odd_bits |= key & odd
        inv_body = Fraction(1) / body
        out = self.algebra.scalar(inv_body)
        power = self.algebra.one()
        for _ in range(odd_bits.bit_count()):
            power = power * soul * (-inv_body)
            if power.is_zero:
                break
            out = out + power * inv_body
        return out

    # -- display ----------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        bits = []
        for even, odd, c in self.terms():
            factors = []
            for name, exp in even:
                factors.append(name if exp == 1 else f"{name}^{exp}")
            factors.extend(odd)
            if not factors:
                body = str(c)
            elif c == 1:
                body = "*".join(factors)
            elif c == -1:
                body = "-" + "*".join(factors)
            else:
                body = f"{c}*" + "*".join(factors)
            bits.append(body)
        text = " + ".join(bits)
        return text.replace("+ -", "- ")

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


MAX_ORDER = 1000  # series of a (1|1) matrix of numbers: 1.3 s at order 1000, 10 s at 2000


def _padded(items, pad, order: int):
    """The first order + 1 items, then `pad`; lazy, so the order is checked first."""
    items = list(items)
    for k in range(order + 1):
        yield items[k] if k < len(items) else pad


class TruncatedSeries:
    """Power series in one formal variable, truncated at an explicit order.

    Arithmetic never reads or writes coefficients beyond the truncation
    order; combining two series truncates to the smaller order.
    """

    __slots__ = ("algebra", "coeffs", "order")

    def __init__(self, algebra: Algebra, coeffs: Iterable[SuperPoly], order: int):
        if order.__class__ is not int:  # bool included
            raise SuperRingError("truncation order must be an integer")
        if order < 0:
            raise SuperRingError("truncation order must be >= 0")
        if order > MAX_ORDER:
            raise SuperRingError(f"truncation order must be at most {MAX_ORDER}")
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise SuperRingError("need exactly order+1 coefficients")
        self.algebra = algebra
        self.coeffs = tuple(coeffs)
        self.order = order

    @staticmethod
    def from_scalars(algebra: Algebra, values, order: int) -> "TruncatedSeries":
        return TruncatedSeries(algebra, map(algebra.scalar, _padded(values, 0, order)), order)

    @staticmethod
    def from_polys(algebra: Algebra, polys, order: int) -> "TruncatedSeries":
        return TruncatedSeries(algebra, _padded(polys, algebra.zero(), order), order)

    @staticmethod
    def one(algebra: Algebra, order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_scalars(algebra, [1], order)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def coefficient(self, k: int) -> SuperPoly:
        if k < 0:
            raise SuperRingError(f"coefficient index {k} is negative")
        if k > self.order:
            raise SuperRingError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncatedSeries(
            self.algebra,
            [a if b.is_zero else b if a.is_zero else a + b
             for a, b in zip(self.coeffs[: order + 1], other.coeffs)],
            order,
        )

    def __neg__(self):
        return TruncatedSeries(self.algebra, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, TruncatedSeries) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SuperPoly)):
            return TruncatedSeries(self.algebra, [c * other for c in self.coeffs], self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        coeffs = [None] * (order + 1)
        right = [(j, b) for j, b in enumerate(other.coeffs[: order + 1]) if not b.is_zero]
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a.is_zero:
                continue
            for j, b in right:
                if i + j > order:
                    break
                acc = coeffs[i + j]
                coeffs[i + j] = a * b if acc is None else acc + a * b
        zero = self.algebra.zero()
        return TruncatedSeries(self.algebra, [zero if c is None else c for c in coeffs], order)

    def __rmul__(self, other):
        """other * self, each coefficient multiplied on the left: for odd
        elements this differs in sign from self * other."""
        if isinstance(other, (int, Fraction, SuperPoly)):
            return TruncatedSeries(self.algebra, [other * c for c in self.coeffs], self.order)
        return NotImplemented

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse to the same truncation order."""
        try:
            c0 = self.coeffs[0].inverse_of_unit()
        except NotInvertibleError as exc:
            raise NotInvertibleError(f"series constant term not invertible: {exc}") from exc
        coeffs = [c0]
        zero = self.algebra.zero()
        for k in range(1, self.order + 1):
            acc = sum_of_products(zero, zip(self.coeffs[1 : k + 1], coeffs[::-1]))
            coeffs.append(-(c0 * acc))
        return TruncatedSeries(self.algebra, coeffs, self.order)

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries(self.algebra, [self.algebra.zero()], 0)
        return TruncatedSeries(
            self.algebra,
            [self.coeffs[k] * k for k in range(1, self.order + 1)],
            self.order - 1,
        )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __str__(self):
        bits = [f"({c})*t^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero]
        return " + ".join(bits) if bits else "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Grassmann algebras and evaluation points
# ---------------------------------------------------------------------------


def grassmann_algebra(n_units: int) -> Algebra:
    """The finite Grassmann algebra on anticommuting units th1..thN."""
    if n_units.__class__ is not int or n_units < 0:  # bool included
        raise SuperRingError(f"the unit count must be an integer >= 0, got {n_units!r}")
    return _grassmann_algebra(n_units)


@lru_cache(maxsize=None)
def _grassmann_algebra(n_units: int) -> Algebra:
    alg = Algebra(f"Lambda_{n_units}")
    for i in range(1, n_units + 1):
        alg.declare(f"th{i}", Parity.ODD)
    return alg


class GrassmannPoint:
    """A parity-respecting assignment of generators to Lambda_N elements."""

    def __init__(self, source: Algebra, assignment: Mapping[str, SuperPoly], n_units: int = 4):
        self.n_units = n_units
        self.source = source
        self.target = grassmann_algebra(n_units)
        self.assignment = dict(assignment)
        for name, value in self.assignment.items():
            if name not in source:
                raise EvaluationError(f"{name!r} is not a generator of the source algebra")
            if not value.algebra.compatible(self.target):
                raise EvaluationError(f"value for {name!r} does not live in Lambda_{n_units}")
            want = source.parity_of(name)
            got = value.parity()
            if not value.is_zero and got != want:
                raise EvaluationError(f"value for {name!r} has parity {got}, expected {want}")

    def evaluate(self, p: SuperPoly) -> SuperPoly:
        if not p.algebra.compatible(self.source):
            raise AlgebraMismatchError("polynomial does not belong to the point's algebra")
        return p.substitute(self.assignment, self.target, _point_memo(self, merge_odd_parts))


@lru_cache(maxsize=1)
def _point_memo(point: GrassmannPoint, merge) -> tuple:
    """The (powers, prefixes) memo of `substitute` for the last point
    evaluated under the sign rule `merge`; one slot, freed at the next point."""
    return {}, {(): point.target.one()}


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at position {pos}: {text[pos:]!r}")
            break
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("ident", m.group(2)))
        else:
            tokens.append((m.group(3), None))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


def parse_poly(algebra: Algebra, text: str) -> SuperPoly:
    """Parse `integers, p/q rationals, generators, + - * ( )` into a SuperPoly."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx][0]

    def advance():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def expr():
        node = term()
        while peek() in "+-":
            op, _ = advance()
            rhs = term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term():
        node = factor()
        while peek() == "*":
            advance()
            node = node * factor()
        if peek() == "/":
            raise ParseError("'/' only forms p/q rationals of two integers")
        return node

    def factor():
        if peek() == "-":
            advance()
            return -factor()
        return atom()

    def atom():
        kind, value = advance()
        if kind == "num":
            if peek() == "/":
                advance()
                dk, dv = advance()
                if dk != "num":
                    raise ParseError("expected an integer denominator")
                if dv == 0:
                    raise ParseError("zero denominator")
                return algebra.scalar(Fraction(value, dv))
            return algebra.scalar(value)
        if kind == "ident":
            if value not in algebra:
                raise ParseError(f"unknown generator {value!r}")
            return algebra.gen(value)
        if kind == "(":
            node = expr()
            k, _ = advance()
            if k != ")":
                raise ParseError("expected ')'")
            return node
        raise ParseError(f"unexpected token {kind!r}")

    try:
        node = expr()
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None
    if peek() != "end":
        raise ParseError(f"trailing input from token {idx}")
    return node


# ---------------------------------------------------------------------------
# Term serialization
# ---------------------------------------------------------------------------


def poly_to_terms(p: SuperPoly) -> list[dict]:
    """Serialize to a list of {coefficient, even, odd} dicts (deterministic order)."""
    return [
        {
            "coefficient": f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator),
            "even": [[name, exp] for name, exp in even],
            "odd": list(odd),
        }
        for even, odd, c in p.terms()
    ]


def poly_from_terms(algebra: Algebra, terms: Iterable[Mapping]) -> SuperPoly:
    """The inverse of `poly_to_terms`; a term off the normal form raises SuperRingError."""
    out = algebra.zero()
    for t in terms:
        even = t.get("even", [])
        odd = tuple(t.get("odd", []))
        for parity, names in ((Parity.EVEN, [name for name, _ in even]), (Parity.ODD, odd)):
            for name in names:
                if name not in algebra or algebra.parity_of(name) != parity:
                    raise SuperRingError(f"{name!r} is not an {parity.name.lower()} generator")
        sign, key = algebra._key(sorted(even, key=lambda pair: pair[0]), odd)
        if not sign:
            raise SuperRingError("a term must list distinct generators, the odd ones in name order, "
                                 f"with exponents in 1..{_EXP_LIMIT - 1}")
        term = _monomial(algebra, key, t["coefficient"])
        out = out + (term if sign > 0 else -term)
    return out
