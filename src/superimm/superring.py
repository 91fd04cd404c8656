"""Exact arithmetic in free supercommutative algebras over the rationals.

Generators carry a Z2 parity.  Even generators are central; odd generators
anticommute pairwise and square to zero.  A monomial is kept in normal form
(even factors sorted by name; odd factors stored as a bitmask, one bit per odd
generator in declaration order, the reordering sign into that bit order
absorbed into the coefficient), so polynomial equality is a dictionary
comparison.  Every public view shows the odd factors sorted by name, with the
sign of that order.

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


class Algebra:
    """A generator context: a set of named generators with parities."""

    def __init__(self, label: str = ""):
        self.label = label
        self._gens: dict[str, Generator] = {}
        self._bit: dict[str, int] = {}  # odd generator -> its bit, in declaration order
        self._shown: dict[int, tuple] = {}  # memo of _odd_names

    def declare(self, name: str, parity: Parity) -> "SuperPoly":
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise SuperRingError(f"invalid generator name {name!r}")
        existing = self._gens.get(name)
        if existing is not None:
            if existing.parity != parity:
                raise SuperRingError(f"generator {name!r} already declared with other parity")
        else:
            self._gens[name] = Generator(name, Parity(parity))
            if parity == Parity.ODD:
                self._bit[name] = 1 << len(self._bit)
        return self.gen(name)

    def even(self, *names: str):
        polys = tuple(self.declare(n, Parity.EVEN) for n in names)
        return polys[0] if len(polys) == 1 else polys

    def odd(self, *names: str):
        polys = tuple(self.declare(n, Parity.ODD) for n in names)
        return polys[0] if len(polys) == 1 else polys

    def gen(self, name: str) -> "SuperPoly":
        g = self._gens[name]
        if g.parity == Parity.EVEN:
            key = (((name, 1),), 0)
        else:
            key = ((), self._bit[name])
        return SuperPoly(self, {key: 1})

    def parity_of(self, name: str) -> Parity:
        return self._gens[name].parity

    def generators(self) -> tuple[Generator, ...]:
        return tuple(self._gens.values())

    def __contains__(self, name: str) -> bool:
        return name in self._gens

    def compatible(self, other: "Algebra") -> bool:
        """Same generators, and the same odd declaration order (the bit order)."""
        return self is other or (self._gens == other._gens and list(self._bit) == list(other._bit))

    def _odd_names(self, mask: int) -> tuple:
        """(sign, names) for the odd part stored as `mask`: its generators in
        name order, and the sign that reorders their product from bit order
        into name order."""
        shown = self._shown.get(mask)
        if shown is None:
            in_bit_order = [name for name, bit in self._bit.items() if mask & bit]
            swaps = sum(a > b for a, b in combinations(in_bit_order, 2))
            shown = self._shown[mask] = (-1 if swaps % 2 else 1, tuple(sorted(in_bit_order)))
        return shown

    def _odd_mask(self, names) -> tuple:
        """(sign, mask) for an odd part given as names in name order, the
        inverse of `_odd_names`; (0, 0) unless the names are distinct odd
        generators in name order."""
        mask = sum({self._bit.get(name, 0) for name in names})  # the union of distinct bits
        sign, shown = self._odd_names(mask)
        return (sign, mask) if shown == tuple(names) else (0, 0)

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


def _merge_even(a: tuple, b: tuple) -> tuple:
    exps: dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _accumulate(terms: dict, left: dict, right: dict, scale: int) -> None:
    """Add scale * left * right (numerator dicts) into `terms`, dropping sums
    that cancel.  A pair sharing an odd generator dies before the sign rule;
    a side with no odd (or no even) factors needs no merge.  The sign rule is
    the module's `merge_odd_parts` at call time, so a replaced one skips the memo."""
    merge = merge_odd_parts
    for (ea, oa), ca in left.items():
        ca *= scale
        for (eb, ob), cb in right.items():
            if oa & ob:
                continue
            p = ca * cb
            if oa and ob:
                sign, odd = merge(oa, ob)
                if sign < 0:
                    p = -p
            else:
                odd = oa | ob
            key = (_merge_even(ea, eb) if ea and eb else ea or eb, odd)
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
        _accumulate(terms, a._terms, b._terms, den // (a._den * b._den))
    return _reduced(algebra, terms, den)


def odd_degree_parts(p: "SuperPoly") -> dict:
    """{d: the part of p whose monomials have d odd factors}, nonzero parts only."""
    parts: dict = {}
    for key, c in p._terms.items():
        parts.setdefault(key[1].bit_count(), {})[key] = c
    return {d: _reduced(p.algebra, terms, p._den) for d, terms in parts.items()}


_ONE = ((), 0)  # the key of the constant monomial


class SuperPoly:
    """Element of a free supercommutative Q-algebra, in normal form.

    Terms map (even_part, odd_part) -> nonzero int numerator, all over one
    positive denominator `_den`, kept reduced: gcd(_den, *numerators) == 1,
    and _den == 1 for zero.  even_part is a sorted tuple of (generator,
    exponent) and odd_part an int bitmask of odd generators, the monomial
    being their product in bit (declaration) order.  `terms`, `coefficient`,
    `str` and the term serialization show odd parts as name-sorted tuples
    with the sign of name order.  Instances are treated as immutable.
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
        """Deterministically ordered (even, odd, coefficient) triples, odd a
        name-sorted tuple of generator names."""
        shown = [(e, self.algebra._odd_names(o), c) for (e, o), c in self._coefficients()]
        return sorted((e, names, sign * c) for e, (sign, names), c in shown)

    def coefficient(self, key) -> Fraction:
        """Coefficient of the monomial key (even_part, odd_part), odd_part a
        name-sorted tuple of names; 0 if absent."""
        sign, mask = self.algebra._odd_mask(key[1])
        return Fraction(sign * self._terms.get((key[0], mask), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get(_ONE, 0), self._den)

    def parity(self):
        """Parity if homogeneous (0, 1, or 0 for the zero poly); None if mixed."""
        parities = {o.bit_count() % 2 for (_, o) in self._terms}
        if not parities:
            return Parity.EVEN
        if len(parities) > 1:
            return None
        return Parity(parities.pop())

    def homogeneous_parts(self):
        """Pair (even_part, odd_part) of this polynomial."""
        even = {}
        odd = {}
        for key, c in self._terms.items():
            (odd if key[1].bit_count() % 2 else even)[key] = c
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
        _accumulate(terms, left, right, 1)
        return _reduced(self.algebra, terms, den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise SuperRingError("negative powers are not defined")
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

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
        return hash(frozenset(self._coefficients()))

    # -- substitution ----------------------------------------------------------

    def substitute(self, images: Mapping[str, "SuperPoly"], target: Algebra) -> "SuperPoly":
        """Ring homomorphism determined by generator images.

        Odd factors are substituted in name order, with the stored
        coefficient taken to that order's sign.
        """
        powers: dict = {}

        def power(name, exp):  # images[name] ** exp, built once per call
            if (name, exp) not in powers:
                if name not in images:
                    raise EvaluationError(f"no value assigned to generator {name!r}")
                value = images[name]
                if exp > 1:
                    value = power(name, exp - 1) * value
                elif not target.compatible(value.algebra):
                    raise AlgebraMismatchError(f"the image of {name!r} is not in the target algebra")
                powers[name, exp] = value
            return powers[name, exp]

        prefixes: dict = {(): target.one()}

        def prefix(factors):  # the image of the product of `factors`, built once per call
            if factors not in prefixes:
                head = prefix(factors[:-1])
                prefixes[factors] = head if head.is_zero else head * power(*factors[-1])
            return prefixes[factors]

        images_of_terms = []
        odd_names = self.algebra._odd_names
        for (even, odd), c in self._terms.items():
            sign, names = odd_names(odd)
            factors = (*even, *((name, 1) for name in names))
            head = prefix(factors[:-1])
            if not head.is_zero:
                images_of_terms.append((sign * c, head, power(*factors[-1]) if factors else head))
        den = lcm(*(head._den * last._den for _, head, last in images_of_terms))
        terms: dict = {}
        for c, head, last in images_of_terms:
            _accumulate(terms, head._terms, last._terms, c * (den // (head._den * last._den)))
        return _reduced(target, terms, self._den * den)

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
        odd_bits = 0
        for _, o in soul._terms:
            if not o:
                raise NotInvertibleError("soul contains a non-nilpotent term")
            odd_bits |= o
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


class TruncatedSeries:
    """Power series in one formal variable, truncated at an explicit order.

    Arithmetic never reads or writes coefficients beyond the truncation
    order; combining two series truncates to the smaller order.
    """

    __slots__ = ("algebra", "coeffs", "order")

    def __init__(self, algebra: Algebra, coeffs: Iterable[SuperPoly], order: int):
        coeffs = list(coeffs)
        if order < 0:
            raise SuperRingError("truncation order must be >= 0")
        if len(coeffs) != order + 1:
            raise SuperRingError("need exactly order+1 coefficients")
        self.algebra = algebra
        self.coeffs = tuple(coeffs)
        self.order = order

    @staticmethod
    def from_scalars(algebra: Algebra, values, order: int) -> "TruncatedSeries":
        values = list(values) + [0] * (order + 1 - len(values))
        return TruncatedSeries(algebra, [algebra.scalar(v) for v in values[: order + 1]], order)

    @staticmethod
    def from_polys(algebra: Algebra, polys, order: int) -> "TruncatedSeries":
        polys = list(polys) + [algebra.zero()] * (order + 1 - len(polys))
        return TruncatedSeries(algebra, polys[: order + 1], order)

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


@lru_cache(maxsize=None)
def grassmann_algebra(n_units: int) -> Algebra:
    """The finite Grassmann algebra on anticommuting units th1..thN."""
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
        return p.substitute(self.assignment, self.target)


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
    out = algebra.zero()
    for t in terms:
        even = tuple(sorted((name, int(exp)) for name, exp in t.get("even", [])))
        odd = tuple(t.get("odd", []))
        for parity, names in ((Parity.EVEN, [name for name, _ in even]), (Parity.ODD, odd)):
            for name in names:
                if name not in algebra or algebra.parity_of(name) != parity:
                    raise SuperRingError(f"{name!r} is not an {parity.name.lower()} generator")
        sign, mask = algebra._odd_mask(odd)
        if not sign:
            raise SuperRingError("odd part must list distinct generators in name order")
        term = _monomial(algebra, (even, mask), t["coefficient"])
        out = out + (term if sign > 0 else -term)
    return out
