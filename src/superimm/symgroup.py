"""The rational group algebra of S_r, stored as int numerators over one denominator.

Permutation arithmetic, Jucys-Murphy elements, the primitive idempotents
attached to standard tableaux (built by spectral projection on the
Jucys-Murphy elements), and character elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as iter_permutations
from math import factorial, gcd, lcm

from superimm import tableaux
from superimm.tableaux import StandardTableau, addable_contents, character


class SymGroupError(ValueError):
    pass


class Permutation:
    """Permutation of {1..r}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise SymGroupError(f"{images} is not a permutation")

    @staticmethod
    def identity(r: int) -> "Permutation":
        return Permutation(range(1, r + 1))

    @staticmethod
    def transposition(a: int, b: int, r: int) -> "Permutation":
        if not (1 <= a <= r and 1 <= b <= r and a != b):
            raise SymGroupError(f"a transposition of 1..{r} swaps two distinct points of it, got ({a} {b})")
        images = list(range(1, r + 1))
        images[a - 1], images[b - 1] = b, a
        return Permutation(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition acting left: (s*t)(k) = s(t(k))."""
        _check_degree(other, self.degree)
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(inv)

    def cycle_type(self) -> tuple[int, ...]:
        seen = [False] * len(self.images)
        sizes = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            size = 0
            k = start
            while not seen[k - 1]:
                seen[k - 1] = True
                k = self.images[k - 1]
                size += 1
            sizes.append(size)
        return tuple(sorted(sizes, reverse=True))

    def sign(self) -> int:
        return (-1) ** (self.degree - len(self.cycle_type()))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"


def _check_degree(perm, degree: int):
    if not isinstance(perm, Permutation) or perm.degree != degree:
        raise SymGroupError(f"{perm!r} is not a permutation of degree {degree}")


MAX_DEGREE = 8  # S_9 alone has 362880 elements, and the cache keeps every degree it builds


@lru_cache(maxsize=None)
def symmetric_group(r: int) -> tuple[Permutation, ...]:
    if r > MAX_DEGREE:
        raise SymGroupError(f"S_{r} is too large to enumerate: degrees above {MAX_DEGREE} are refused")
    return tuple(Permutation(p) for p in iter_permutations(range(1, r + 1)))


@lru_cache(maxsize=None)
def _group_index(r: int) -> dict:
    """images -> permutation over S_r: a product looks its result up, unvalidated."""
    return {p.images: p for p in symmetric_group(r)}


def permutation_sum(entries, coefficient, one):
    """Sum over s in S_r of coefficient(s) * prod_i entries[i][s(i)], for a
    square grid of pairwise commuting elements of a ring whose unit is `one`,
    walked depth first in lexicographic order: permutations that agree on the
    first rows share those rows' product, and a zero product drops them all."""
    index = _group_index(len(entries))
    return _expand(entries, coefficient, index, (), tuple(range(1, len(entries) + 1)), one, one * 0)


def _expand(entries, coefficient, index, images, free, term, acc):
    """acc plus the terms of the permutations that send the rows taken so far
    to `images`, with product `term`, and the other rows to the columns `free`."""
    if not free:
        c = coefficient(index[images])
        return acc + (term if c == 1 else -term if c == -1 else term * c) if c else acc
    row = entries[len(images)]
    for pos, j in enumerate(free):
        entry = row[j - 1]
        if entry.is_zero:
            continue
        product = term * entry if images else entry
        if not product.is_zero:
            acc = _expand(entries, coefficient, index, images + (j,),
                          free[:pos] + free[pos + 1:], product, acc)
    return acc


def commuting_determinant(entries, one):
    """Permutation-sum determinant of a square grid of pairwise commuting
    elements; `one` for the empty grid."""
    return permutation_sum(entries, Permutation.sign, one)


class GroupAlgebraElement:
    """Q-linear combination of permutations of a fixed degree: nonzero int `numerators`
    over one positive `denominator`, reduced (1 for zero); `terms` shows Fractions."""

    __slots__ = ("degree", "numerators", "denominator")

    def __init__(self, degree: int, terms: dict | None = None):
        for p in terms or ():
            _check_degree(p, degree)
        coeffs = {p: Fraction(c) for p, c in (terms or {}).items() if c}
        den = lcm(*(c.denominator for c in coeffs.values()))  # so already reduced
        self.degree, self.denominator = degree, den
        self.numerators = {p: c.numerator * (den // c.denominator) for p, c in coeffs.items()}

    @staticmethod
    def one(degree: int) -> "GroupAlgebraElement":
        return GroupAlgebraElement(degree, {Permutation.identity(degree): 1})

    @staticmethod
    def of(perm: Permutation) -> "GroupAlgebraElement":
        return GroupAlgebraElement(perm.degree, {perm: 1})

    def _check(self, other):
        if self.degree != other.degree:
            raise SymGroupError("mixed degrees")

    @property
    def terms(self) -> dict:
        return {p: Fraction(c, self.denominator) for p, c in self.numerators.items()}

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = other * GroupAlgebraElement.one(self.degree)
        elif not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check(other)
        den = lcm(self.denominator, other.denominator)
        scale, other_scale = den // self.denominator, den // other.denominator
        nums = {p: c * scale for p, c in self.numerators.items()}
        for p, c in other.numerators.items():
            nums[p] = nums.get(p, 0) + c * other_scale
        return _reduced(self.degree, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.degree, {p: -c for p, c in self.numerators.items()}, self.denominator)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, GroupAlgebraElement)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            nums = {p: c * other.numerator for p, c in self.numerators.items()}
            return _reduced(self.degree, nums, self.denominator * other.denominator)
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check(other)
        right = [(tuple(j - 1 for j in q.images), c) for q, c in other.numerators.items()]
        acc: dict = {}
        for p, cp in self.numerators.items():
            image = p.images.__getitem__
            for slots, cq in right:
                pq = tuple(map(image, slots))
                acc[pq] = acc.get(pq, 0) + cp * cq
        index = _group_index(self.degree)
        nums = {index[pq]: c for pq, c in acc.items()}
        return _reduced(self.degree, nums, self.denominator * other.denominator)

    __rmul__ = __mul__  # reached only for a non-element left operand

    def star(self) -> "GroupAlgebraElement":
        """The involution sending each permutation to its inverse."""
        nums = {p.inverse(): c for p, c in self.numerators.items()}
        return _reduced(self.degree, nums, self.denominator)

    def coefficient(self, p: Permutation) -> Fraction:
        return Fraction(self.numerators.get(p, 0), self.denominator)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    def __eq__(self, other):
        return isinstance(other, GroupAlgebraElement) and (
            (self.degree, self.denominator, self.numerators)
            == (other.degree, other.denominator, other.numerators))

    def __hash__(self):
        return hash((self.degree, self.denominator, frozenset(self.numerators.items())))

    def __repr__(self):
        if not self.numerators:
            return "0"
        bits = [f"{c}*{p.images}" for p, c in sorted(self.terms.items(), key=lambda t: t[0].images)]
        return " + ".join(bits)


def _reduced(degree: int, nums: dict, den: int) -> GroupAlgebraElement:
    """int numerators `nums` over the positive `den`, zeros and common factor dropped."""
    g = gcd(den, *nums.values())  # den itself for zero
    elem = object.__new__(GroupAlgebraElement)
    elem.degree, elem.denominator = degree, den // g
    elem.numerators = {p: c // g for p, c in nums.items() if c}
    return elem


def jucys_murphy(k: int, r: int) -> GroupAlgebraElement:
    """y_k = sum of the transpositions (a,k) for a < k; y_1 = 0."""
    if not 1 <= k <= r:
        raise SymGroupError(f"k={k} out of range for degree {r}")
    return GroupAlgebraElement(r, {Permutation.transposition(a, k, r): 1 for a in range(1, k)})


@lru_cache(maxsize=None)
def jm_factors(tab: StandardTableau) -> tuple:
    """The (y_k - c, c_k - c) pairs whose quotients multiply to E_T: step k
    kills each other content c that entry k could take after the shape of
    1..k-1.  The y_k commute (Okounkov and Vershik, Selecta Math. 2 (1996)),
    so the factors may act in any order."""
    r = tab.size
    out = []
    shape_below: list[int] = []
    for k in range(1, r + 1):
        ck = tab.content(k)
        if k > 1:
            yk = jucys_murphy(k, r)
            for c in addable_contents(tuple(shape_below)):
                if c != ck:
                    out.append((yk - c, ck - c))
        i, _ = tab.position(k)
        if i == len(shape_below):
            shape_below.append(1)
        else:
            shape_below[i] += 1
    return tuple(out)


@lru_cache(maxsize=None)
def primitive_idempotent(tab: StandardTableau) -> GroupAlgebraElement:
    """Spectral projector onto the Jucys-Murphy eigenline labelled by the
    tableau, built as the product of its `jm_factors`."""
    out = GroupAlgebraElement.one(tab.size)
    for factor, gap in jm_factors(tab):
        out = out * factor * Fraction(1, gap)
    return out


def character_element(shape) -> GroupAlgebraElement:
    """Sum of chi(s) * s over the group."""
    shape = tableaux.normalize_partition(shape)
    r = sum(shape)
    return GroupAlgebraElement(r, {p: character(shape, p.cycle_type()) for p in symmetric_group(r)})


def central_idempotent(shape) -> GroupAlgebraElement:
    """(dim/r!) times the character element; squares to itself."""
    shape = tableaux.normalize_partition(shape)
    r = sum(shape)
    return character_element(shape) * Fraction(tableaux.dimension(shape), factorial(r))
