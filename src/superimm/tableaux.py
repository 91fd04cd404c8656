"""Partitions, tableaux, hook/super-hook combinatorics, and S_r characters.

Covers standard and semistandard super tableaux, Kostka numbers with their
inverse, and irreducible symmetric-group characters via the border-strip
(Murnaghan-Nakayama) recursion.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, inf


class TableauxError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def normalize_partition(parts) -> tuple[int, ...]:
    if parts.__class__ is tuple:  # already normal: positive ints, weakly decreasing
        prev = inf
        for p in parts:
            if p.__class__ is not int or not 0 < p <= prev:
                break
            prev = p
        else:
            return parts
    parts = tuple(p for p in parts if p.__class__ is not int or p)
    if any(p.__class__ is not int or p < 0 for p in parts):  # bool included
        raise TableauxError(f"partition parts must be non-negative integers, got {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise TableauxError(f"{parts} is not weakly decreasing")
    return parts


@lru_cache(maxsize=None)
def partitions(r: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of r, largest-first parts, in reverse lexicographic order."""
    if max_part is None:
        max_part = r
    if r == 0:
        return ((),)
    out = []
    for first in range(min(r, max_part), 0, -1):
        for rest in partitions(r - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(shape) -> tuple[int, ...]:
    shape = tuple(shape)
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > i) for i in range(shape[0]))


def part(shape, i: int) -> int:
    """1-based part access with zero padding."""
    return shape[i - 1] if 1 <= i <= len(shape) else 0


def in_hook(shape, m: int, n: int) -> bool:
    """Whether the shape lies in the (m,n) fat hook."""
    return part(tuple(shape), m + 1) <= n


def hook_partitions(m: int, n: int, r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(lam for lam in partitions(r) if in_hook(lam, m, n))


def hook_product(shape) -> int:
    """Product of the hook lengths of the shape."""
    shape = normalize_partition(shape)
    conj = conjugate(shape)
    h = 1
    for i, row in enumerate(shape):
        for j in range(row):
            h *= row - j + conj[j] - i - 1
    return h


def dimension(shape) -> int:
    """Number of standard tableaux: r!/h(shape)."""
    shape = normalize_partition(shape)
    r = sum(shape)
    return factorial(r) // hook_product(shape) if shape else 1


# ---------------------------------------------------------------------------
# Standard tableaux
# ---------------------------------------------------------------------------


class StandardTableau:
    """Bijective filling of a shape by 1..r, increasing along rows and columns."""

    __slots__ = ("rows", "_positions")

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)
        seen = sorted(x for row in self.rows for x in row)
        r = len(seen)
        if seen != list(range(1, r + 1)):
            raise TableauxError("entries must be exactly 1..r")
        for row in self.rows:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                raise TableauxError("rows must strictly increase")
        for i in range(len(self.rows) - 1):
            if len(self.rows[i + 1]) > len(self.rows[i]):
                raise TableauxError("shape must be a partition")
            for j in range(len(self.rows[i + 1])):
                if self.rows[i][j] >= self.rows[i + 1][j]:
                    raise TableauxError("columns must strictly increase")
        self._positions = {}
        for i, row in enumerate(self.rows):
            for j, k in enumerate(row):
                self._positions[k] = (i, j)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return len(self._positions)

    def position(self, k: int) -> tuple[int, int]:
        return self._positions[k]

    def content(self, k: int) -> int:
        i, j = self._positions[k]
        return j - i

    def __eq__(self, other):
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "/".join("".join(f"[{k}]" for k in row) for row in self.rows)


# The caches below are keyed by checked arguments: True == 1 and 2.0 == 2 hash
# alike, so a warm entry would answer for an input that is refused cold.


def standard_tableaux(shape) -> tuple[StandardTableau, ...]:
    """All standard tableaux of the shape: its fillings by r distinct even letters."""
    return _standard_tableaux(normalize_partition(shape))


@lru_cache(maxsize=None)
def _standard_tableaux(shape: tuple[int, ...]) -> tuple[StandardTableau, ...]:
    r = sum(shape)
    return tuple(map(StandardTableau, semistandard_super_tableaux(shape, r, 0, (1,) * r)))


def row_reading_tableau(shape) -> StandardTableau:
    """Shape filled row by row with 1..r."""
    shape = normalize_partition(shape)
    rows, k = [], 1
    for row_len in shape:
        rows.append(tuple(range(k, k + row_len)))
        k += row_len
    return StandardTableau(rows)


def addable_contents(shape) -> tuple[int, ...]:
    """Contents of the boxes that can be appended to the shape."""
    shape = tuple(shape)
    out = []
    for i in range(len(shape) + 1):
        row = part(shape, i + 1)
        above = part(shape, i) if i > 0 else None
        if above is None or row < above:
            out.append(row - i)
    return tuple(out)


# ---------------------------------------------------------------------------
# Semistandard super tableaux
# ---------------------------------------------------------------------------


def is_semistandard_super(rows, m: int, n: int) -> bool:
    """Super semistandardness: weak rows/columns, even entries strict down
    columns, odd entries strict along rows."""
    rows = tuple(tuple(row) for row in rows)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if not 1 <= e <= m + n:
                return False
            if j + 1 < len(row):
                nxt = row[j + 1]
                if nxt < e or (nxt == e and e > m):
                    return False
            if i + 1 < len(rows) and j < len(rows[i + 1]):
                below = rows[i + 1][j]
                if below < e or (below == e and e <= m):
                    return False
    return True


def _check_weight(weight, letters: int | None = None) -> tuple[int, ...]:
    """The weight as a tuple of non-negative ints, `letters` of them if given."""
    weight = tuple(weight)
    if any(a.__class__ is not int or a < 0 for a in weight):  # bool included
        raise TableauxError(f"weight entries must be non-negative integers, got {weight}")
    if letters is not None and len(weight) != letters:
        raise TableauxError(f"weight needs one multiplicity per letter, {letters} in all")
    return weight


def semistandard_super_tableaux(shape, m: int, n: int, weight) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The (m|n)-semistandard super tableaux of the shape in which letter a
    appears weight[a-1] times, filled letter by letter: an even letter
    (a <= m) adds a horizontal strip and an odd letter a vertical strip
    (Berele and Regev, Adv. Math. 64 (1987), section 2)."""
    shape = normalize_partition(shape)
    weight = _check_weight(weight, m + n)
    r = sum(shape)
    if sum(weight) != r:
        raise TableauxError("weight size must match the shape")
    rows: list[list[int]] = [[] for _ in shape]
    out = []

    def fill(a, i, left, above):
        # `left` more boxes of letter a go into rows i, i+1, ...; row i grows to at
        # most `above`: the row above's length before letter a if a is even, after if odd
        if not left:
            if a == len(weight):
                out.append(tuple(tuple(row) for row in rows))
            else:
                fill(a + 1, 0, weight[a], r)
            return
        if i == len(shape):
            return
        row, odd = rows[i], a > m
        start = len(row)
        room = min(shape[i], above) - start
        for k in range(min(room, 1 if odd else left), -1, -1):
            row += [a] * k
            fill(a, i + 1, left - k, len(row) if odd else start)
            del row[start:]

    fill(0, 0, 0, r)
    return tuple(out)


def relabel_by_weight(tab: StandardTableau, weight) -> tuple[tuple[int, ...], ...]:
    """Replace entry k of a standard tableau by the k-th element of the sorted
    multiset with the given multiplicities."""
    weight = _check_weight(weight)
    if sum(weight) != tab.size:
        raise TableauxError("weight size must match the tableau")
    multiset = [i + 1 for i, a in enumerate(weight) for _ in range(a)]
    return tuple(tuple(multiset[k - 1] for k in row) for row in tab.rows)


# ---------------------------------------------------------------------------
# Kostka numbers
# ---------------------------------------------------------------------------


def kostka(lam, mu) -> int:
    """Number of classical semistandard tableaux of shape lam and weight mu."""
    return _kostka(normalize_partition(lam), _check_weight(mu))


@lru_cache(maxsize=None)
def _kostka(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    return len(semistandard_super_tableaux(lam, len(mu), 0, mu))


@lru_cache(maxsize=None)
def _inverse_kostka_table(r: int) -> dict:
    """Inverse of the Kostka matrix over partitions of r.

    Partitions are listed in reverse lexicographic order, which refines
    dominance, so the matrix is unitriangular with integer entries and
    inverts in integers by back substitution.
    """
    plist = partitions(r)
    size = len(plist)
    K = [[kostka(plist[i], plist[j]) for j in range(size)] for i in range(size)]
    inv = [[0] * size for _ in range(size)]
    for j in range(size):
        for i in range(j, -1, -1):  # K[i][i] == 1
            inv[i][j] = int(i == j) - sum(K[i][t] * inv[t][j] for t in range(i + 1, j + 1))
    return {(plist[i], plist[j]): inv[i][j] for i in range(size) for j in range(size)}


def inverse_kostka(lam, mu) -> int:
    """Entry (lam, mu) of the inverse Kostka matrix: sum_nu K[lam,nu] Kinv[nu,mu] = delta."""
    lam, mu = normalize_partition(lam), normalize_partition(mu)
    if sum(lam) != sum(mu):
        raise TableauxError("inverse_kostka requires |lam| = |mu|")
    return _inverse_kostka_table(sum(lam))[(lam, mu)]


# ---------------------------------------------------------------------------
# Characters (border-strip recursion on beta-sets)
# ---------------------------------------------------------------------------


def character(lam, cycle_type) -> int:
    """Irreducible S_r character value at a conjugacy class."""
    return _character(normalize_partition(lam), normalize_partition(cycle_type))


@lru_cache(maxsize=None)
def _character(lam: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    if sum(lam) != sum(cycle_type):
        raise TableauxError("character requires |lam| = |cycle type|")
    beta = tuple(lam[i] + (len(lam) - 1 - i) for i in range(len(lam)))
    return _mn(frozenset(beta), cycle_type)


character.cache_info = _character.cache_info  # the hit ratio, for perfbench


def _mn(beta: frozenset, remaining: tuple[int, ...]) -> int:
    if not remaining:
        return 1
    t = remaining[0]
    rest = remaining[1:]
    total = 0
    for b in beta:
        nb = b - t
        if nb >= 0 and nb not in beta:
            jumped = sum(1 for x in beta if nb < x < b)
            sub = (beta - {b}) | {nb}
            total += (-1) ** jumped * _mn(frozenset(sub), rest)
    return total


def class_size(cycle_type) -> int:
    """Conjugacy class size r!/z_rho."""
    cycle_type = normalize_partition(cycle_type)
    r = sum(cycle_type)
    z = 1
    mult: dict[int, int] = {}
    for c in cycle_type:
        mult[c] = mult.get(c, 0) + 1
    for c, k in mult.items():
        z *= c ** k * factorial(k)
    return factorial(r) // z


def induced_sign_character(mu):
    """Class function of the character induced from the sign character of the
    Young subgroup S_mu: Ind(sgn) = sgn (x) Ind(1), so its value at rho is
    the sign (-1)^(r - len(rho)) times the trivially induced one."""
    return {rho: (-1) ** (sum(rho) - len(rho)) * value
            for rho, value in induced_trivial_character(mu).items()}


def induced_trivial_character(mu):
    """Class function of the character induced from the trivial character of S_mu."""
    mu = normalize_partition(mu)
    r = sum(mu)
    kostkas = [(lam, k) for lam in partitions(r) if (k := kostka(lam, mu))]
    return {rho: sum(k * character(lam, rho) for lam, k in kostkas) for rho in partitions(r)}
