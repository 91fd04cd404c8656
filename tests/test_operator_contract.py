"""Every value type's `+`, `-`, `*` and `==` either compute or raise TypeError,
and equal values hash equal wherever a type is hashable."""

import operator
from fractions import Fraction
from itertools import product

from superimm.immanants import SuperMatrix
from superimm.superring import Algebra, TruncatedSeries
from superimm.symgroup import GroupAlgebraElement, Permutation

OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "==": operator.eq}


def _samples():
    """Values of each type from one algebra and one group degree, so that no
    pair fails on mismatched contexts; the constant 2 appears as several
    types, which exercises the hash contract across types."""
    alg = Algebra("contract")
    x = alg.even("x")
    t = alg.odd("t")
    return {
        "SuperPoly": [alg.scalar(2), x + t * 3],
        "TruncatedSeries": [TruncatedSeries.from_polys(alg, [alg.one(), t], 2)],
        "GroupAlgebraElement": [GroupAlgebraElement.one(2) * 2 + GroupAlgebraElement.of(Permutation((2, 1)))],
        "int": [2],
        "Fraction": [Fraction(2), Fraction(1, 2)],
        "SuperMatrix": [SuperMatrix(1, 1, [[x, t], [t, x]])],
    }


def test_every_operator_pair_computes_or_raises_type_error():
    values = [(kind, value) for kind, group in _samples().items() for value in group]
    broken = set()
    for ((kind_a, a), (kind_b, b)), (name, op) in product(product(values, repeat=2), OPERATORS.items()):
        try:
            result = op(a, b)
        except TypeError:
            continue
        except Exception as exc:  # any other error breaks the contract; collect them all
            broken.add(f"{kind_a} {name} {kind_b}: {type(exc).__name__}")
            continue
        if name == "==" and result is True and type(a).__hash__ and type(b).__hash__:
            if hash(a) != hash(b):
                broken.add(f"{kind_a} == {kind_b}: unequal hashes")
    assert not broken, sorted(broken)
