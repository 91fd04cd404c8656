"""Second routes kept for the tests: the primitive idempotent built as an
element of the group algebra and applied to every arrangement of a multiset,
where the library applies its Jucys-Murphy factors to the semistandard keys."""

from superimm import ratlinalg
from superimm.immanants import chain_coefficient
from superimm.superring import linear_combination
from superimm.symgroup import primitive_idempotent
from superimm.tensorspace import apply_group_algebra_to_state, tensor_weight


def arrangements(multiset) -> tuple[tuple[int, ...], ...]:
    """The distinct orderings of a multiset of indices, in lexicographic order:
    the basis tensors of its weight slice."""
    if not multiset:
        return ((),)
    out = []
    for i in sorted(set(multiset)):
        rest = list(multiset)
        rest.remove(i)
        out.extend((i,) + tail for tail in arrangements(rest))
    return tuple(out)


def dense_image(tab, multiset, m: int) -> list:
    """The nonzero vectors E_T|K> over every arrangement K of the multiset,
    E_T built in the group algebra."""
    e = primitive_idempotent(tab)
    vectors = (apply_group_algebra_to_state(e, {key: 1}, m) for key in arrangements(multiset))
    return [vec for vec in vectors if vec]


def rows_of(vectors) -> list:
    """The vectors as rows over the sorted union of their keys."""
    coords = sorted({k for vec in vectors for k in vec})
    return [[vec.get(k, 0) for k in coords] for vec in vectors]


def dense_image_trace(tab, x, multiset):
    """Supertrace of X_1...X_r on the image of the built E_T in the weight
    slice of the multiset, read off the reduced echelon basis of the dense
    image."""
    vectors = dense_image(tab, multiset, x.m)
    if not vectors:
        return x.algebra.zero()
    coords = sorted({k for vec in vectors for k in vec})
    red, pivots = ratlinalg.rref(rows_of(vectors))
    acc = linear_combination(x.algebra, ((c, chain_coefficient(x, coords[pivot], key))
                                         for row, pivot in zip(red, pivots)
                                         for key, c in zip(coords, row) if c))
    return -acc if tensor_weight(multiset, x.m) < 0 else acc
