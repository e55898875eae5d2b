"""Differential tests: `Fan.__init__`'s array normalisation of the maximal
cones against the per-cone loop it replaced.

`reference_cones` is that loop: each cone read with `operator.index`,
sorted, checked for length, repeats and range, then all cones sorted and
checked for duplicates.  On any input, valid or not, both give the same
cones or raise the same exception type with the same message.  The inputs
are Python lists (ragged, with floats, Python and NumPy bools and ints
beyond int64) and NumPy arrays of several integer, float and bool dtypes.
"""

import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsplit.fan import Fan

SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def reference_cones(dim, count, max_cones):
    """The maximal cones as the per-cone loop normalised them."""
    cones = []
    for cone in max_cones:
        try:
            c = tuple(sorted(map(operator.index, cone)))
        except TypeError:
            raise ValueError(f"cone indices must be integers, got {cone!r}") from None
        if len(c) != dim or len(set(c)) != dim:
            raise ValueError(f"maximal cone {c} must consist of {dim} distinct rays")
        if c and (c[0] < 0 or c[-1] >= count):
            raise ValueError(f"cone {c} references a ray out of range")
        cones.append(c)
    cones.sort()
    for a, b in zip(cones, cones[1:]):
        if a == b:
            raise ValueError(f"duplicate maximal cone {a}")
    return tuple(cones)


def rays_of(dim, count):
    """`count` distinct primitive rays in dimension `dim` (two on a line)."""
    if dim == 1:
        return [(1,), (-1,)][:count]
    return [(1, i) + (0,) * (dim - 2) for i in range(count)]


def outcome(make):
    try:
        return "cones", make()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_same(dim, count, cones):
    rays = rays_of(dim, count)
    got = outcome(lambda: Fan(dim, rays, cones).max_cones)
    assert got == outcome(lambda: reference_cones(dim, len(rays), cones))
    if got[0] == "cones":
        fan = Fan(dim, rays, cones)
        assert fan.cone_indices.dtype == np.intp
        assert fan.cone_indices.tolist() == [list(c) for c in fan.max_cones]


@st.composite
def shapes(draw):
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 2)) if dim == 1 else draw(st.integers(1, 7))
    return dim, count


def index(count):
    """A ray index, usually in range, sometimes just outside it."""
    return st.one_of(st.integers(0, count - 1), st.integers(-2, count + 1))


@st.composite
def cone_lists(draw):
    dim, count = draw(shapes())
    odd_entry = st.one_of(st.booleans(), st.booleans().map(np.bool_),
                          st.floats(-1, count, allow_nan=False),
                          st.integers(2 ** 63, 2 ** 65))
    entry = st.one_of(index(count), odd_entry) if draw(st.booleans()) else index(count)
    width = st.integers(max(dim - 1, 0), dim + 1) if draw(st.booleans()) else st.just(dim)
    cone = width.flatmap(lambda w: st.lists(entry, min_size=w, max_size=w))
    cones = draw(st.lists(cone, max_size=12))
    if cones and draw(st.booleans()):
        cones.append(list(draw(st.sampled_from(cones))))  # a duplicate cone
    return dim, count, cones


@st.composite
def cone_arrays(draw):
    dim, count = draw(shapes())
    dtype = draw(st.sampled_from([np.int8, np.int32, np.int64, np.uint8, np.uint64,
                                  np.float64, np.bool_]))
    low = 0 if np.dtype(dtype).kind in "ub" else -2
    width = draw(st.sampled_from([dim, dim, dim, dim + 1]))
    rows = draw(st.lists(st.lists(st.integers(low, count + 1), min_size=width,
                                  max_size=width), max_size=12))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    cones = np.array(rows, dtype=np.int64).reshape(-1, width)
    if np.dtype(dtype).kind == "u" and len(rows) and draw(st.booleans()):
        cones = cones.astype(dtype)
        cones[draw(st.integers(0, len(rows) - 1)), 0] = np.iinfo(dtype).max
    return dim, count, cones.astype(dtype)


@SETTINGS
@given(cone_lists())
def test_lists_match_the_loop(case):
    assert_same(*case)


@SETTINGS
@given(cone_arrays())
def test_arrays_match_the_loop(case):
    assert_same(*case)


def test_examples_reach_every_branch():
    dp3 = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    cones = [[i, (i + 1) % 6] for i in range(6)]
    for bad, message in [
            ([[0, 1], [1]], "maximal cone (1,) must consist of 2 distinct rays"),
            ([[0, 1], [2, 2]], "maximal cone (2, 2) must consist of 2 distinct rays"),
            ([[0, 1], [6, 1]], "cone (1, 6) references a ray out of range"),
            ([[0, 1], [-1, 1]], "cone (-1, 1) references a ray out of range"),
            ([[0, 1], [1, 0]], "duplicate maximal cone (0, 1)"),
            ([[0, 1.0]], "cone indices must be integers, got [0, 1.0]"),
            ([[0, 2 ** 63]], f"cone (0, {2 ** 63}) references a ray out of range"),
            (np.array([[1, 0], [1, 0]]), "duplicate maximal cone (0, 1)"),
            (np.array([[1, 0], [1, 1]]), "maximal cone (1, 1) must consist of 2 distinct rays"),
            (np.array([[0, 1]], dtype=np.uint64) - np.uint64(1),
             f"cone (0, {2 ** 64 - 1}) references a ray out of range"),
            (np.array([[True, False]]),
             "cone indices must be integers, got array([ True, False])"),
            ([[np.True_, 2], [2, 3], [3, 4], [4, 5], [0, 5], [0, 1]],
             f"cone indices must be integers, got {[np.True_, 2]!r}")]:
        assert outcome(lambda: Fan(2, dp3, bad).max_cones) == (ValueError, message)
        assert outcome(lambda: reference_cones(2, 6, bad)) == (ValueError, message)
    expected = outcome(lambda: reference_cones(2, 6, cones))
    for given_cones in (cones, np.array(cones, dtype=np.int8), np.array(cones)[::-1],
                        (tuple(c) for c in cones), [[True, 2], [2, 3], [3, 4], [4, 5],
                                                    [0, 5], [0, True]]):
        fan = Fan(2, dp3, given_cones)
        assert ("cones", fan.max_cones) == expected
        assert fan.cone_indices.tolist() == [list(c) for c in expected[1]]
