import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundary_oracle import rank
from toricsplit import fan as fan_mod
from toricsplit import lattice
from toricsplit.fan import Fan, fan_product, validate
from toricsplit.lattice import (
    NotSquare,
    NotUnimodular,
    adjugate,
    as_matrix,
    determinant,
    identity,
    smith_normal_form,
    solve_integral,
    unimodular_inverse,
)

# Matrices of two maximal cones of the d=3 tower fan, with known inverses.
A2 = [[0, -1, 0], [-1, 1, 0], [0, -1, 1]]
B2 = [[-1, -1, 0], [-1, 0, 0], [-1, 0, 1]]
A3 = [[1, 0, 0], [0, 0, -1], [0, 1, -1]]
B3 = [[1, 0, 0], [0, -1, 1], [0, -1, 0]]


def random_unimodular(rng, n, steps=12):
    """Product of random elementary matrices: always in GL_n(Z)."""
    m = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        k = rng.randint(-3, 3)
        m[i] = m[i] + k * m[j]
        if rng.random() < 0.3:
            m[[i, j]] = m[[j, i]]
            m[i] = -m[i]
    return m


def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def cofactor_adjugate(m):
    n = len(m)
    if n == 1:
        return [[1]]
    return [[(-1) ** (i + j) * cofactor_det([row[:i] + row[i + 1:]
                                            for k, row in enumerate(m) if k != j])
             for j in range(n)] for i in range(n)]


def random_square(rng, n, big=False):
    """A random n x n matrix; some are singular, some need a row swap."""
    bound = 2 ** 45 if big else 6
    low = 2 ** 40 if big else 0
    m = [[rng.choice((-1, 1)) * rng.randint(low, bound) for _ in range(n)]
         for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 1 and n > 1:
        # singular: the first row is a combination of two others
        j, k = rng.randrange(1, n), rng.randrange(1, n)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        m[0] = [a * x + b * y for x, y in zip(m[j], m[k])]
    elif kind == 2 and n > 1:
        # zero leading entries: the first pivots have to be swapped in
        for r in range(rng.randint(1, n - 1)):
            m[r][0] = 0
    elif kind == 3 and n > 2:
        # rank at most n - 2: the adjugate is zero
        m[1] = [3 * x for x in m[0]]
        m[2] = [-x for x in m[0]]
    return m


class TestAdjugate:
    @pytest.mark.parametrize("big", [False, True])
    def test_random_against_cofactors(self, big):
        rng = random.Random(f"adjugate/{big}")
        singular = swapped = 0
        for _ in range(120):
            n = rng.randint(1, 6)
            m = random_square(rng, n, big)
            det, adj = adjugate(m)
            a = as_matrix(m)
            assert det == cofactor_det(m)
            assert (a @ adj == det * identity(n)).all()
            assert (adj @ a == det * identity(n)).all()
            if det == 0:
                # m @ adj = 0 does not fix adj, so compare it entry by entry
                singular += 1
                assert adj.tolist() == cofactor_adjugate(m)
            swapped += m[0][0] == 0
        assert singular >= 20 and swapped >= 10, (singular, swapped)

    def test_known_values(self):
        assert adjugate([[1, 2], [3, 4]])[0] == -2
        assert adjugate([[1, 2], [3, 4]])[1].tolist() == [[4, -2], [-3, 1]]
        # a row swap is needed at once; adj = det * inverse for unimodular input
        assert adjugate([[0, 1], [1, 0]])[1].tolist() == [[0, -1], [-1, 0]]
        assert adjugate(A2)[1].tolist() == [[-x for x in row] for row in B2]
        # singular of rank n - 1: the adjugate is the nonzero cofactor matrix
        assert adjugate([[1, 2], [2, 4]])[1].tolist() == [[4, -2], [-2, 1]]
        assert adjugate([[0]])[1].tolist() == [[1]]
        assert adjugate([[0, 0], [0, 0]])[1].tolist() == [[0, 0], [0, 0]]

    def test_not_square(self):
        with pytest.raises(NotSquare):
            adjugate([[1, 2, 3], [4, 5, 6]])


def hadamard_bound(n, e):
    return (math.isqrt(n * e * e) + 1) ** n


def largest_int64_entry(n):
    """The largest e with hadamard_bound(n, e) < 2^31."""
    low, high = 0, 2 ** 31
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if hadamard_bound(n, mid) < 2 ** 31 else (low, mid)
    return low


def unit_pivot_matrix(rng, diagonal):
    """L @ diag(diagonal) @ U with L, U random unitriangular: no row swaps,
    and its j-th pivot is the product of the first j + 1 diagonal entries."""
    n = len(diagonal)
    lower, upper = identity(n), identity(n)
    for i, j in itertools.combinations(range(n), 2):
        lower[j, i], upper[i, j] = rng.randint(-1, 1), rng.randint(-1, 1)
    return (lower @ np.diag(np.array(diagonal, dtype=object)) @ upper).tolist()


@st.composite
def square_stacks(draw):
    """A stack of n x n matrices mixing nonsingular, rank n-1, rank <= n-2
    and leading-zero-pivot matrices, with the largest entry placed so that
    the Hadamard bound is below, at or above 2^31, or small."""
    n = draw(st.integers(1, 5))
    below = largest_int64_entry(n)
    top = draw(st.sampled_from([5, below, below + 1, 2 ** 40 + 3]))
    half = st.integers(-(top // 2), top // 2)
    mats = []
    for _ in range(draw(st.integers(0, 6))):
        m = [[draw(half) for _ in range(n)] for _ in range(n)]
        kind = draw(st.sampled_from(["any", "rank n-1", "rank n-2", "zero pivots"]))
        pick = st.integers(0, n - 1)
        if kind == "rank n-1" and n > 1:
            j, k = draw(pick), draw(pick)
            m[0] = [x + draw(st.sampled_from([-1, 1])) * y for x, y in zip(m[j or 1], m[k or 1])]
        elif kind == "rank n-2" and n > 2:
            rest = st.integers(2, n - 1)
            for r in (0, 1):
                j, k = draw(rest), draw(rest)
                m[r] = [x + draw(st.sampled_from([-1, 0, 1])) * y for x, y in zip(m[j], m[k])]
        elif kind == "zero pivots":
            for r in range(draw(pick) + 1):
                m[r][0] = 0
        mats.append(m)
    if mats:
        # one diagonal matrix carries the largest entry exactly
        mats.append([[top if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])
    return n, mats


class TestBareiss:
    """The batched elimination against cofactor expansion, on both dtypes."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(square_stacks())
    @example((1, [[[2 ** 31 - 1]], [[0]], [[-5]]]))  # the bound is exactly 2^31
    def test_against_cofactors(self, case):
        n, mats = case
        stack = np.array(mats, dtype=object).reshape(len(mats), n, n)
        e = max((abs(x) for m in mats for row in m for x in row), default=0)
        inputs = [stack] + ([stack.astype(np.int64)] if e < 2 ** 62 else [])
        for given_stack in inputs:
            dets, adjs = lattice._bareiss(given_stack, True)
            assert dets.dtype == (np.int64 if hadamard_bound(n, e) < 2 ** 31 else object)
            assert dets.tolist() == [cofactor_det(m) for m in mats]
            assert adjs.shape == (len(mats), n, n)
            assert adjs.tolist() == [cofactor_adjugate(m) for m in mats]
            only_dets, none = lattice._bareiss(given_stack, False)
            assert none is None and only_dets.tolist() == dets.tolist()

    @pytest.mark.parametrize("rule", ["int64", "object"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unit_pivot_steps(self, monkeypatch, rule, n):
        # the pivots of L @ diag @ U are the products of diag's prefixes: the
        # unimodular ones are +-1 at every step, one matrix brings 2 and one
        # -3 at later steps, and the zeros are singular, their previous
        # pivot reset to 1 from the step they die
        if rule == "object":
            monkeypatch.setattr(lattice, "_fits_elimination", lambda n, e: False)
        rng = random.Random(f"unit pivots/{n}")
        diagonals = [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(4)]
        for value in (2, -3):
            diagonals.append([1] * n)
            diagonals[-1][rng.randrange(1, n)] = value
        diagonals += [[1] * (n - 1) + [0], [0] + [-1] * (n - 1), [2] + [0] * (n - 1)]
        mats = [unit_pivot_matrix(rng, d) for d in diagonals]
        stack = np.array(mats, dtype=object).reshape(len(mats), n, n)
        for given_stack in (stack, stack.astype(np.int64)):
            dets, adjs = lattice._bareiss(given_stack, True)
            assert dets.dtype == (np.int64 if rule == "int64" else object)
            assert dets.tolist() == [cofactor_det(m) for m in mats] == [math.prod(d) for d in diagonals]
            assert adjs.tolist() == [cofactor_adjugate(m) for m in mats]
            assert lattice._bareiss(given_stack, False)[0].tolist() == dets.tolist()
            # each matrix alone: no other matrix's pivot decides its steps
            for m, det, adj in zip(given_stack, dets.tolist(), adjs.tolist()):
                alone = lattice._bareiss(m[None], True)
                assert (alone[0].tolist(), alone[1].tolist()) == ([det], [adj])

    def test_threshold(self):
        # a 1 x 1 matrix reaches the bound 2^31 exactly at 2^31 - 1
        assert largest_int64_entry(1) == 2 ** 31 - 2
        assert hadamard_bound(1, 2 ** 31 - 1) == 2 ** 31


class TestDeterminant:
    def test_identity(self):
        assert determinant(identity(3)) == 1

    def test_known_values(self):
        assert determinant([[2, 0], [0, 4]]) == 8
        assert determinant(A2) == -1
        assert determinant(A3) == 1
        assert determinant([[1, 2], [2, 4]]) == 0

    def test_not_square(self):
        with pytest.raises(NotSquare):
            determinant([[1, 2, 3], [4, 5, 6]])

    def test_matches_cofactor_expansion(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert determinant(m) == cofactor_det(m)


class TestUnimodularInverse:
    def test_identity(self):
        assert (unimodular_inverse(identity(3)) == identity(3)).all()

    def test_cone_matrix_fixtures(self):
        assert unimodular_inverse(A2).tolist() == B2
        assert unimodular_inverse(A3).tolist() == B3

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = random_unimodular(rng, n)
            inv = unimodular_inverse(m)
            assert (m @ inv == identity(n)).all()
            assert (inv @ m == identity(n)).all()

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            unimodular_inverse([[1, 0, 0], [0, 1, 0]])

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            unimodular_inverse([[2, 0], [0, 1]])
        with pytest.raises(NotUnimodular):
            unimodular_inverse([[1, 2], [2, 4]])


class TestSmithNormalForm:
    def check(self, m):
        m = as_matrix(m)
        u, s, v = smith_normal_form(m)
        assert (u @ m @ v == s).all()
        # unimodular transforms
        unimodular_inverse(u)
        unimodular_inverse(v)
        diag = [s[i, i] for i in range(min(s.shape))]
        for i in range(min(s.shape)):
            for j in range(min(s.shape)):
                if i != j:
                    assert s[i, j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        return diag

    def test_identity(self):
        assert self.check(identity(2)) == [1, 1]

    def test_divisibility_example(self):
        # d1 = gcd of entries = 2 and d1*d2 = |det| = 8, so diag(2, 4)
        assert self.check([[2, 4], [6, 8]]) == [2, 4]

    def test_unimodular_input(self):
        # |det A2| = 1 forces all invariant factors 1
        assert self.check(A2) == [1, 1, 1]

    def test_zero_and_rectangular(self):
        assert self.check([[0, 0], [0, 0]]) == [0, 0]
        assert self.check([[1, 2, 3], [4, 5, 6]])[0] == 1
        assert self.check([[3], [6], [9]]) == [3]

    def test_random(self):
        rng = random.Random(23)
        for _ in range(80):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            self.check(m)


class TestSolveIntegral:
    def test_projective_line_principal(self):
        x = solve_integral([[1], [-1]], [1, -1])
        assert x.tolist() == [1]

    def test_no_solution(self):
        assert solve_integral([[1], [-1]], [1, 0]) is None
        assert solve_integral([[2]], [1]) is None

    def test_identity_system(self):
        assert solve_integral(identity(2), [5, 7]).tolist() == [5, 7]

    def test_free_parameters_zeroed(self):
        # one equation, two unknowns: the returned solution is deterministic
        x = solve_integral([[1, 0]], [3])
        assert (as_matrix([[1, 0]]) @ x).tolist() == [3]
        y = solve_integral([[1, 0]], [3])
        assert x.tolist() == y.tolist()

    def test_random_consistent_systems(self):
        rng = random.Random(5)
        for _ in range(80):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            a = as_matrix([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
            x = np.array([rng.randint(-5, 5) for _ in range(c)], dtype=object)
            b = a @ x
            sol = solve_integral(a, b)
            assert sol is not None
            assert (a @ sol == b).all()


class TestRank:
    def test_small(self):
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank(identity(3)) == 3
        assert rank([[0, 0], [0, 0]]) == 0

    def test_matches_smith(self):
        rng = random.Random(31)
        for _ in range(60):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
            _, s, _ = smith_normal_form(m)
            snf_rank = sum(1 for i in range(min(r, c)) if s[i, i] != 0)
            assert rank(m) == snf_rank


def python_product(a, b):
    """a @ b by numpy's shape rules, each entry a sum of Python int products."""
    rows = a[None] if a.ndim == 1 else a
    stack = np.broadcast_shapes(rows.shape[:-2], b.shape[:-2])
    left = np.broadcast_to(rows, stack + rows.shape[-2:])
    right = np.broadcast_to(b, stack + b.shape[-2:])
    out = np.empty(stack + (rows.shape[-2], b.shape[-1]), dtype=object)
    for *s, i, j in np.ndindex(*out.shape):
        pairs = zip(left[(*s, i)], right[(*s, slice(None), j)])
        out[(*s, i, j)] = sum(int(x) * int(y) for x, y in pairs)
    return out[..., 0, :] if a.ndim == 1 else out


@st.composite
def product_operands(draw):
    """Operands in the shapes the library multiplies, 1-d @ 3-d, 2-d @ 3-d,
    3-d @ 3-d and 2-d @ 2-d, stacks possibly empty, with the largest |entry|
    of each placed so that k * max|a| * max|b| is below, at or above 2^63."""
    k, stack = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shapes = draw(st.sampled_from([((k,), (stack, k, cols)), ((rows, k), (stack, k, cols)),
                                   ((stack, rows, k), (stack, k, cols)), ((rows, k), (k, cols))]))
    top_a = draw(st.sampled_from([0, 1, 7, 2 ** 31, 2 ** 62, 2 ** 63, 2 ** 70]))
    below = (2 ** 63 - 1) // (k * max(top_a, 1))  # the largest max|b| under the bound
    top_b = draw(st.sampled_from([0, 1, below, below + 1, 2 ** 63, 2 ** 66]))
    operands = []
    for shape, top in zip(shapes, (top_a, top_b)):
        size = math.prod(shape)
        values = [draw(st.integers(-top, top)) for _ in range(size)]
        if size:
            values[draw(st.integers(0, size - 1))] = draw(st.sampled_from([top, -top]))
        operands.append(np.array(values, dtype=object).reshape(shape))
    return operands


class TestExactMatmul:
    """The checked product against Python-int sums, on both dtypes."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(product_operands())
    @example([np.array([2 ** 31], dtype=object), np.full((1, 1, 1), 2 ** 32, dtype=object)])
    @example([np.array([2 ** 31], dtype=object), np.full((1, 1, 1), 2 ** 32 - 1, dtype=object)])
    def test_against_python_sums(self, operands):
        a, b = operands
        expected = python_product(a, b)
        largest = [max((abs(x) for x in m.flat), default=0) for m in (a, b)]
        fits = a.shape[-1] * max(largest[0], 1) * max(largest[1], 1) < 2 ** 63
        variants = [[m] + ([m.astype(np.int64)] if all(-2 ** 63 <= x < 2 ** 63 for x in m.flat)
                           else []) for m in (a, b)]
        for x, y in itertools.product(*variants):
            got = lattice._exact_matmul(x, y)
            assert got.dtype == (np.int64 if fits else object)
            assert got.shape == expected.shape and got.tolist() == expected.tolist()

    def test_narrow(self):
        edge = np.array([2 ** 63 - 1, -2 ** 63], dtype=object)
        assert lattice._narrow(edge).dtype == np.int64
        assert lattice._narrow(edge).tolist() == edge.tolist()
        assert lattice._narrow(edge - 1).dtype == object


class TestExactProduct:
    """The checked elementwise product at its int64 boundary."""

    @pytest.mark.parametrize("a, b, fits", [
        (7, (2 ** 63 - 1) // 7, True),  # 7 * 1,317,624,576,693,539,401 = 2^63 - 1
        (2 ** 31, 2 ** 32 - 1, True),
        (2, 2 ** 62, False),            # exactly 2^63
        (3, 2 ** 62, False),
        (0, 2 ** 70, False),            # every maximum counts as at least 1
    ])
    def test_boundary(self, a, b, fits):
        left = np.array([[a], [-a], [1]], dtype=object)
        right = np.array([b, 1, -b], dtype=object)
        expected = [[a * b, a, -a * b], [-a * b, -a, a * b], [b, 1, -b]]
        variants = [[m] + ([m.astype(np.int64)] if all(abs(x) < 2 ** 63 for x in m.flat) else [])
                    for m in (left, right)]
        for x, y in itertools.product(*variants):
            got = lattice._exact_product(x, y)
            assert got.dtype == (np.int64 if fits else object)
            assert got.tolist() == expected

    def test_many_factors_broadcast(self):
        signs = np.array([1, -1], dtype=np.int64)
        dets = np.array([2 ** 20, 3], dtype=np.int64)
        adjs = np.arange(8, dtype=np.int64).reshape(2, 2, 2)
        got = lattice._exact_product(adjs, signs[:, None, None], dets[:, None, None],
                                     dets[:, None, None])
        assert got.dtype == np.int64
        assert got.tolist() == [[[int(x) * 2 ** 40 for x in row] for row in adjs[0].tolist()],
                                [[-9 * int(x) for x in row] for row in adjs[1].tolist()]]
        big = lattice._exact_product(adjs, dets[:, None, None], dets[:, None, None],
                                     dets[:, None, None], dets[:, None, None])
        assert big.dtype == object
        assert big[0, 1, 1] == 3 * 2 ** 80


def test_five_fold_product_beyond_int64(monkeypatch):
    # each factor's cones have determinants N, 2N and -N, so a cone of the
    # five-fold product has |det| of order N^5 ~ 2^75: the assembled
    # determinants and adjugates must leave int64, where an unchecked product
    # would wrap around
    n = 2 ** 15 - 1
    base = Fan(2, [(1, 0), (-1, n), (-1, -n)], [(0, 1), (1, 2), (0, 2)])
    fan = base
    for _ in range(4):
        fan = fan_product(fan, base)
    assert len(fan_mod._coordinate_factors(fan)) == 5
    dets, adjs = fan.cone_adjugates
    assert dets[0] == 37_773_167_607_267_111_108_607
    assert int(np.prod(np.full(5, n, dtype=np.int64))) == -5_764_255_690_050_600_961
    whole_dets, whole_adjs = lattice._bareiss(fan.cone_matrices, True)
    assert dets.tolist() == whole_dets.tolist()
    assert adjs.tolist() == whole_adjs.tolist()
    messages = validate(fan).messages
    with monkeypatch.context() as patch:
        patch.setattr(fan_mod, "_factor_layout", lambda fan: None)
        whole = Fan(fan.dim, fan.rays, fan.max_cones)
        assert whole.cone_adjugates[0].tolist() == whole_dets.tolist()
        assert validate(whole).messages == messages
    assert messages[0] == ("cone (0, 1, 3, 4, 6, 7, 9, 10, 12, 13) has determinant "
                           "37773167607267111108607")
