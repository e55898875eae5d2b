import random

import numpy as np
import pytest

from toricsplit import lattice
from toricsplit.lattice import (
    NotSquare,
    NotUnimodular,
    adjugate,
    as_matrix,
    determinant,
    identity,
    rank,
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
