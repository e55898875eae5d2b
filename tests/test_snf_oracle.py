"""`lattice.smith_normal_form` against tests/snf_oracle.py, entry by entry."""

import random

import pytest

from snf_oracle import smith_normal_form as oracle
from toricsplit.fan import build_named
from toricsplit.lattice import smith_normal_form


def assert_same(m):
    for got, want in zip(smith_normal_form(m), oracle(m)):
        assert got.shape == want.shape and (got == want).all(), m


def test_seeded_matrices():
    rng = random.Random("snf")
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        span = rng.choice((1, 3, 9, 10 ** 6))
        assert_same([[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("spec", ["P:1", "P:3", "dP:1", "dP:3", "F:2", "F:3", "Xd:3", "Xd:5",
                                  "dP:3*dP:3"])
def test_named_fans(spec):
    assert_same(build_named(spec).ray_matrix)
