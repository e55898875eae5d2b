"""Differential tests: `bondal check` and `is_fano` read from a product's
coordinate factors against the whole fan.

The CLI's payload comes from `bondal._violations`, which runs the wall
kernel on each factor only.  The reference payload is built, as the CLI
once built it, from the whole-fan kernel `bondal._relations` with
`fan._coordinate_factors` patched to find no product, so that the cone
adjugates too come from one elimination of all cone matrices.  `is_fano`
is compared the same way with the ample test of -K on the whole fan.
Permuted copies, given as `--fan` files, interleave the factors' rays in
the walls and the cones.
"""

import random

import pytest

from toricsplit import fan as fan_mod
from toricsplit.bondal import _relations
from toricsplit.divisor import is_fano, positivity
from toricsplit.fan import Fan, _factors, build_named

from test_bondal_check import check, check_file
from test_factored_split import permuted
from test_thomsen_oracle import SPECS

PRODUCTS = [spec for spec in SPECS if len(_factors(build_named(spec))) > 1]
FAILING = {"F:2*P:1": 2, "P:1*F:2": 2, "F:2*F:3": 8, "Xd:5*F:2": 72, "F:3*dP:3*F:2": 48}
SPECS_HERE = PRODUCTS + ["Xd:7", "dP:3*dP:3*dP:3", "P:1*dP:3*dP:3", *FAILING]


def whole(monkeypatch, fan):
    """(exit status, payload, Fano) of a fresh copy of the fan, on the
    whole-fan kernels only."""
    with monkeypatch.context() as patch:
        patch.setattr(fan_mod, "_coordinate_factors", lambda fan: None)
        fan = Fan(fan.dim, fan.rays, fan.max_cones)
        assert len(_factors(fan)) == 1
        walls, coeffs, bad = _relations(fan)
        violations = [{"rays": rays, "u_plus": u_plus, "u_minus": u_minus, "coeffs": row}
                      for rays, u_plus, u_minus, row in zip(
                          walls.rays[bad].tolist(), walls.u_plus[bad].tolist(),
                          walls.u_minus[bad].tolist(), coeffs[bad].tolist())]
        payload = {"pass": not violations, "walls": len(coeffs), "violations": violations}
        fano = positivity(fan, (1,) * len(fan.rays), "ample").ok
    return 1 if violations else 0, payload, fano


def test_products_found():
    assert PRODUCTS == ["Xd:5", "P:1*dP:3", "dP:3*dP:3"]


@pytest.mark.parametrize("spec", SPECS_HERE)
def test_named_match_whole_fan(spec, monkeypatch):
    fan = build_named(spec)
    assert len(_factors(fan)) > 1
    status, payload, fano = whole(monkeypatch, fan)
    assert check("--variety", spec)[:2] == (status, payload)
    assert is_fano(fan) is fano
    assert len(payload["violations"]) == FAILING.get(spec, 0)
    assert fano is (spec not in FAILING)


@pytest.mark.parametrize("spec", PRODUCTS + ["P:1*dP:3*dP:3", *FAILING])
def test_permuted_files_match_whole_fan(spec, monkeypatch):
    rng = random.Random(f"bondal/permuted/{spec}")
    for _ in range(3):
        fan = permuted(build_named(spec), rng)
        assert len(_factors(fan)) > 1
        status, payload, fano = whole(monkeypatch, fan)
        assert check_file(fan)[:2] == (status, payload)
        assert is_fano(fan) is fano
