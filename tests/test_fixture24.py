"""The paper24 fixture's failing checks: each row check raises on the first mismatch."""

import re

import pytest

import hgw.fixture24 as fixture24
from hgw.errors import FixtureFailure
from hgw.fixture24 import DEGREE, _regular_identification, run_fixture
from hgw.perm import Permutation, closure
from perm_tables import rows_of

_LOAD = fixture24.load_generators


def _exact(message):
    return f"^{re.escape(message)}$"


def test_fixture_n_replaced_by_p_fails_regularity(monkeypatch):
    """P is semiregular of order 8 on 24 points: not regular."""
    monkeypatch.setattr(fixture24, "load_generators",
                        lambda name: _LOAD("p" if name == "n" else name))
    with pytest.raises(FixtureFailure,
                       match=_exact("N order and regularity: |N|=8, regular=False")):
        run_fixture()


def test_fixture_p_outside_n_fails_membership(monkeypatch):
    """P conjugated by the transposition (0 1) is still C2^3 and semiregular, but not in N."""
    t = Permutation.from_cycles([(0, 1)], DEGREE)

    def moved(name):
        gens = _LOAD(name)
        return [t * g * t.inverse() for g in gens] if name == "p" else gens

    monkeypatch.setattr(fixture24, "load_generators", moved)
    with pytest.raises(FixtureFailure, match=_exact("P inside N: membership")):
        run_fixture()


def test_regular_identification_refuses_non_regular_rows():
    p_rows = rows_of(closure(_LOAD("p"), DEGREE))
    assert p_rows.shape == (8, DEGREE)
    with pytest.raises(FixtureFailure,
                       match=_exact("fixture group is not regular; cannot identify points")):
        _regular_identification(p_rows)

