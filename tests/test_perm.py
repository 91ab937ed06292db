import numpy as np
import pytest

import hgw.perm as perm
from hgw.errors import EnumerationOverflow
from hgw.perm import Permutation, closure, normalizes
from hgw.regsearch import uniform_rows


def test_identity_and_composition():
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    assert (p * q).images == (1, 0, 2)  # p after q
    assert (q * p).images == (2, 1, 0)
    assert p * p.inverse() == Permutation.identity(3)
    assert p.inverse() * p == Permutation.identity(3)


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_cycle_roundtrip():
    p = Permutation.from_cycles([(0, 1), (2, 3, 4)], 6)
    assert p.images == (1, 0, 3, 4, 2, 5)
    assert p.cycle_string() == "(0,1)(2,3,4)"
    assert Permutation.parse_cycles("(1,2)(3,4,5)", 6, one_based=True) == p
    assert Permutation.parse_cycles("( 1, 2)( 3, 4, 5)", 6, one_based=True) == p
    assert p.order() == 6


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation.parse_cycles("(1,2", 4)
    with pytest.raises(ValueError):
        Permutation.parse_cycles("(1,2)(2,3)", 4)  # repeated point


def test_uniformity():
    def is_uniform(p):
        return bool(uniform_rows(np.array([p.images], dtype=np.uint8))[0])

    assert is_uniform(Permutation.from_cycles([(0, 1), (2, 3)], 4))
    assert not is_uniform(Permutation.from_cycles([(0, 1), (2, 3, 4)], 5))
    assert not is_uniform(Permutation.from_cycles([(0, 1)], 4))  # fixed points
    assert is_uniform(Permutation.identity(4))


def test_closure_deterministic_and_capped(monkeypatch):
    gens = [Permutation.from_cycles([(0, 1, 2)], 3)]
    grp = closure(gens, 3)
    assert grp.order == 3
    assert [p.images for p in grp.elements] == sorted(p.images for p in grp.elements)
    monkeypatch.setattr(perm, "CLOSURE_CAP", 10)
    with pytest.raises(EnumerationOverflow, match="closure exceeds cap 10"):
        closure([Permutation.from_cycles([(0, 1, 2, 3, 4)], 5),
                 Permutation.from_cycles([(0, 1)], 5)], 5)


def test_regularity_flags():
    cyc = closure([Permutation.from_cycles([(0, 1, 2, 3)], 4)], 4)
    assert cyc.is_regular() and cyc.is_semiregular() and cyc.is_transitive()
    # trivial group on 2 points: semiregular, not regular
    triv = closure([Permutation.identity(2)], 2)
    assert triv.is_semiregular() and not triv.is_regular()
    # a point stabilizer is not semiregular
    stab = closure([Permutation.from_cycles([(1, 2)], 3)], 3)
    assert not stab.is_semiregular()


def test_regular_iff_semiregular_of_full_order():
    grp = closure([Permutation.from_cycles([(0, 1), (2, 3)], 4),
                   Permutation.from_cycles([(0, 2), (1, 3)], 4)], 4)
    assert grp.order == 4
    assert grp.is_regular() == (grp.is_semiregular() and grp.order == grp.degree)


def test_normalizes_self_and_transposition():
    v4 = closure([Permutation.from_cycles([(0, 1), (2, 3)], 4),
                  Permutation.from_cycles([(0, 2), (1, 3)], 4)], 4)
    assert normalizes(v4, v4)
    s2 = closure([Permutation.from_cycles([(0, 1)], 4)], 4)
    assert normalizes(v4, v4) and not normalizes(s2, closure(
        [Permutation.from_cycles([(0, 1, 2, 3)], 4)], 4))
