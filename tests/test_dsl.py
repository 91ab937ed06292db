import pytest

import hgw.groups as groups
from hgw.dsl import build_group
from hgw.errors import EnumerationOverflow, GroupSpecError
from hgw.groups import is_isomorphic


def _center(group):
    n = group.order
    return [a for a in range(n) if all(group.mul(a, b) == group.mul(b, a) for b in range(n))]


def _is_abelian(group):
    return len(_center(group)) == group.order


def test_cyclic():
    g = build_group("C42")
    assert g.order == 42 and _is_abelian(g)
    assert g.element_order(1) == 42


def test_dihedral_order_convention():
    # D_k has order 2k; D21 has 21 involutions
    d21 = build_group("D21")
    assert d21.order == 42 and not _is_abelian(d21)
    assert sum(1 for o in d21.element_orders() if o == 2) == 21
    assert build_group("D7").order == 14


def test_nonabelian_order21_and_center():
    g = build_group("C7:C3 x C2")
    assert g.order == 42
    assert len(_center(g)) == 2
    q = build_group("C7:C3")
    assert q.order == 21 and not _is_abelian(q)


def test_product_grouping_and_parens():
    g1 = build_group("(C7:C3) x C2")
    g2 = build_group("C7:C3 x C2")
    assert is_isomorphic(g1, g2)


def test_symmetric_alternating():
    assert build_group("S4").order == 24
    assert build_group("A4").order == 12
    assert not _is_abelian(build_group("A4"))


def test_dicyclic_and_q8():
    q8 = build_group("Q8")
    assert q8.order == 8
    assert sorted(q8.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert is_isomorphic(q8, build_group("Dic2"))
    dic6 = build_group("Dic6")
    assert dic6.order == 24
    # dicyclic groups have a unique involution
    assert sum(1 for o in dic6.element_orders() if o == 2) == 1


def test_sdp_f42():
    g = build_group("sdp(C7:C3, C2, 2)")
    assert g.order == 42
    assert len(_center(g)) == 1
    assert is_isomorphic(g, build_group("C7:C6"))


def test_sdp_rejects_bad_action():
    with pytest.raises(GroupSpecError):
        build_group("sdp(C7, C3, 4)")  # no order-4 automorphism of C7 acts through C3
    with pytest.raises(GroupSpecError):
        build_group("sdp(C5, C3, 3)")  # Aut(C5) has no order-3 element
    with pytest.raises(GroupSpecError):
        build_group("sdp(C7, C2, 7)")  # 7 does not divide 2


@pytest.mark.parametrize("spec, order", [
    ("C257", 257), ("D129", 258), ("Dic65", 260), ("C16 x C17", 272), ("sdp(C7, C39, 3)", 273),
])
def test_orders_above_the_cap_are_refused_before_a_table_is_built(spec, order):
    with pytest.raises(GroupSpecError, match=f"capped at order 256; this one has order {order}$"):
        build_group(spec)


def test_sdp_over_c2_to_the_4_builds_an_order_32_group():
    group = build_group("sdp(C2 x C2 x C2 x C2, C2, 2)")
    assert group.order == 32 and group.check_associative()
    assert max(group.element_orders()) == 4  # C2 acts by an involution, not trivially


def test_sdp_over_c2_to_the_5_is_refused_before_the_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("the isomorphism search started")

    monkeypatch.setattr(groups, "_iso_search", no_search)
    with pytest.raises(EnumerationOverflow, match="would try 28629151 generator images"):
        build_group("sdp(C2 x C2 x C2 x C2 x C2, C2, 2)")


def test_orders_at_the_cap_are_built():
    assert build_group("C256").order == 256
    assert build_group("C16 x C16").order == 256


def test_parse_failures():
    for bad in ["", "C", "X7", "C6 y C2", "sdp(C6)", "(C6", "C6)", "C6 x", "Q16"]:
        with pytest.raises(GroupSpecError):
            build_group(bad)


def test_identity_is_index_zero():
    for spec in ["C6", "D4", "S4", "Dic3", "sdp(C7:C3, C2, 2)"]:
        g = build_group(spec)
        assert all(g.mul(0, x) == x == g.mul(x, 0) for x in range(g.order))
