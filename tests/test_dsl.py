import pytest

from hgw.dsl import build_group
from hgw.errors import GroupSpecError
from hgw.groups import is_isomorphic


def test_cyclic():
    g = build_group("C42")
    assert g.order == 42 and g.is_abelian()
    assert g.element_order(1) == 42


def test_dihedral_order_convention():
    # D_k has order 2k; D21 has 21 involutions
    d21 = build_group("D21")
    assert d21.order == 42 and not d21.is_abelian()
    assert sum(1 for o in d21.element_orders() if o == 2) == 21
    assert build_group("D7").order == 14


def test_nonabelian_order21_and_center():
    g = build_group("C7:C3 x C2")
    assert g.order == 42
    assert len(g.center()) == 2
    q = build_group("C7:C3")
    assert q.order == 21 and not q.is_abelian()


def test_product_grouping_and_parens():
    g1 = build_group("(C7:C3) x C2")
    g2 = build_group("C7:C3 x C2")
    assert is_isomorphic(g1, g2)


def test_symmetric_alternating():
    assert build_group("S4").order == 24
    assert build_group("A4").order == 12
    assert not build_group("A4").is_abelian()


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
    assert len(g.center()) == 1
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
