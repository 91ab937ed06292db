import hashlib
import json

import pytest

import hgw.groups as groups
from hgw.catalog import CATALOG
from hgw.dsl import _of_order, _Parser, build_group
from hgw.errors import EnumerationOverflow, GroupSpecError
from hgw.groups import an_isomorphism, automorphisms


def _isomorphic(g1, g2):
    return an_isomorphism(g1, g2) is not None


def _center(group):
    n = group.order
    return [a for a in range(n) if all(group.table[a][b] == group.table[b][a] for b in range(n))]


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
    assert _isomorphic(g1, g2)


def test_symmetric_alternating():
    assert build_group("S4").order == 24
    assert build_group("A4").order == 12
    assert not _is_abelian(build_group("A4"))


def test_dicyclic_and_q8():
    q8 = build_group("Q8")
    assert q8.order == 8
    assert sorted(q8.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert _isomorphic(q8, build_group("Dic2"))
    dic6 = build_group("Dic6")
    assert dic6.order == 24
    # dicyclic groups have a unique involution
    assert sum(1 for o in dic6.element_orders() if o == 2) == 1


def test_sdp_f42():
    g = build_group("sdp(C7:C3, C2, 2)")
    assert g.order == 42
    assert len(_center(g)) == 1
    assert _isomorphic(g, build_group("C7:C6"))


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
    # each constructor's range and argument errors carry their own message
    for bad, message in [
        ("C0", "cyclic order must be >= 1"),
        ("D0", "dihedral parameter must be >= 1"),
        ("Dic0", "dicyclic parameter must be >= 1"),
        ("S6", "symmetric groups supported for 1 <= k <= 5"),
        ("A6", "alternating groups supported for 1 <= k <= 5"),
        ("sdp(C3, C2, 0)", "sdp parameters must be positive"),
        ("7", "unknown atom '7'"),
        ("sdp(C3, D2, 2)", "second sdp argument must be C<k>"),
    ]:
        with pytest.raises(GroupSpecError) as err:
            build_group(bad)
        assert str(err.value) == message, bad


def test_identity_is_index_zero():
    for spec in ["C6", "D4", "S4", "Dic3", "sdp(C7:C3, C2, 2)"]:
        g = build_group(spec)
        assert all(g.table[0][x] == x == g.table[x][0] for x in range(g.order))


# Every catalog spec and each constructor across its range, up to the order cap and one
# refusal past it; the digest is of the tables, labels and specs the per-product loops
# that ``_extension`` replaced built for these expressions.
PINNED_EXPRESSIONS = (
    [spec for entries in CATALOG.values() for _, spec in entries]
    + [f"C{n}" for n in (1, 2, 5, 17, 256)]
    + [f"D{k}" for k in range(1, 30)] + ["D128"]
    + [f"Dic{m}" for m in range(1, 20)] + ["Dic64"]
    + [f"S{k}" for k in range(1, 6)] + [f"A{k}" for k in range(1, 6)]
    + ["C3:C4", "C5:C4", "C7:C6", "C13:C3", "sdp(C4, C2, 2)", "sdp(C5, C4, 2)",
       "sdp(C8, C2, 2, 0)", "sdp(C8, C2, 2, 1)", "sdp(C8, C2, 2, 2)",
       "sdp(C4 x C2, C2, 2, 1)", "sdp(C9, C3, 3)", "sdp(C3 x C3, C3, 3)",
       "sdp(Q8, C4, 2)", "sdp(C2 x C2 x C2 x C2, C2, 2)"]
    + ["sdp(C7, C39, 3)"])
DSL_TABLES_SHA256 = "a2dd530f5bb13a841c4d753dde11c5e985220baa92cc11af4b283f44a44179e8"


def test_dsl_tables_labels_and_specs_pinned():
    assert len(PINNED_EXPRESSIONS) == 123
    digest = hashlib.sha256()
    for expr in PINNED_EXPRESSIONS:
        try:
            g = _Parser(expr).parse()  # the constructor's own spec, before build_group's
            item = [expr, g.spec, list(g.elements), [list(row) for row in g.table]]
        except GroupSpecError as exc:
            item = [expr, "GroupSpecError", str(exc)]
        digest.update(json.dumps(item).encode())
    assert digest.hexdigest() == DSL_TABLES_SHA256


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 12, 21, 128])
def test_dihedral_presentation(k):
    g = build_group(f"D{k}")
    r, s = 1 % k, k  # r^1 and r^0 s
    assert g.table[g.table[s][r]][g.inverse_table[s]] == g.inverse_table[r]
    assert g.table[s][s] == 0
    assert g.element_order(r) == k and g.element_order(s) == 2


@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 19, 64])
def test_dicyclic_presentation(m):
    g = build_group(f"Dic{m}")
    a, b = 1, 2 * m  # a^1 and a^0 b
    assert g.table[b][b] == m  # a^m
    assert g.table[g.table[b][a]][g.inverse_table[b]] == g.inverse_table[a]
    assert g.element_order(a) == 2 * m


@pytest.mark.parametrize("base, k, aut_order, idx", [
    ("C7", 3, 3, 0), ("C7", 6, 3, 1), ("C7:C3", 2, 2, 0), ("Q8", 3, 3, 0), ("C3", 8, 2, 0),
    ("C6 x C2", 2, 2, 2), ("C8", 2, 2, 1), ("C2 x C2 x C2 x C2", 2, 2, 0),
])
def test_sdp_presentation(base, k, aut_order, idx):
    x_group = build_group(base)
    phi = _of_order(automorphisms(x_group), aut_order)[idx].tolist()
    g = build_group(f"sdp({base}, C{k}, {aut_order}, {idx})")
    nb = x_group.order
    t = nb  # 0 t^1
    assert g.element_order(t) == k
    for x in range(nb):  # the base sits at indices 0..|X|-1 with its own product
        assert g.table[g.table[t][x]][g.inverse_table[t]] == phi[x]
        assert all(g.table[x][y] == x_group.table[x][y] for y in range(nb))


@pytest.mark.parametrize("p, q", [(3, 2), (7, 3), (7, 6), (5, 4), (13, 3)])
def test_colon_is_sdp_by_the_full_order(p, q):
    colon, sdp = build_group(f"C{p}:C{q}"), build_group(f"sdp(C{p}, C{q}, {q})")
    assert colon.table == sdp.table and colon.elements == sdp.elements
