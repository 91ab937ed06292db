import itertools
import re
from collections import Counter

import pytest

from hgw import catalog, groups
from hgw.catalog import (CATALOG, catalog_group, catalog_invariant, catalog_names, iso_class,
                         iso_class_of_rows)
from hgw.dsl import build_group
from hgw.errors import TheoremViolation, UncoveredOrder
from hgw.groups import an_isomorphism
from perm_tables import as_finite_group, left_regular, right_regular
from reference_data import ORDER_16_ENTRIES, ORDER_27_ENTRIES


def _isomorphic(g1, g2):
    return an_isomorphism(g1, g2) is not None


def catalog_groups(order):
    return [(name, catalog_group(name)) for name in catalog_names(order)]


def test_catalog_orders_covered():
    # iso_class names the one class with a group's invariant, without a search, so
    # every covered order must list all of its classes: the counts are OEIS A000001
    assert {order: len(catalog_names(order)) for order in CATALOG} == {
        1: 1, 2: 1, 3: 1, 4: 2, 6: 2, 7: 1, 8: 5, 12: 5, 14: 2, 21: 2, 24: 15, 42: 6}


def test_catalog_entries_distinct_and_consistent():
    for order in CATALOG:
        groups = catalog_groups(order)
        for name, group in groups:
            assert group.order == order
            assert iso_class(group).name == name
        for (n1, g1), (n2, g2) in itertools.combinations(groups, 2):
            assert not _isomorphic(g1, g2), (n1, n2)


def test_degree42_column_order():
    assert catalog_names(42) == [
        "C42", "C7 x D3", "C7:C3 x C2", "C3 x D7", "D21", "(C7:C3):C2",
    ]


def test_iso_class_on_perm_groups():
    lam = left_regular(build_group("D3"))
    assert iso_class(as_finite_group(lam)).name == "D3"


def test_is_isomorphic_distinguishes_c6_d3():
    assert not _isomorphic(build_group("C6"), build_group("D3"))
    assert iso_class(build_group("C6")).name == "C6"
    assert iso_class(build_group("D3")).name == "D3"


def test_iso_class_names_relabelled_catalog_groups():
    # rho(G) read back as a table numbers G's elements afresh
    for order in (8, 24, 42):
        for name, group in catalog_groups(order):
            assert iso_class(as_finite_group(right_regular(group))).name == name


def test_class_invariants_distinct_at_each_order():
    # with the A000001 counts above, this makes iso_class's lookup name every group
    # of a covered order
    for order in CATALOG:
        invariants = [catalog_invariant(name).tobytes() for name in catalog_names(order)]
        assert len(set(invariants)) == len(invariants), order


def _no_search(*args):
    raise AssertionError("iso_class ran an isomorphism search")


@pytest.mark.parametrize("order, entries, spectra", [
    (16, ORDER_16_ENTRIES, 9), (27, ORDER_27_ENTRIES, 3)], ids=["16", "27"])
def test_iso_class_splits_order_spectrum_ties_without_a_search(monkeypatch, order, entries,
                                                                spectra):
    # every class of the order: the spectrum ties {C4 x C4, C4:C4, Q8 x C2},
    # {C4 x C2^2, C2^2:C4, C4oD4}, {C8 x C2, M16}, {C3^3, He3} and {C9 x C3, C9:C3}
    # have pairwise distinct invariants
    monkeypatch.setitem(catalog.CATALOG, order, entries)
    classes = catalog_groups(order)
    assert len(Counter(tuple(sorted(g.element_orders())) for _, g in classes)) == spectra
    for (n1, g1), (n2, g2) in itertools.combinations(classes, 2):
        assert not _isomorphic(g1, g2), (n1, n2)
    invariants = {catalog_invariant(name).tobytes() for name, _ in classes}
    assert len(invariants) == len(classes) == len(entries)
    relabelled = [(name, as_finite_group(right_regular(group))) for name, group in classes]
    monkeypatch.setattr(groups, "_iso_backtrack", _no_search)
    for name, group in classes + relabelled:
        assert iso_class(group).name == name


def test_iso_class_outside_the_catalog_raises(monkeypatch):
    # an uncovered order is a usage error, with the message the CLI and the benchmark read
    for spec in ("C5", "C10", "D5"):
        order = build_group(spec).order
        with pytest.raises(UncoveredOrder, match=f"^catalog does not cover order {order}$"):
            iso_class(build_group(spec))
    # a covered order where no entry matches means the catalog is incomplete
    monkeypatch.setitem(catalog.CATALOG, 6, (("C6", "C6"),))
    with pytest.raises(TheoremViolation, match="no catalog class of order 6 matches"):
        iso_class(build_group("D3"))


def test_iso_class_refuses_two_classes_with_one_invariant(monkeypatch):
    # a lookup that took the first match would name C6 here without noticing the tie
    monkeypatch.setitem(catalog.CATALOG, 6, (("C6", "C6"), ("Z6", "C6"), ("D3", "D3")))
    with pytest.raises(TheoremViolation, match=re.escape(
            "no catalog class of order 6 matches FiniteGroup(C6); C6 and Z6 share its invariant")):
        iso_class(build_group("C6"))
    assert iso_class(build_group("D3")).name == "D3"


def test_iso_class_of_rows_matches_iso_class_on_every_subgroup():
    # the regular table of a semiregular stack is the table semiregular_group builds
    for order in (24, 42):
        for name, group in catalog_groups(order):
            for handle in groups.subgroups(group):
                rows = group.rows[list(handle.members)]
                assert iso_class_of_rows(rows) == iso_class(groups.semiregular_group(rows)), \
                    (name, handle.members)


def test_iso_class_of_rows_names_the_stack_it_cannot_classify(monkeypatch):
    rows = build_group("C6").rows
    with pytest.raises(UncoveredOrder, match="^catalog does not cover order 5$"):
        iso_class_of_rows(build_group("C5").rows)
    monkeypatch.setitem(catalog.CATALOG, 6, (("C6", "C6"), ("Z6", "C6"), ("D3", "D3")))
    with pytest.raises(TheoremViolation, match=re.escape(
            "no catalog class of order 6 matches the group on 6 semiregular rows of degree 6; "
            "C6 and Z6 share its invariant")):
        iso_class_of_rows(rows)
    # the rows of C2 inside C6, acting on all six points: a semiregular stack of degree 6
    assert iso_class_of_rows(rows[[0, 3]]).name == "C2"
