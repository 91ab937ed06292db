import itertools

import pytest

from hgw import catalog
from hgw.catalog import (
    CATALOG,
    catalog_groups,
    catalog_names,
    iso_class,
)
from hgw.dsl import build_group
from hgw.errors import TheoremViolation, UncoveredOrder
from hgw.groups import is_isomorphic
from perm_tables import as_finite_group, left_regular, right_regular


def test_catalog_orders_covered():
    # iso_class takes a lone spectrum match without a search, so every covered
    # order must list all of its classes: the counts are OEIS A000001
    assert {order: len(catalog_names(order)) for order in CATALOG} == {
        1: 1, 2: 1, 3: 1, 4: 2, 6: 2, 7: 1, 8: 5, 12: 5, 14: 2, 21: 2, 24: 15, 42: 6}


def test_catalog_entries_distinct_and_consistent():
    for order in CATALOG:
        groups = catalog_groups(order)
        for name, group in groups:
            assert group.order == order
            assert iso_class(group).name == name
        for (n1, g1), (n2, g2) in itertools.combinations(groups, 2):
            assert not is_isomorphic(g1, g2), (n1, n2)


def test_degree42_column_order():
    assert catalog_names(42) == [
        "C42", "C7 x D3", "C7:C3 x C2", "C3 x D7", "D21", "(C7:C3):C2",
    ]


def test_iso_class_on_perm_groups():
    lam = left_regular(build_group("D3"))
    assert iso_class(as_finite_group(lam)).name == "D3"


def test_is_isomorphic_distinguishes_c6_d3():
    assert not is_isomorphic(build_group("C6"), build_group("D3"))
    assert iso_class(build_group("C6")).name == "C6"
    assert iso_class(build_group("D3")).name == "D3"


def test_iso_class_names_relabelled_catalog_groups():
    # rho(G) read back as a table numbers G's elements afresh
    for order in (8, 24, 42):
        for name, group in catalog_groups(order):
            assert iso_class(as_finite_group(right_regular(group))).name == name


def test_order_spectra_distinct_at_each_order():
    # so at every covered order iso_class names a group without an isomorphism search
    for order in CATALOG:
        spectra = [tuple(sorted(group.element_orders())) for _, group in catalog_groups(order)]
        assert len(set(spectra)) == len(spectra), order


def test_iso_class_ties_go_to_the_isomorphism_search(monkeypatch):
    # two pairs of order-16 classes, each pair with one order spectrum
    entries = (("C4 x C4", "C4 x C4"), ("C4:C4", "sdp(C4, C4, 2)"),
               ("C8 x C2", "C8 x C2"), ("M16", "sdp(C8, C2, 2, 1)"))
    monkeypatch.setitem(catalog.CATALOG, 16, entries)
    groups = catalog_groups(16)
    spectra = [sorted(group.element_orders()) for _, group in groups]
    assert spectra[0] == spectra[1] and spectra[2] == spectra[3] and spectra[0] != spectra[2]
    for (n1, g1), (n2, g2) in itertools.combinations(groups, 2):
        assert not is_isomorphic(g1, g2), (n1, n2)
    for name, group in groups:
        assert iso_class(group).name == name
        assert iso_class(as_finite_group(right_regular(group))).name == name


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
