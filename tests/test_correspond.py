import dataclasses
import hashlib
import json
import random
import re
import sys
from collections import Counter

import numpy as np
import pytest

import hgw.correspond as correspond
import hgw.enumeration as enumeration
import hgw.report as report
from hgw.catalog import GroupClassLabel, catalog_group, catalog_names, iso_class, iso_class_of_rows
from hgw.correspond import (
    StableSubgroup,
    correspondence_rows,
    coset_space,
    induced_block_perm,
    orbit_coset_check,
    psi,
    psi_of_rows,
    psi_onto,
    quotient_structure,
    stable_subgroups,
)
from hgw.dsl import build_group
from hgw.enumeration import HgsRecord, enumerate_hgs, orbit_representatives
from hgw.errors import BlockSystemViolation, TheoremViolation, UncoveredOrder
from hgw.groups import (
    FiniteGroup,
    SubgroupHandle,
    core_masks,
    core_of,
    generating_subset_of,
    semiregular_group,
    subgroups,
)
from perm_tables import as_finite_group, left_regular, right_regular, rows_of
from subgroup_references import core_of as reference_core_of, is_normal
from hgw.perm import PermGroup, Permutation, closure, normalizes
from hgw.regsearch import is_regular
from hgw.report import correspondence_table_doc


def _record_of_class(records, name):
    return next(r for r in records if r.n_class.name == name)


def _as_perm_group(rows):
    """A closed set of uint8 image rows as a PermGroup, for the permutation-side references."""
    perms = [Permutation(row) for row in rows.tolist()]
    return PermGroup(rows.shape[1], perms, perms)


def test_rho_all_subgroups_stable():
    group = build_group("D3")
    records = enumerate_hgs(group)
    rho = frozenset(p.images for p in right_regular(group).elements)
    record = next(r for r in records
                  if frozenset(p.images for p in r.n_group.elements) == rho)
    stables = stable_subgroups(record)
    assert len(stables) == len(subgroups(as_finite_group(record.n_group)))  # every subgroup stable
    orders = sorted(s.order for s in stables)
    assert orders[0] == 1 and orders[-1] == group.order


def test_psi_trivial_and_full():
    group = build_group("C6")
    record = enumerate_hgs(group)[0]
    stables = {s.order: s for s in stable_subgroups(record)}
    assert psi(stables[1]).j_handle.members == (0,)
    assert psi(stables[6]).j_handle.members == tuple(range(6))


def test_psi_of_rho_j_is_j():
    group = build_group("D3")
    records = enumerate_hgs(group)
    rho = frozenset(p.images for p in right_regular(group).elements)
    record = next(r for r in records
                  if frozenset(p.images for p in r.n_group.elements) == rho)
    for stable in stable_subgroups(record):
        result = psi(stable)
        # rho(J) has identity orbit exactly J (as a set of element indices)
        assert set(result.j_handle.members) == {p.inverse().images[0] for p in
                                                _as_perm_group(stable.rows).elements}
        assert orbit_coset_check(stable, result)


def test_psi_rejects_unstable_subgroup():
    # use the degree-24 fixture: several non-stable subgroups of N have an
    # identity orbit that is not closed under the group operation
    from hgw.catalog import iso_class
    from hgw.correspond import StableSubgroup
    from hgw.enumeration import HgsRecord
    from hgw.fixture24 import DEGREE, _regular_identification, load_generators
    from hgw.perm import closure, normalizes

    g_group = closure(load_generators("g"), DEGREE)
    n_group = closure(load_generators("n"), DEGREE)
    g_abs = _regular_identification(rows_of(g_group))  # lambda(G) is G itself
    record = HgsRecord.from_rows(g_abs, rows_of(n_group), iso_class(as_finite_group(n_group)),
                                 ("fixture", 0))
    tripped = 0
    for handle in subgroups(as_finite_group(n_group)):
        if normalizes(g_group, _as_perm_group(record.rows[list(handle.members)])):
            continue
        bogus = StableSubgroup(record, SubgroupHandle(handle.members), normal_in_n=False)
        try:
            psi(bogus)
        except TheoremViolation:
            tripped += 1
    assert tripped >= 8


def test_psi_of_rows_rejects_an_identity_orbit_smaller_than_p():
    """<(2 3)> fixes 0, so its identity orbit {0} has 1 point for |P| = 2."""
    p_rows = np.array([[0, 1, 2, 3], [0, 1, 3, 2]], dtype=np.uint8)
    with pytest.raises(TheoremViolation,
                       match=r"^identity orbit size differs from \|P\|; "
                             r"P was not lambda\(G\)-stable"):
        psi_of_rows(build_group("C2 x C2"), p_rows)


def test_quotient_structure_requires_normal_p_flag():
    group = build_group("D3")
    records = enumerate_hgs(group)
    record = _record_of_class(records, "C6")
    from hgw.correspond import StableSubgroup

    stable = next(s for s in stable_subgroups(record) if s.order == 2)
    flagged = StableSubgroup(record, stable.p_handle, normal_in_n=False)
    with pytest.raises(TheoremViolation):
        quotient_structure(flagged, psi(stable))


def test_psi_onto_for_rho():
    for spec in ["C6", "D3", "D4"]:
        group = build_group(spec)
        records = enumerate_hgs(group)
        rho = frozenset(p.images for p in right_regular(group).elements)
        record = next(r for r in records
                      if frozenset(p.images for p in r.n_group.elements) == rho)
        all_sets = frozenset(h.members for h in subgroups(group))
        assert psi_onto(record, stable_subgroups(record), all_sets)


def test_coset_space_shapes():
    group = build_group("C6")
    subs = {h.order: h for h in subgroups(group)}
    full = coset_space(group, subs[6])
    assert full.block_count == 1 and full.representatives == (0,)
    trivial = coset_space(group, subs[1])
    assert trivial.block_count == 6
    assert all(len(b) == 1 for b in trivial.blocks)
    mid = coset_space(group, subs[2])
    assert mid.block_count == 3 and mid.blocks[0][0] == 0
    # representatives are minimal and identity block comes first
    assert mid.representatives[0] == 0
    assert list(mid.representatives) == sorted(mid.representatives)


def _rows(*perms):
    return np.array([p.images for p in perms], dtype=np.uint8)


def test_induced_block_perm_accepts_lambda():
    group = build_group("S4")
    subs = subgroups(group)
    j = next(h for h in subs if h.order == 8)
    space = coset_space(group, j)
    images = induced_block_perm(np.array(group.table, dtype=np.uint8), space)  # must not raise
    assert images.shape == (24, 3)


def test_induced_block_perm_rejects_block_breaker():
    group = build_group("C6")
    j = next(h for h in subgroups(group) if h.order == 3)
    space = coset_space(group, j)  # blocks {0,2,4}, {1,3,5}
    breaker = Permutation.from_cycles([(0, 1)], 6)  # mixes the two blocks
    with pytest.raises(BlockSystemViolation, match="does not map block 0 onto a block") as err:
        induced_block_perm(_rows(Permutation.identity(6), breaker), space)
    assert err.value.block == space.blocks[0]
    # a transposition inside one block leaves the partition intact
    inside = Permutation.from_cycles([(0, 2)], 6)
    assert induced_block_perm(_rows(inside), space).tolist() == [[0, 1]]
    # a constant map respects every partition, but sends all blocks to one
    pairs = coset_space(group, SubgroupHandle((0, 3)))  # {0,3}, {1,4}, {2,5}
    with pytest.raises(BlockSystemViolation, match=r"^induced block map is not a bijection$"):
        induced_block_perm(np.zeros((1, 6), dtype=np.uint8), pairs)


def test_quotient_structure_p_equals_n():
    group = build_group("C6")
    record = enumerate_hgs(group)[0]
    stable = next(s for s in stable_subgroups(record) if s.order == 6)
    result = psi(stable)
    quotient = quotient_structure(stable, result)
    assert result.space.block_count == 1
    assert len(quotient.nbar) == 1 and len(result.gbar) == 1
    assert result.normal_in_g


def test_quotient_small_normal_case():
    group = build_group("C6")
    record = enumerate_hgs(group)[0]  # N = lambda(C6) = rho(C6)
    stable = next(s for s in stable_subgroups(record) if s.order == 2)
    result = psi(stable)
    assert result.normal_in_g and result.core_order == 2
    quotient = quotient_structure(stable, result)
    assert result.space.block_count == 3
    assert is_regular(quotient.nbar) and is_regular(result.gbar)
    assert iso_class(as_finite_group(_as_perm_group(quotient.nbar))).name == "C3"


# -- the index views against permutation products -------------------------------

SMALL_CLASSES = ["C1", "C2", "C3", "C4", "C2^2", "C6", "D3", "C7", "C8", "C4 x C2", "C2^3",
                 "D4", "Q8", "C12", "C6 x C2", "D6", "A4", "Dic3"]


def _orbit(perm_group, point):
    """The orbit of ``point``, walked along the generators of a PermGroup."""
    seen, frontier = {point}, [point]
    while frontier:
        x = frontier.pop()
        for y in (g.images[x] for g in perm_group.generators):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _reference_orbit_coset(group, p_group, j_members):
    """The parent form: every orbit of P equals (least point) * J."""
    orbits = {frozenset(_orbit(p_group, x)) for x in range(group.order)}
    return all(set(orbit) == {group.table[min(orbit)][x] for x in j_members}
               for orbit in orbits)


@pytest.mark.parametrize("g_name", SMALL_CLASSES)
def test_index_views_match_permutation_products(g_name):
    group = catalog_group(g_name)
    lam = left_regular(group)
    for record in enumerate_hgs(group):
        n_group = record.n_group
        elems = n_group.elements
        index = {p.images: i for i, p in enumerate(elems)}
        assert semiregular_group(record.rows).table == as_finite_group(n_group).table
        for g in range(group.order):
            lam_g = Permutation(group.table[g])
            expected = [index[(lam_g * a * lam_g.inverse()).images] for a in elems]
            assert record.lambda_conj[g].tolist() == expected
        reference = []
        for handle in subgroups(as_finite_group(n_group)):
            sub = _as_perm_group(record.rows[list(handle.members)])
            if normalizes(lam, sub):
                reference.append((handle.members, normalizes(n_group, sub)))
        stables = stable_subgroups(record)
        assert [(s.p_handle.members, s.normal_in_n) for s in stables] == reference
        for stable in stables:
            p_group = _as_perm_group(stable.rows)
            result = psi(stable)
            assert result.j_handle.members == tuple(sorted(_orbit(p_group, 0)))
            assert orbit_coset_check(stable, result) == _reference_orbit_coset(
                group, p_group, result.j_handle.members)


def test_stable_subgroups_rejects_n_not_normalized_by_lambda():
    group = build_group("D3")
    n_group = closure([Permutation.from_cycles([(0, 1, 2, 3, 4, 5)], 6)], 6)
    assert is_regular(rows_of(n_group)) and not normalizes(left_regular(group), n_group)
    with pytest.raises(TheoremViolation, match=r"N of class C6 and provenance \('test', 0\) "
                                               r"is not normalized by lambda\(G\) "
                                               r"\(G = FiniteGroup\(D3\)\)"):
        HgsRecord.from_rows(group, rows_of(n_group), iso_class(as_finite_group(n_group)),
                            ("test", 0))


def test_given_n_that_is_not_regular_is_named_so():
    """lambda(C2 x C2) normalizes <(0 1), (2 3)>, which fixes points: the rows are not regular."""
    group = build_group("C2 x C2")
    n_group = closure([Permutation.from_cycles([(0, 1)], 4), Permutation.from_cycles([(2, 3)], 4)], 4)
    assert not is_regular(rows_of(n_group)) and normalizes(left_regular(group), n_group)
    with pytest.raises(TheoremViolation,
                       match=r"N of class C2\^2 and provenance \('test', 1\) is not regular "
                             r"\(G = FiniteGroup\(C2 x C2\)\)"):
        HgsRecord.from_rows(group, rows_of(n_group), iso_class(build_group("C2 x C2")),
                            ("test", 1))


def test_census_builds_block_images_once_per_j_and_psi_once_per_stable(monkeypatch):
    spaces, psi_calls, block_perms = Counter(), Counter(), Counter()
    real_space, real_psi, real_block_perm = (
        correspond.coset_space, correspond.psi, correspond.induced_block_perm)

    def counted_space(group, j_handle):
        spaces[j_handle.members] += 1
        return real_space(group, j_handle)

    def counted_psi(stable):
        psi_calls[id(stable)] += 1
        return real_psi(stable)

    def counted_block_perm(rows, space):
        block_perms[space.blocks[0]] += len(rows)  # the identity block is J
        return real_block_perm(rows, space)

    monkeypatch.setattr(correspond, "coset_space", counted_space)
    monkeypatch.setattr(correspond, "psi", counted_psi)
    monkeypatch.setattr(correspond, "induced_block_perm", counted_block_perm)
    catalog_d21 = catalog_group("D21")  # shared by every caller, so copy it
    group = FiniteGroup(catalog_d21.elements, catalog_d21.table, spec=catalog_d21.spec)
    records = enumerate_hgs(group)
    all_sets = frozenset(h.members for h in subgroups(group))
    stables = {r.key: stable_subgroups(r) for r in records}
    onto = [psi_onto(record, stables[record.key], all_sets) for record in records]
    rows = correspondence_rows(group, records, verify=True, stables_by_record=stables)

    assert any(onto) and not all(onto)
    assert psi_calls and set(psi_calls.values()) == {1}
    assert len(psi_calls) == sum(map(len, stables.values()))
    assert spaces and set(spaces.values()) == {1}
    # lambda(G)'s 42 block images once per J, then N's 42 per verified pair: one pair per
    # proper nontrivial P normal in the first N of each Aut(G)-orbit
    pairs = [(record.key, s.p_handle.members)
             for record, _ in orbit_representatives(records) for s in stables[record.key]
             if s.normal_in_n and 1 < s.order < 42]
    assert (len(pairs), sum(row.count for row in rows)) == (34, 218)
    assert sum(block_perms.values()) == 42 * (len(spaces) + len(pairs))


# -- the lattice of N's class, carried into each record -------------------------

LATTICE_GROUPS = [name for order in (1, 2, 3, 4, 6, 7, 8, 12) for name in catalog_names(order)]


@pytest.mark.parametrize("g_name", LATTICE_GROUPS + ["D21"])
def test_carried_lattice_matches_lattice_of_n_table(g_name):
    for record in enumerate_hgs(catalog_group(g_name)):
        n_table, conj = semiregular_group(record.rows), record.lambda_conj
        expected = [h for h in subgroups(n_table)
                    if np.isin(conj[:, h.members], h.members).all()]
        stables = stable_subgroups(record)
        assert [s.p_handle.members for s in stables] == [h.members for h in expected]
        for stable, handle in zip(stables, expected):
            assert stable.normal_in_n == is_normal(n_table, handle)
            assert stable.p_class == iso_class(semiregular_group(n_table.rows[list(handle.members)]))


CATALOG_NAMES = [name for order in (1, 2, 3, 4, 6, 7, 8, 12, 14, 21, 24, 42)
                 for name in catalog_names(order)]


@pytest.mark.parametrize("g_name", CATALOG_NAMES)
def test_core_gather_matches_the_reference_loops(g_name):
    group = catalog_group(g_name)
    lattice = correspond._class_lattice(g_name)
    cores = core_masks(lattice.mask, group.conjugation)
    for handle, core, normal in zip(lattice.subgroups, cores, lattice.normal):
        expected = reference_core_of(group, handle).members
        assert tuple(np.flatnonzero(core).tolist()) == core_of(group, handle).members == expected
        assert normal == is_normal(group, handle)


# sha256 over every catalog group's subgroups, each with its normality, core
# members and coset space fields, taken when cores and cosets were Python loops
# over single products
LATTICE_FACTS_SHA256 = "8d9ad86bbd0c3a2a55c863aada3705a1808c46b0692a905a0af6e51b69560ff1"


def test_lattice_normality_cores_and_cosets_match_the_pinned_digest():
    facts = {}
    for name in CATALOG_NAMES:
        group = catalog_group(name)
        lattice = correspond._class_lattice(name)
        assert [h.members for h in lattice.subgroups] == [h.members for h in subgroups(group)]
        facts[name] = []
        for handle, normal in zip(lattice.subgroups, lattice.normal):
            space = coset_space(group, handle)
            facts[name].append([
                list(handle.members), normal, list(core_of(group, handle).members),
                [list(b) for b in space.blocks], list(space.representatives),
                [int(x) for x in space.block_index]])
    text = json.dumps(facts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LATTICE_FACTS_SHA256


@pytest.mark.parametrize("g_name", LATTICE_GROUPS)
def test_given_n_path_agrees_with_the_enumerated_path(g_name):
    group = catalog_group(g_name)
    for record in enumerate_hgs(group):
        # given in reverse order: from_rows sorts them
        given = HgsRecord.from_rows(group, record.rows[::-1], record.n_class, record.provenance)
        assert np.array_equal(given.rows, record.rows)
        assert np.array_equal(given.lambda_conj, record.lambda_conj)
        n_table = semiregular_group(given.rows).table
        m_table = catalog_group(record.n_class.name).table
        m_to_n = given.m_to_n.tolist()
        assert sorted(m_to_n) == list(range(group.order))
        assert all(n_table[m_to_n[a]][m_to_n[b]] == m_to_n[m_table[a][b]]
                   for a in range(group.order) for b in range(group.order))
        assert [(s.p_handle.members, s.normal_in_n, s.p_class) for s in stable_subgroups(given)] \
            == [(s.p_handle.members, s.normal_in_n, s.p_class) for s in stable_subgroups(record)]


def test_given_n_gets_its_lattice_from_an_isomorphism():
    from hgw.fixture24 import DEGREE, _regular_identification, load_generators

    g_abs = _regular_identification(rows_of(closure(load_generators("g"), DEGREE)))
    n_group = closure(load_generators("n"), DEGREE)
    record = HgsRecord.from_rows(g_abs, rows_of(n_group), iso_class(as_finite_group(n_group)),
                                 ("paper24", 0))
    n_table = semiregular_group(record.rows)
    m_table = catalog_group("A4 x C2").table
    m_to_n = record.m_to_n.tolist()
    assert all(n_table.table[m_to_n[a]][m_to_n[b]] == m_to_n[m_table[a][b]]
               for a in range(DEGREE) for b in range(DEGREE))
    expected = [h for h in subgroups(n_table)
                if np.isin(record.lambda_conj[:, h.members], h.members).all()]
    stables = stable_subgroups(record)
    assert [(s.p_handle.members, s.normal_in_n) for s in stables] == [
        (h.members, is_normal(n_table, h)) for h in expected]


def test_given_n_of_the_wrong_class_is_a_theorem_violation():
    group = build_group("C6")
    n_group = left_regular(group)
    with pytest.raises(TheoremViolation,
                       match=r"provenance \('test', 3\) is not isomorphic to its class D3 "
                             r"\(G = FiniteGroup\(C6\)\)"):
        HgsRecord.from_rows(group, rows_of(n_group), iso_class(build_group("D3")), ("test", 3))


def test_given_n_with_a_bijection_that_is_no_isomorphism_is_a_theorem_violation(monkeypatch):
    group = build_group("D3")
    record = _record_of_class(enumerate_hgs(group), "D3")
    real = enumeration.an_isomorphism

    def swapped(g1, g2):  # D3's element 1 has order 3 and element 3 order 2
        iso = real(g1, g2)
        return tuple(iso[{1: 3, 3: 1}.get(x, x)] for x in range(g1.order))

    monkeypatch.setattr(enumeration, "an_isomorphism", swapped)
    with pytest.raises(TheoremViolation,
                       match=r"provenance \('D3', \d+\) is not isomorphic to its class D3"):
        HgsRecord.from_rows(group, record.rows, record.n_class, record.provenance)


def test_given_n_of_another_degree_is_a_theorem_violation():
    """lambda(C6) is no N for C4: its degree is refused before any gather with lambda(C4)."""
    with pytest.raises(TheoremViolation,
                       match=r"N of class C6 and provenance \('test', 4\) has degree 6, "
                             r"but \|G\| = 4 \(G = FiniteGroup\(C4\)\)"):
        HgsRecord.from_rows(build_group("C4"), rows_of(left_regular(build_group("C6"))),
                            GroupClassLabel("C6", 6), ("test", 4))


def test_given_n_of_an_uncovered_order_is_a_usage_error():
    n_group = left_regular(build_group("C5"))
    with pytest.raises(UncoveredOrder, match="catalog does not cover order 5"):
        HgsRecord.from_rows(build_group("C5"), rows_of(n_group), GroupClassLabel("C5", 5),
                            ("test", 0))


def _count_calls(monkeypatch, func, counts, key, during=None):
    """Count calls of ``func`` under every hgw name bound to it, optionally only inside ``during``."""
    def counted(*args, **kwargs):
        if during is None or during[0]:
            counts[key] += 1
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "hgw" or name.startswith("hgw."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)


def test_d21_census_builds_one_lattice_per_class_and_j_data_once_per_j(monkeypatch, fresh_cache):
    # start from cold caches: each class lattice and G's data per J
    fresh_cache(correspond, "_class_lattice")
    for name in catalog_names(42):
        monkeypatch.delitem(vars(catalog_group(name)), "_psi", raising=False)
    counts, psi_calls, stables = Counter(), Counter(), []
    inside_psi = [0]
    real_psi, real_stable = correspond.psi, report.stable_subgroups

    def counted_psi(stable):
        psi_calls[id(stable)] += 1
        inside_psi[0] += 1
        try:
            return real_psi(stable)
        finally:
            inside_psi[0] -= 1

    def kept_stable(record):
        stables.append(real_stable(record))
        return stables[-1]

    _count_calls(monkeypatch, subgroups, counts, "subgroups")
    _count_calls(monkeypatch, correspond.core_of, counts, "core_of")
    _count_calls(monkeypatch, iso_class_of_rows, counts, "j class", during=inside_psi)
    monkeypatch.setattr(correspond, "psi", counted_psi)
    monkeypatch.setattr(report, "stable_subgroups", kept_stable)
    census = report.group_census(catalog_group("D21"))

    classes = {r.n_class.name for r in census.records}
    j_count = len(subgroups(catalog_group("D21")))
    assert (len(census.records), len(classes), j_count) == (45, 4, 36)
    assert counts["subgroups"] == len(classes) + 1  # one lattice per class M, plus G's
    assert counts["core_of"] == counts["j class"] == j_count
    assert set(psi_calls.values()) == {1} and len(psi_calls) == sum(map(len, stables))


# sha256 of the md correspondence table of each catalog group of orders 8, 12 and
# 14, taken when P's class was still read from a lattice built on each N's table
TABLE_SHA256_SMALL = {
    "C8": "dc0dfdbe180891710a7cca411aba83f3557f80610a7d4fa5c0b05d6a9ae0a5bd",
    "C4 x C2": "05b281ce3e616cae01abb37d6eef10c16782a8a6f54238ea1a971f759aed41e2",
    "C2^3": "513c658c973bc59e2bdaf7ca0599397d1efc51c648cf4a2e9881d8e80c6f6c32",
    "D4": "ee95be9d3751b0ef148b55e0b8ff10d8f9ca2e5d5c74b79520c26e95c90c75d5",
    "Q8": "42d35083fc1a48d83da79d874022e77dfffb4a0f58160119d4a282df91675613",
    "C12": "e0d47fde8fd995d8cdb581d73d580cb3adf7f9566aee96e15e276a3d5cb54a06",
    "C6 x C2": "f871fed81af142f258a8c4f276417345e7790976e13f0d1c158e18a3f247eb1b",
    "D6": "6f838c916748122220425562f0f201c8aabe12aadc0373a9d45622f8255d2913",
    "A4": "34e95b8b5b22257df73a4386417789e87cccee93d45b96c26da8dee8765e8803",
    "Dic3": "28600a0c8d62881c75d9f60a6b6bf2934776721c38715e86e5d989f5313d7626",
    "C14": "4aafcd44525f47057cb96d95f88edf077317a4c3d9a9213ae18743f53959dc38",
    "D7": "3a32797cb08ca1f68edd7dc925235fb777afda504435fcb8891f4a49fe7c826e",
}


@pytest.mark.parametrize("g_name", sorted(TABLE_SHA256_SMALL))
def test_small_correspondence_tables_pinned(g_name):
    text = correspondence_table_doc(report.group_census(catalog_group(g_name)).rows, "md").render()
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256_SMALL[g_name]


# -- the orbit census against the per-record census it replaced -------------------


def _per_record_census(group, records):
    """Reference: every (N, P) pair of every record verified and counted on its own."""
    counts = Counter()
    for record in records:
        for stable in stable_subgroups(record):
            if not stable.normal_in_n or stable.order in (1, len(record.rows)):
                continue
            result = stable.psi_result
            correspond._verify_pair(stable, result)
            counts[(record.n_class.name, stable.p_class.name, result.j_class.name,
                    result.normal_in_g, result.core_order)] += 1
    return counts


def _as_counts(rows):
    counts = Counter({row.key(): row.count for row in rows})
    assert len(counts) == len(rows) and all(row.count > 0 for row in rows)
    return counts


ORBIT_CENSUS_GROUPS = ([name for order in (1, 2, 3, 4, 6, 7, 8, 12, 14, 21, 42)
                        for name in catalog_names(order)] + ["C24", "SL(2,3)", "C3:C8"])


@pytest.mark.parametrize("g_name", ORBIT_CENSUS_GROUPS)
def test_orbit_census_matches_the_per_record_census(g_name):
    group = catalog_group(g_name)
    records = enumerate_hgs(group)
    assert _as_counts(correspondence_rows(group, records)) == _per_record_census(group, records)


@pytest.mark.parametrize("g_name", ["D4", "A4", "Dic3", "D6", "C7:C3"])
def test_orbit_census_counts_shuffled_partial_and_given_lists(g_name):
    """Each orbit is weighted by its records in the list given, whatever their order;
    a given record is its own orbit, even next to the enumerated record of its N."""
    group = catalog_group(g_name)
    records = enumerate_hgs(group)
    rng = random.Random(g_name)
    given = [HgsRecord.from_rows(group, r.rows, r.n_class, ("given", i))
             for i, r in enumerate(rng.sample(records, 3))]
    lists = [rng.sample(records, len(records)), rng.sample(records, len(records) // 2),
             records[1::3], given, records + given + given[:1]]
    for sublist in lists:
        assert _as_counts(correspondence_rows(group, sublist)) == \
            _per_record_census(group, sublist)
    assert correspondence_rows(group, []) == []


# each but D21 has an onto N whose Aut(G)-orbit holds two or more structures
@pytest.mark.parametrize("g_name", ["C4 x C2", "Q8", "C6 x C2", "C21", "C42", "D21"])
def test_group_census_onto_counts_match_the_per_record_test(g_name):
    census = report.group_census(catalog_group(g_name))
    all_sets = frozenset(h.members for h in subgroups(census.group))
    onto = Counter(r.n_class.name for r in census.records
                   if psi_onto(r, stable_subgroups(r), all_sets))
    assert census.onto_counts == dict(onto)
    assert _as_counts(census.rows) == _per_record_census(census.group, census.records)


# -- the array block layer against the permutation one it replaced ---------------


def _reference_block_perm(perm, space):
    """The permutation of block indices induced by a block-respecting map."""
    images = []
    for i, block in enumerate(space.blocks):
        j = space.block_index[perm.images[block[0]]]
        if {perm.images[x] for x in block} != set(space.blocks[j]):
            raise BlockSystemViolation(
                f"permutation does not map block {i} onto a block", block=block)
        images.append(j)
    if sorted(images) != list(range(space.block_count)):
        raise BlockSystemViolation("induced block map is not a bijection")
    return Permutation(images)


def _reference_image_group(images, degree):
    perms = sorted(set(images))
    return PermGroup(degree, generating_subset_of(perms), perms)


def _image_rows(perms):
    return [list(p.images) for p in perms]


SMALL_CATALOG = [name for order in (1, 2, 3, 4, 6, 7, 8, 12) for name in catalog_names(order)]


@pytest.mark.parametrize("g_name", SMALL_CATALOG)
def test_block_images_match_permutation_reference(g_name):
    group = catalog_group(g_name)
    pairs = 0
    for record in enumerate_hgs(group):
        n_group = record.n_group
        for stable in stable_subgroups(record):
            if not stable.normal_in_n or stable.order in (1, group.order):
                continue
            result = stable.psi_result
            quotient = quotient_structure(stable, result)
            space = result.space
            nbar_of = [_reference_block_perm(p, space) for p in n_group.elements]
            gbar_of = [_reference_block_perm(Permutation(group.table[g]), space)
                       for g in range(group.order)]
            nbar = _reference_image_group(nbar_of, space.block_count)
            gbar = _reference_image_group(gbar_of, space.block_count)
            assert quotient.nbar_of.tolist() == _image_rows(nbar_of)
            assert result.gbar_of.tolist() == _image_rows(gbar_of)
            assert quotient.nbar.tolist() == _image_rows(nbar.elements)
            assert result.gbar.tolist() == _image_rows(gbar.elements)
            assert is_regular(rows_of(gbar)) == result.normal_in_g
            pairs += 1
    assert pairs or group.order in (1, 2, 3, 7)  # prime orders have no proper P


# -- every contract of quotient_structure, tripped one at a time ------------------


def _fresh(name):
    """A private copy of a catalog group: its lambda(G) block images are cached on it."""
    base = catalog_group(name)
    return FiniteGroup(base.elements, base.table, spec=base.spec)


def _lambda_record(group):
    table = {bytes(row) for row in group.table}
    return next(r for r in enumerate_hgs(group) if set(map(bytes, r.rows)) == table)


def _order_two_pair(name):
    """N = lambda(G), its stable P of order 2 and J = Psi(P) (normal: G is abelian)."""
    record = _lambda_record(_fresh(name))
    stable = next(s for s in stable_subgroups(record) if s.order == 2)
    return record, stable, psi(stable)


def _swap_blocks(space, a, b):
    """The point map that swaps blocks a and b point by point and fixes every other point."""
    images = list(range(len(space.block_index)))
    for x, y in zip(space.blocks[a], space.blocks[b]):
        images[x], images[y] = y, x
    return images


def _tamper_lambda(monkeypatch, tamper):
    """Rewrite lambda(G)'s point maps once the cosets of J are built.

    The coset space stays that of the real G; only the block images of
    lambda(G), which are read from G's rows afterwards, change.
    """
    real = correspond.coset_space

    def space_then_tamper(group, j_handle):
        space = real(group, j_handle)
        rows = [list(row) for row in group.table]
        tamper(group, space, rows)
        group.table = tuple(map(tuple, rows))
        vars(group)["rows"] = np.array(rows, dtype=np.uint8)  # lambda(G)'s cached rows
        return space

    monkeypatch.setattr(correspond, "coset_space", space_then_tamper)


def _case_p_not_normal(monkeypatch):
    record, stable, result = _order_two_pair("C6")
    return StableSubgroup(record, stable.p_handle, normal_in_n=False), result


def _case_kernel(monkeypatch):
    # J = {1}: the blocks are points, so N acts faithfully and its kernel is not P
    record, stable, _ = _order_two_pair("C6")
    trivial = next(s for s in stable_subgroups(record) if s.order == 1)
    return stable, psi(trivial)


def _case_nbar_regular(monkeypatch):
    # lambda(D3) on the three cosets of a non-normal J of order 2 is S3, faithful
    group = _fresh("D3")
    record = _lambda_record(group)
    trivial = next(s for s in stable_subgroups(record) if s.order == 1)
    j_handle = next(h for h in subgroups(group) if h.order == 2)
    return trivial, dataclasses.replace(psi(trivial), j_handle=j_handle)


def _case_gbar_transitive(monkeypatch):
    def identity_rows(group, space, rows):
        rows[:] = [list(range(group.order))] * group.order

    _tamper_lambda(monkeypatch, identity_rows)
    _, stable, result = _order_two_pair("C6")
    return stable, result


def _case_gbar_normalizes(monkeypatch):
    # Nbar is a 4-cycle through blocks 0 and b; the transposition (0 b) does not normalize it
    def transposition(group, space, rows):
        h = group.element_orders().index(8)
        rows[h] = _swap_blocks(space, 0, space.block_index[h])

    _tamper_lambda(monkeypatch, transposition)
    _, stable, result = _order_two_pair("C8")
    return stable, result


def _case_lambda_j_moves_block(monkeypatch):
    def move_by_j(group, space, rows):
        rows[space.blocks[0][1]] = _swap_blocks(space, 1, 2)

    _tamper_lambda(monkeypatch, move_by_j)
    _, stable, result = _order_two_pair("C6")
    return stable, result


def _case_gbar_regular(monkeypatch):
    def extra_transposition(group, space, rows):
        rows[space.blocks[1][0]] = _swap_blocks(space, 0, 1)

    _tamper_lambda(monkeypatch, extra_transposition)
    _, stable, result = _order_two_pair("C6")
    return stable, result


def _case_lambda_j_moves_coset(monkeypatch):
    record, stable, result = _order_two_pair("C6")
    conj = record.lambda_conj.copy()
    j = result.j_handle.members[1]
    outside = next(i for i in range(len(conj[j])) if i not in stable.p_handle.members)
    conj[j][[0, outside]] = conj[j][[outside, 0]]
    vars(record)["lambda_conj"] = conj
    return stable, result


@pytest.mark.parametrize("case, message", [
    (_case_p_not_normal, "quotient structure requires P normal in N"),
    (_case_kernel, "kernel of the block action of N is not exactly P"),
    (_case_nbar_regular, "block image of N is not regular of order [N:P]"),
    (_case_gbar_transitive, "block image of lambda(G) is not transitive"),
    (_case_gbar_normalizes, "block image of lambda(G) does not normalize that of N"),
    (_case_lambda_j_moves_block, "lambda(j) moves a block although J is normal"),
    (_case_gbar_regular, "block image of lambda(G) is not regular of order [G:J]"),
    (_case_lambda_j_moves_coset, "conjugation by lambda(j) moves a coset nP although J is normal"),
], ids=["p_not_normal", "kernel", "nbar_regular", "gbar_transitive", "gbar_normalizes",
        "lambda_j_block", "gbar_regular", "lambda_j_coset"])
def test_quotient_contract_violations_raise(monkeypatch, case, message):
    stable, result = case(monkeypatch)
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        quotient_structure(stable, result)


def test_census_violations_name_g_n_and_p(monkeypatch):
    """A census contract failure names G, N's class and provenance, and P's members."""
    case = (r" \(G = FiniteGroup\(C6\), N of class C6 and provenance \('C6', 0\), "
            r"P = \(0, 3\)\)$")
    stable, result = _case_kernel(monkeypatch)
    with pytest.raises(TheoremViolation,
                       match=r"^kernel of the block action of N is not exactly P" + case):
        quotient_structure(stable, result)
    monkeypatch.setattr(correspond, "orbit_coset_check", lambda stable, result: False)
    with pytest.raises(TheoremViolation,
                       match=r"^a P-orbit is not the matching left coset of Psi\(P\)" + case):
        report.group_census(_fresh("C6"))
