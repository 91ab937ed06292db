import gc
import hashlib
import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import hgw.enumeration as enumeration
import hgw.groups as groups
from hgw import regsearch
from hgw import catalog
from hgw.catalog import CATALOG, catalog_group, catalog_invariant, catalog_names, iso_class
from hgw.dsl import build_group
from hgw.enumeration import (HgsRecord, count_formula_report, direct_enumerate_oracle,
                             enumerate_hgs)
from hgw.errors import EnumerationOverflow, TheoremViolation, UncoveredOrder
from hgw.groups import (
    FiniteGroup,
    all_isomorphisms,
    an_isomorphism,
    automorphisms,
    generating_subset_of,
    semiregular_group,
)
from hgw.perm import PermGroup, Permutation, normalizes
from perm_tables import as_finite_group, left_regular, right_regular, rows_of
from reference_data import ORDER_27_ENTRIES

SMALL_SPECS = ["C1", "C2", "C3", "C4", "C2 x C2", "C6", "D3", "C7",
               "C8", "C4 x C2", "C2 x C2 x C2", "D4", "Q8"]


def _element_sets(groups):
    return {frozenset(p.images for p in g.elements) for g in groups}


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_oracle_equivalence(spec):
    group = build_group(spec)
    records = enumerate_hgs(group)
    oracle = direct_enumerate_oracle(group)
    assert _element_sets(r.n_group for r in records) == _element_sets(oracle)


def test_oracle_degree_cap():
    with pytest.raises(EnumerationOverflow):
        direct_enumerate_oracle(build_group("C12"))


def test_enumeration_requires_catalog_coverage():
    with pytest.raises(UncoveredOrder, match="catalog does not cover order 10$"):
        enumerate_hgs(build_group("C10"))


def test_enumeration_order_cap():
    """Orders past the catalog are refused before any search starts."""
    with pytest.raises(UncoveredOrder, match="catalog does not cover order 50$"):
        enumerate_hgs(build_group("C50"))


def test_rho_always_enumerated():
    for spec in ["C6", "D3", "Q8"]:
        group = build_group(spec)
        lam = frozenset(p.images for p in left_regular(group).elements)
        rho = frozenset(p.images for p in right_regular(group).elements)
        found = _element_sets(r.n_group for r in enumerate_hgs(group))
        assert lam in found and rho in found


def test_every_record_sound():
    group = build_group("D3")
    lam = left_regular(group)
    for record in enumerate_hgs(group):
        assert regsearch.is_regular(rows_of(record.n_group))
        assert normalizes(lam, record.n_group)
        assert iso_class(as_finite_group(record.n_group)).name == record.n_class.name


def test_count_formula_small():
    for spec in ["C4", "C6", "D4"]:
        group = build_group(spec)
        for row in count_formula_report(group):
            assert row["lhs"] == row["rhs"], (spec, row)


def test_count_formula_reads_aut_g_from_the_enumeration(monkeypatch, fresh_cache):
    group = build_group("D4")
    seen = []
    real = groups.all_isomorphisms

    def counted(g1, g2):
        seen.append((g1, g2))
        return real(g1, g2)

    # both names: the enumeration's own alias and the module attribute Hol(M) reads
    monkeypatch.setattr(groups, "all_isomorphisms", counted)
    monkeypatch.setattr(enumeration, "all_isomorphisms", counted)
    fresh_cache(enumeration, "_hol_data")
    rows = count_formula_report(group)
    assert sum(g1 is group and g2 is group for g1, g2 in seen) == 1
    models = [g1 for g1, g2 in seen if g1 is not group]
    assert models == [catalog_group(m) for m in catalog_names(8)]
    assert all(g2 is g1 for g1, g2 in seen)
    assert {row["aut_g"] for row in rows} == {8}
    assert all(row["lhs"] == row["rhs"] for row in rows)


def test_count_formula_classifies_g_once(monkeypatch):
    """G's class is read from the enumeration's lambda(G) record, not classified again."""
    calls = []
    real = enumeration.iso_class

    def counted(group):
        calls.append(group)
        return real(group)

    monkeypatch.setattr(enumeration, "iso_class", counted)
    group = build_group("D4")
    rows = count_formula_report(group)
    assert calls == [group]
    assert all(row["lhs"] == row["rhs"] for row in rows)


def test_c6_known_distribution():
    counts = Counter(r.n_class.name for r in enumerate_hgs(build_group("C6")))
    assert counts == {"C6": 1, "D3": 2}
    counts = Counter(r.n_class.name for r in enumerate_hgs(build_group("D3")))
    assert counts == {"C6": 3, "D3": 2}


def test_contracts_run_once_per_structure(monkeypatch):
    calls = Counter()
    real = enumeration._lambda_conjugation

    def counted(group, rows):
        calls["normalized"] += 1
        return real(group, rows)

    monkeypatch.setattr(enumeration, "_lambda_conjugation", counted)
    records = enumerate_hgs(build_group("D4"))
    assert calls == {"normalized": len(records)}
    for record in records:  # the check built lambda_conj; reading it checks nothing again
        assert record.lambda_conj.shape == (8, 8)
    assert calls == {"normalized": len(records)}


def _first_iso_only(g, v):
    return all_isomorphisms(g, v)[:1]


def _constant_iso(g, v):
    return [(0,) * g.order for _ in all_isomorphisms(g, v)]


def _non_homomorphism(g, v):
    # precomposing with a swap of an element of order 3 and one of order 2 breaks the law
    return [tuple(iso[{1: 3, 3: 1}.get(x, x)] for x in range(g.order))
            for iso in all_isomorphisms(g, v)]


_REAL_LAMBDA_CONJUGATION = enumeration._lambda_conjugation


def _lambda_of_c6(group, rows):
    # lambda(C6) on D3's element indices normalizes none of D3's structures
    return _REAL_LAMBDA_CONJUGATION(build_group("C6"), rows)


_REAL_AN_ISOMORPHISM = enumeration.an_isomorphism


def _no_search_onto_v(g1, g2):
    # G -> M_G is found, but no search from M_G onto a regular subgroup V of a
    # holomorph is; D3's invariant is no other class's, so each such V is of class D3
    return _REAL_AN_ISOMORPHISM(g1, g2) if g2 is catalog_group("D3") else None


_REAL_CONJUGATE_BY = enumeration._conjugate_by


def _corrupt_lambda_of_d3(rows0, alpha, alpha_inv):
    # the N built for lambda(D3) gets the images of 1 and 2 swapped: it is still
    # regular, but no longer b^-1 lambda(M) b
    rows = _REAL_CONJUGATE_BY(rows0, alpha, alpha_inv)
    return rows[:, [0, 2, 1, 3, 4, 5]] if np.array_equal(rows, build_group("D3").rows) else rows


_REAL_STABILISER = enumeration._stabiliser


def _dropped_stabiliser(rows0, gens, aut_g, aut_inv):
    # St without its last row, never the identity when |St| > 1: a subgroup still,
    # but two of its cosets give one N
    return _REAL_STABILISER(rows0, gens, aut_g, aut_inv)[:-1]


def _stabiliser_outside_aut_g(rows0, gens, aut_g, aut_inv):
    # St and the swap of elements 1 and 3, of orders 3 and 2: no automorphism of D3
    foreign = np.array([[0, 3, 2, 1, 4, 5]], dtype=np.uint8)
    return np.concatenate([_REAL_STABILISER(rows0, gens, aut_g, aut_inv), foreign])


def _stabiliser_without_identity(rows0, gens, aut_g, aut_inv):
    return _REAL_STABILISER(rows0, gens, aut_g, aut_inv)[1:]


def _stabiliser_and_one_more(rows0, gens, aut_g, aut_inv):
    # St and the least automorphism outside it, if any: no longer closed
    st = _REAL_STABILISER(rows0, gens, aut_g, aut_inv)
    outside = aut_g[~(aut_g[:, None] == st[None]).all(axis=2).any(axis=1)]
    return np.concatenate([st, outside[:1]])


def _one_class(image):
    # every V of one invariant put into a single Aut(M)-class, led by the least
    return np.zeros(image.shape[1], dtype=np.intp)


@pytest.mark.parametrize("attr, fake, message", [
    ("all_isomorphisms", _first_iso_only, "expected |Aut(M)|"),
    ("all_isomorphisms", _constant_iso, "has a base map that is not bijective"),
    ("all_isomorphisms", _non_homomorphism, "differs from lambda(G)"),
    ("_lambda_conjugation", _lambda_of_c6, "not normalized by lambda(G)"),
    ("an_isomorphism", _no_search_onto_v,
     "regular subgroup of Hol(C6) classed D3 is not isomorphic to D3"),
    ("_conjugate_by", _corrupt_lambda_of_d3, "is not b^-1 lambda(D3) b"),
    ("_stabiliser", _dropped_stabiliser,
     "N of class C6 and provenance ('C6', 2) arose again from embedding 3, in another coset of "
     "its stabiliser in Aut(G): the stabiliser misses an automorphism (G = FiniteGroup(D3))"),
    ("orbit_leaders", _one_class,
     "N of class D3 and provenance ('D3', 0) arose from 6 embeddings of its class's least V, "
     "expected |Aut(M)| / |class| = 6 / 2 (G = FiniteGroup(D3))"),
    ("_stabiliser", _stabiliser_outside_aut_g,
     "N of class C6 and provenance ('C6', 0) has a stabiliser in Aut(G) of 3 automorphisms "
     "that is not a subgroup: its coset through this embedding leaves Aut(G)"),
    ("_stabiliser", _stabiliser_without_identity,
     "N of class C6 and provenance ('C6', 0) has a stabiliser in Aut(G) of 1 automorphisms "
     "that is not a subgroup: its coset through this embedding misses this embedding"),
    ("_stabiliser", _stabiliser_and_one_more,
     "N of class C6 and provenance ('C6', 2) has a stabiliser in Aut(G) of 3 automorphisms "
     "that is not a subgroup: its coset through this embedding reaches an embedding twice"),
], ids=["multiplicity", "base_map", "beta_is_lambda", "normalized", "v_of_g_class",
        "n_is_transport", "orbit_stabiliser", "class_multiplicity", "stabiliser_leaves_aut_g",
        "stabiliser_without_identity", "stabiliser_not_closed"])
def test_contract_violations_raise(monkeypatch, fresh_cache, attr, fake, message):
    group = build_group("D3")
    assert group.element_orders()[1] == 3 and group.element_orders()[3] == 2
    monkeypatch.setattr(enumeration, attr, fake)
    fresh_cache(enumeration, "_hol_data")  # every V of class D3 searched anew
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        enumerate_hgs(group)


def test_one_class_walked_as_two_leaders_is_a_theorem_violation(monkeypatch, fresh_cache):
    """A second member of one Aut(M)-class walked as a leader, with its own isomorphism and
    the true class size, gives again the N of the class's least V: Byott's translation
    gives each class its own orbit, so the first repeat raises, before any count."""
    real = enumeration._HolData.isomorphic_to

    def with_a_second_leader(hol, class_name):
        classes = real(hol, class_name)
        if hol.m_name == "C2^2" and len(classes.leaders) == 1:
            (_, _, _, size), = classes.leaders
            assert size == len(classes.positions) == 3  # one class holds the three V = C4
            rows = hol.subgroups[classes.positions[1]]
            iso = an_isomorphism(catalog_group(class_name), semiregular_group(rows))
            classes.leaders.append((1, rows, iso, size))
        return classes

    monkeypatch.setattr(enumeration._HolData, "isomorphic_to", with_a_second_leader)
    fresh_cache(enumeration, "_hol_data")  # the appended leader goes with the test
    with pytest.raises(TheoremViolation, match=re.escape(
            "N of class C2^2 and provenance ('C2^2', 0) arose again from embedding 2, of another "
            "class leader: distinct Aut(M)-classes give distinct orbits (G = FiniteGroup(C4))")):
        enumerate_hgs(catalog_group("C4"))


def _conjugate_by(rows, alpha):
    """alpha N alpha^-1 for N's rows and alpha a permutation of G's indices, sorted like N's."""
    conj = alpha[rows[:, np.argsort(alpha)]]
    return conj[np.argsort(conj[:, 0])]


ORBIT_GROUPS = [name for order in (1, 2, 3, 4, 6, 7, 8, 12, 14) for name in catalog_names(order)]


@pytest.mark.parametrize("g_name", ORBIT_GROUPS)
def test_orbit_tags_are_the_aut_g_orbits(g_name):
    """The records of one (class, orbit) tag are exactly one orbit of N -> alpha N alpha^-1."""
    group = catalog_group(g_name)
    records = enumerate_hgs(group)
    aut_g = np.array(all_isomorphisms(group, group), dtype=np.uint8)
    tags = {r.key: (r.n_class.name, r.orbit) for r in records}
    for record in records:
        orbit = {_conjugate_by(record.rows, alpha).tobytes() for alpha in aut_g}
        assert orbit == {key for key, tag in tags.items() if tag == tags[record.key]}
    given = HgsRecord.from_rows(group, records[0].rows, records[0].n_class, ("given", 0))
    assert given.orbit is None


def _eager_class_tables(hol, class_name):
    """Reference: every regular subgroup's table built by composing rows, then classified."""
    out = []
    for rows in hol.subgroups:
        sorted_rows = sorted(map(bytes, rows))
        index = {r: i for i, r in enumerate(sorted_rows)}
        # (p o q)(x) = p[q[x]]
        table = [[index[bytes(p[x] for x in q)] for q in sorted_rows] for p in sorted_rows]
        abstract = FiniteGroup([str(i) for i in range(len(table))], table)
        if iso_class(abstract).name == class_name:
            out.append((sorted_rows, abstract.table))
    return out


SMALL_CATALOG = [name for order in (1, 2, 3, 4, 6, 7, 8, 12) for name in catalog_names(order)]


@pytest.mark.parametrize("g_name", SMALL_CATALOG)
def test_lazy_classification_and_beta0_composition(g_name):
    group = catalog_group(g_name)
    aut_g = np.array(all_isomorphisms(group, group))
    for m_name in catalog_names(group.order):
        hol = enumeration._hol_data(m_name)
        classes = hol.isomorphic_to(g_name)
        every_v = hol.subgroups[classes.positions]
        expected = _eager_class_tables(hol, g_name)
        assert [([bytes(r) for r in rows], semiregular_group(rows).table) for rows in every_v] \
            == expected, (g_name, m_name)
        for v_index, rows, iso, _ in classes.leaders:  # only leaders are searched
            assert np.array_equal(rows, hol.subgroups[classes.positions[v_index]])
            assert iso in all_isomorphisms(group, semiregular_group(rows)), (g_name, m_name)
        for rows in every_v:
            table = semiregular_group(rows)
            beta0 = np.array(an_isomorphism(group, table))
            assert sorted(map(tuple, beta0[aut_g].tolist())) \
                == all_isomorphisms(group, table), (g_name, m_name)


def _relabelled(group, seed):
    """``group`` with its non-identity elements shuffled: new element i is old element order[i]."""
    order = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(group.order - 1)])
    table = np.argsort(order)[np.array(group.table)[np.ix_(order, order)]]
    return FiniteGroup(range(group.order), table, spec=f"{group.spec} relabelled by seed {seed}")


def test_each_v_is_searched_once_per_class(monkeypatch, fresh_cache):
    """One search M_G -> V per Aut(M)-class of V: only each class's least V is searched."""
    d4 = catalog_group("D4")
    first, second = _relabelled(d4, 71), _relabelled(d4, 72)
    assert first.table != d4.table and second.table != first.table
    calls = []

    def counted(g1, g2):
        calls.append((g1, g2))
        return an_isomorphism(g1, g2)

    fresh_cache(enumeration, "_hol_data")
    monkeypatch.setattr(enumeration, "an_isomorphism", counted)
    monkeypatch.setattr(groups, "an_isomorphism", counted)
    counts = Counter(r.n_class.name for r in enumerate_hgs(first))
    classes = [enumeration._hol_data(m).isomorphic_to("D4") for m in catalog_names(8)]
    leader_count = sum(len(c.leaders) for c in classes)
    v_count = sum(len(c.positions) for c in classes)
    assert (leader_count, v_count) == (14, 153)  # Hol(C2^3) alone has 126 V in 2 classes
    # G -> M_G, then M_G -> V once for the least V of each Aut(M)-class of class D4
    assert calls[0] == (first, d4) and len(calls) == 1 + leader_count
    assert all(g1 is d4 for g1, _ in calls[1:])
    calls.clear()
    # every M_G -> V is cached: the second relabelling searches only G -> M_G
    assert Counter(r.n_class.name for r in enumerate_hgs(second)) == counts
    assert calls == [(second, d4)]


def test_hol_he3_searches_each_c3_cubed_leader_once(monkeypatch):
    """He3 shares C3^3's order spectrum {1, 3^26}, but not its invariant: Hol(He3) searches
    once per class leader of its C3^3-type V and never misses."""
    monkeypatch.setitem(CATALOG, 27, ORDER_27_ENTRIES)
    results = []

    def counted(g1, g2):
        results.append(an_isomorphism(g1, g2))
        return results[-1]

    monkeypatch.setattr(enumeration, "an_isomorphism", counted)
    classes = enumeration._HolData("He3", catalog_group("He3")).isomorphic_to("C3^3")
    assert len(classes.leaders) == len(results) == 5
    assert None not in results


def _aut_conjugates(rows0, aut_g, aut_inv):
    """Entry a is N_alpha = alpha^-1 N0 alpha: row x is alpha^-1 o rows0[alpha(x)] o alpha."""
    return aut_inv[np.arange(len(aut_g))[:, None, None],
                   rows0[aut_g[:, :, None], aut_g[:, None, :]]]


def _per_v_records(group, leaders_only=False):
    """Reference for the class-leader walk: every V with G's invariant searched for an
    isomorphism M_G -> V and walked, the N of all its |Aut(G)| embeddings built by one
    gather, and each N checked to arise |Aut(M)| times in all.

    With ``leaders_only``, the walk takes each Aut(M)-class's least V and its isomorphism
    from ``isomorphic_to``, and each N must arise |Aut(M)| / |class| times: the reference
    for the coset walk alone, without a search per V.
    """
    g_class = iso_class(group).name
    g_to_m = np.array(an_isomorphism(group, catalog_group(g_class)))
    aut_g = np.array(all_isomorphisms(group, group), dtype=np.intp)
    aut_inv = np.argsort(aut_g, axis=1).astype(np.uint8)
    out = []
    for m_name in catalog_names(group.order):
        hol = enumeration._hol_data(m_name)
        mul = hol.model.rows
        n_class = enumeration.GroupClassLabel(m_name, group.order)
        first, multiplicity = {}, Counter()
        if leaders_only:
            classes = hol.isomorphic_to(g_class)
            walk = [(v_index, hol.subgroups[classes.positions[v_index]], m_to_v, size)
                    for v_index, _, m_to_v, size in classes.leaders]
        else:
            invariants = catalog.class_invariants(hol.subgroups)
            matched = hol.subgroups[(invariants == catalog_invariant(g_class)).all(axis=1)]
            walk = [(v_index, v_rows, an_isomorphism(catalog_group(g_class),
                                                     semiregular_group(v_rows)), 1)
                    for v_index, v_rows in enumerate(matched)]
        for v_index, v_rows, m_to_v, size in walk:
            assert m_to_v is not None, (group, m_name)
            emb_id = v_index * len(aut_g)
            beta0 = np.array(m_to_v)[g_to_m]
            isos = beta0[aut_g]
            b0 = v_rows[beta0, 0].astype(np.intp)
            table0 = np.argsort(b0)[mul[:, b0]]
            rows0 = table0[np.argsort(table0[:, 0])].astype(np.uint8)
            n_rows = _aut_conjugates(rows0, aut_g, aut_inv)
            for a in np.lexsort(isos.T[::-1]).tolist():
                key = n_rows[a].tobytes()
                multiplicity[key] += size
                first.setdefault(key, (emb_id, v_index, v_rows[isos[a]], n_rows[a].copy()))
                emb_id += 1
        for key in sorted(first):
            first_id, v_index, beta, rows = first[key]
            assert multiplicity[key] == hol.aut_order, (group, m_name, first_id)
            b_inv = np.argsort(beta[:, 0].astype(np.intp))
            out.append(HgsRecord._checked(group, rows, n_class, (m_name, first_id), b_inv, v_index))
    return out


WALK_GROUPS = ([name for order in (1, 2, 3, 4, 6, 7, 8, 12, 14, 21, 42)
                for name in catalog_names(order)] + ["C24", "SL(2,3)", "C3:C8"])


def _assert_same_records(records, reference):
    assert len(records) == len(reference)
    for record, expected in zip(records, reference):
        assert record.key == expected.key
        assert (record.n_class, record.provenance, record.orbit) \
            == (expected.n_class, expected.provenance, expected.orbit)
        for field in ("m_to_n", "lambda_conj"):
            mine, theirs = getattr(record, field), getattr(expected, field)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("g_name", WALK_GROUPS)
def test_class_leader_walk_matches_the_per_v_walk(g_name):
    group = catalog_group(g_name)
    _assert_same_records(enumerate_hgs(group), _per_v_records(group))


def test_coset_walk_matches_the_full_gather_at_order_27(monkeypatch, fresh_cache):
    """The two non-abelian groups of order 27, with order 27 patched into the catalog, whose
    |Aut(G)| is 54 and 432: each V's N come from one coset of N0's stabiliser each, and
    must be those of all |Aut(G)| embeddings. The reference walks the class leaders only;
    searching every V, as at the catalog orders, takes He3 about 9 s (1,326 V in Hol(C3^3))."""
    monkeypatch.setitem(CATALOG, 27, ORDER_27_ENTRIES)
    fresh_cache(enumeration, "_hol_data")  # the order-27 holomorphs go with the test
    for g_name, count in (("C9:C3", 135), ("He3", 513)):
        group = catalog_group(g_name)
        records = enumerate_hgs(group)
        assert len(records) == count
        _assert_same_records(records, _per_v_records(group, leaders_only=True))


CLASS_MODELS = [name for order in (1, 2, 3, 4, 6, 7, 8, 12) for name in catalog_names(order)]


@pytest.mark.parametrize("m_name", CLASS_MODELS)
def test_v_classes_are_the_aut_m_conjugacy_classes(m_name):
    """Conjugating each V by all of Aut(M) gives exactly its class, led by its least V."""
    hol = enumeration._hol_data(m_name)
    position = {v.tobytes(): i for i, v in enumerate(hol.subgroups)}
    aut_m = automorphisms(hol.model)
    kinds = Counter(iso_class(semiregular_group(v)).name for v in hol.subgroups)
    for class_name in catalog_names(hol.model.order):
        classes = hol.isomorphic_to(class_name)
        found = {}
        for p in classes.positions.tolist():
            conjugates = {position[_conjugate_by(hol.subgroups[p], alpha).tobytes()]
                          for alpha in aut_m}
            found.setdefault(min(conjugates), conjugates)
            assert found[min(conjugates)] == conjugates
        assert [(p, len(c)) for p, c in sorted(found.items())] \
            == [(classes.positions[i], size) for i, _, _, size in classes.leaders], \
            (m_name, class_name)
        assert sorted(set().union(*found.values())) == classes.positions.tolist()
        assert sum(size for *_, size in classes.leaders) == kinds[class_name]


@pytest.mark.parametrize("m_name", [name for order in range(1, 25) for name in catalog_names(order)])
def test_aut_generators_generate_aut_m(m_name):
    # the stabiliser of 1's generators and one automorphism per point of 1's orbit that
    # the earlier generators miss: their closure is all of Aut(M)
    hol = enumeration._hol_data(m_name)
    gens = hol.aut_generators
    identity = np.arange(hol.model.order, dtype=np.uint8)
    seen, frontier = {}, {identity.tobytes(): identity}
    while frontier:
        seen.update(frontier)
        products = np.concatenate([gens[:, f] for f in frontier.values()])  # alpha o f
        frontier = {row.tobytes(): row for row in products if row.tobytes() not in seen}
    assert len(seen) == hol.aut_order


def test_aut_generators_of_c2_cubed_reach_1s_orbit_with_one_more_automorphism():
    # GL(3, 2) is transitive on the 7 non-identity points; the parent kept one
    # automorphism for each of the 6 other points of 1's orbit
    hol = enumeration._hol_data("C2^3")
    moved = hol.aut_generators[hol.aut_generators[:, 1] != 1]
    assert hol.aut_order == 168 and len(moved) == 1


def test_generator_that_moves_a_v_out_of_hol_m_is_a_theorem_violation():
    hol = enumeration._HolData("C4", catalog_group("C4"))
    # (2 3) is no automorphism of C4: it conjugates lambda(C4) out of Hol(C4)
    hol.aut_generators = np.array([[0, 1, 3, 2]], dtype=np.uint8)
    with pytest.raises(TheoremViolation, match=re.escape(
            "an automorphism of C4 does not map the regular subgroups of Hol(C4) of one "
            "class invariant to themselves")):
        hol.isomorphic_to("C4")


def _reference_records(group):
    """Records built the old way: every isomorphism G -> V searched, one table of
    Permutations per embedding, deduplicated on its sorted rows, and N's PermGroup
    built from its generating subset."""
    g_class = iso_class(group).name
    out = []
    for m_name in catalog_names(group.order):
        hol = enumeration._hol_data(m_name)
        mul = np.array(hol.model.table)
        first = {}
        emb_id = 0
        for v_rows in hol.subgroups[hol.isomorphic_to(g_class).positions]:
            for iso in all_isomorphisms(group, semiregular_group(v_rows)):
                b = v_rows[list(iso), 0].astype(np.intp)
                b_inv = np.argsort(b)
                perms = tuple(sorted(Permutation(row) for row in b_inv[mul[:, b]].tolist()))
                first.setdefault(perms, emb_id)
                emb_id += 1
        for perms in sorted(first):
            n_group = PermGroup(group.order, generating_subset_of(perms), perms)
            out.append(((m_name, first[perms]), n_group))
    return out


@pytest.mark.parametrize("g_name", SMALL_CATALOG)
def test_records_match_permutation_reference(g_name):
    group = catalog_group(g_name)
    records = enumerate_hgs(group)
    reference = _reference_records(group)
    assert len(records) == len(reference)
    for record, (provenance, n_group) in zip(records, reference):
        rows = np.array([p.images for p in n_group.elements], dtype=np.uint8)
        assert record.rows.dtype == np.uint8 and np.array_equal(record.rows, rows)
        assert record.key == rows.tobytes()
        assert record.provenance == provenance
        assert record.n_group.generators == n_group.generators


def test_count_formula_builds_no_n_perm_group(monkeypatch):
    built = []
    real = enumeration.PermGroup

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(enumeration, "PermGroup", counted)
    rows = count_formula_report(build_group("C24"))
    assert all(row["lhs"] == row["rhs"] for row in rows)
    assert built == []


def test_searches_leave_no_reference_cycles():
    group = catalog_group("D4")
    rows = enumeration._hol_data("D4").rows
    stabiliser = _stabiliser_of_1(group)
    gc.collect()
    gc.disable()
    try:
        assert len(regsearch.regular_subgroups(rows, _whole_tree(rows))) == 20
        assert len(regsearch.regular_subgroups(rows, stabiliser)) == 20
        assert len(all_isomorphisms(group, group)) == 8
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the regular-subgroup search against the pairwise-product closure ----------


def _reference_regular_subgroups(elements, degree):
    """The canonical tree with each candidate set closed under all pairwise products."""
    ident = bytes(range(degree))
    if degree == 1:
        return [frozenset({ident})]
    candidates = sorted({p for p in elements if p != ident and _uniform(p)})
    allowed = frozenset(candidates) | {ident}
    found = []
    _reference_search([ident], degree, candidates, allowed, found)
    return found


def _uniform(p):
    """The definition: the cycles of the row p all have one length."""
    lengths, seen = set(), set()
    for x in range(len(p)):
        if x in seen:
            continue
        seen.add(x)
        length, y = 1, p[x]
        while y != x:
            seen.add(y)
            y, length = p[y], length + 1
        lengths.add(length)
    return len(lengths) == 1


def _packed(found, degree):
    """Frozensets of rows as the search's output: one stack, each subgroup's rows sorted."""
    packed = b"".join(row for rows in found for row in sorted(rows))
    return np.frombuffer(packed, np.uint8).reshape(len(found), degree, degree)


def _reference_search(members, degree, candidates, allowed, found):
    orbit = {p[0] for p in members}
    t = next(x for x in range(degree) if x not in orbit)
    for f in candidates:
        if f[0] != t:
            continue
        ext = _reference_extend(members, f, degree, allowed)
        if ext is None or degree % len(ext):
            continue
        if len(ext) == degree:
            found.append(frozenset(ext))
        else:
            _reference_search(ext, degree, candidates, allowed, found)


def _reference_extend(members, f, degree, allowed):
    new_list, frontier = list(members) + [f], [f]
    while frontier:
        u = frontier.pop()
        i = 0
        while i < len(new_list):
            v = new_list[i]
            i += 1
            # (u o v)(x) = u[v[x]] and (v o u)(x) = v[u[x]]
            for w in (bytes(u[x] for x in v), bytes(v[x] for x in u)):
                if w not in new_list:
                    if w not in allowed or len(new_list) >= degree:
                        return None
                    new_list.append(w)
                    frontier.append(w)
    return new_list


def _whole_tree(rows):
    """The identity row alone: as ``symmetries``, it makes the search walk the whole tree."""
    return np.arange(rows.shape[1], dtype=np.uint8)[None]


def _sym_rows(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.uint8).reshape(-1, n)


def _as_bytes(rows):
    """A uint8 stack as the list of its rows' bytes, the references' element format."""
    return [row.tobytes() for row in rows]


@pytest.mark.parametrize("m_name", SMALL_CATALOG)
def test_regular_subgroups_match_pairwise_closure_in_hol(m_name):
    hol = enumeration._hol_data(m_name)
    order = catalog_group(m_name).order
    expected = _packed(_reference_regular_subgroups(_as_bytes(hol.rows), order), order)
    assert np.array_equal(regsearch.regular_subgroups(hol.rows, _whole_tree(hol.rows)), expected)
    assert np.array_equal(hol.subgroups, expected)


@pytest.mark.parametrize("n", range(1, 8))
def test_regular_subgroups_match_pairwise_closure_in_sym(n):
    rows = _sym_rows(n)
    expected = _packed(_reference_regular_subgroups(_as_bytes(rows), n), n)
    assert np.array_equal(regsearch.regular_subgroups(rows, _whole_tree(rows)), expected)


@pytest.mark.parametrize("n", range(1, 9))
def test_regular_subgroups_of_sym_n_count(n):
    """Each class G of order n has (n-1)!/|Aut(G)| regular copies in Sym(n), all
    conjugate to lambda(G), whose normalizer is Hol(G) of order n |Aut(G)|."""
    classes = [build_group("C5")] if n == 5 else [catalog_group(m) for m in catalog_names(n)]
    expected = sum(math.factorial(n - 1) // len(automorphisms(g)) for g in classes)
    rows = _sym_rows(n)
    assert len(regsearch.regular_subgroups(rows, _whole_tree(rows))) == expected
    if n == 8:
        assert expected == 2760


def test_oracle_searches_sym_n_once_per_degree(monkeypatch, fresh_cache):
    degrees = []
    real = regsearch.regular_subgroups

    def counted(rows, symmetries):
        degrees.append(rows.shape[1])
        return real(rows, symmetries)

    for m_name in catalog_names(8):  # the holomorphs' own searches are not the oracle's
        enumeration._hol_data(m_name)
    monkeypatch.setattr(regsearch, "regular_subgroups", counted)
    fresh_cache(enumeration, "_sym_regular_subgroups")
    for spec in ("D4", "Q8"):
        group = build_group(spec)
        oracle = direct_enumerate_oracle(group)
        assert _element_sets(oracle) == _element_sets(r.n_group for r in enumerate_hgs(group))
    assert degrees == [8]


# -- the search reduced by Stab_Aut(M)(1) against the whole canonical tree -----

HOL_CATALOG = [name for order in (2, 3, 4, 6, 7, 8, 12, 14, 21, 24, 42)
               for name in catalog_names(order)]


def _stabiliser_of_1(model):
    aut = np.array(all_isomorphisms(model, model), dtype=np.uint8)
    return aut[aut[:, 1] == 1]


def _uniform_candidates(rows):
    """The distinct uniform non-identity rows of a uint8 stack, as sorted bytes."""
    ident = bytes(range(rows.shape[1]))
    return sorted(set(_as_bytes(rows[regsearch.uniform_rows(rows)])) - {ident})


def _stack(elements, degree):
    return np.frombuffer(b"".join(elements), np.uint8).reshape(len(elements), degree)


def _unreduced_regular_subgroups(rows):
    """The search without symmetries: the level walk below every root candidate, in bytes order."""
    degree = rows.shape[1]
    if degree == 1:  # the tree has no point to extend through; its one subgroup is {ident}
        return np.zeros((1, 1, 1), dtype=np.uint8)
    pool = _stack(_uniform_candidates(rows), degree)
    found, _ = regsearch._subtrees(pool, np.flatnonzero(pool[:, 0] == 1))
    return found[sorted(range(len(found)), key=lambda i: found[i].tobytes())]


@pytest.mark.parametrize("m_name", HOL_CATALOG)
def test_orbit_reduced_search_matches_whole_tree(m_name):
    hol = enumeration._hol_data(m_name)
    degree = hol.model.order
    reduced = regsearch.regular_subgroups(hol.rows, _stabiliser_of_1(hol.model))
    expected = _unreduced_regular_subgroups(hol.rows)
    assert reduced.dtype == np.uint8 and reduced.shape == expected.shape
    assert np.array_equal(reduced, expected)
    assert np.array_equal(hol.subgroups, expected)
    # canonical order: each subgroup's rows by image of 0, the stack by its bytes
    assert np.array_equal(reduced[:, :, 0], np.broadcast_to(np.arange(degree), reduced.shape[:2]))
    keys = [v.tobytes() for v in reduced]
    assert keys == sorted(set(keys))


def test_reduced_search_walks_one_subtree_per_root_orbit(monkeypatch):
    # Hol(C6 x C2^2): 86 root candidates fall into 8 orbits of Stab_Aut(M)(1)
    hol = enumeration._hol_data("C6 x C2^2")
    stabiliser = _stabiliser_of_1(hol.model)
    roots = [p for p in _uniform_candidates(hol.rows) if p[0] == 1]
    orbits = regsearch._root_orbits(_stack(roots, 24), stabiliser)
    assert (len(roots), len(orbits)) == (86, 8)
    assert sum(1 + len(movers) for _, movers in orbits) == 86
    walked, root_checks = [], []
    real_subtrees, real_extend = regsearch._subtrees, regsearch._extend

    def subtrees(pool, leaders):
        walked.append(_as_bytes(pool[leaders]))
        return real_subtrees(pool, leaders)

    def extend(elems, gen_tabs, f_tab, allowed):
        if len(elems) == 1:  # a root node: S is the identity alone
            root_checks.append(f_tab[:24])
        return real_extend(elems, gen_tabs, f_tab, allowed)

    monkeypatch.setattr(regsearch, "_subtrees", subtrees)
    monkeypatch.setattr(regsearch, "_extend", extend)
    assert len(regsearch.regular_subgroups(hol.rows, stabiliser)) == 1856
    assert walked == [[roots[i] for i, _ in orbits]]
    assert root_checks == walked[0]  # each root node extends by its leader alone


def test_symmetry_that_moves_a_root_candidate_out_is_a_theorem_violation():
    # the transposition (2 3) fixes 0 and 1 but does not normalise Hol(C4)
    hol = enumeration._hol_data("C4")
    swap = np.array([[0, 1, 2, 3], [0, 1, 3, 2]], dtype=np.uint8)
    with pytest.raises(TheoremViolation, match="does not map the root candidates"):
        regsearch.regular_subgroups(hol.rows, swap)


@pytest.mark.parametrize("source", ["D21", "C6 x C2^2", "Sym(6)", "Sym(7)"])
def test_uniform_rows_matches_cycle_length_definition(source):
    rows = _sym_rows(int(source[4:-1])) if source.startswith("Sym") else enumeration._hol_data(source).rows
    mask = regsearch.uniform_rows(rows)
    expected = [_uniform(p) for p in rows.tolist()]
    assert mask.tolist() == expected
    assert 0 < sum(expected) < len(rows)


@pytest.mark.parametrize("rows, expected", [
    ([[0]], [True]),  # degree 1: the identity alone
    ([[0], [0]], [True, True]),
    ([[0, 1, 2, 3, 4]], [True]),  # the identity alone, at degree 5
    ([[1, 2, 0, 4, 3]], [False]),  # one row: a 3-cycle and a 2-cycle
    ([[1, 0, 3, 2]], [True]),  # one row: two 2-cycles
    ([[1, 0]], [True]),  # degree 2: one power read, no fixed point, one 2-cycle
    ([[1, 2, 0]], [True]),  # degree 3: one power read, one 3-cycle
    ([[1, 0, 2]], [False]),  # degree 3: a 2-cycle and a fixed point
    ([[1, 2, 3, 0]], [True]),  # degree 4: two powers read, one 4-cycle
    ([[1, 2, 0, 3]], [False]),  # degree 4: a 3-cycle and a fixed point
    (np.zeros((0, 4)), []),
])
def test_uniform_rows_small_stacks(rows, expected):
    assert regsearch.uniform_rows(np.array(rows, dtype=np.uint8)).tolist() == expected


def test_sorted_row_indices_finds_rows_or_returns_none():
    rows = _sym_rows(4)  # in bytes order
    targets = rows[[[5, 0], [23, 7]]]
    assert regsearch.sorted_row_indices(rows, targets).tolist() == [[5, 0], [23, 7]]
    assert regsearch.sorted_row_indices(rows[:-1], targets) is None  # past the last row
    assert regsearch.sorted_row_indices(rows[1:], targets) is None  # before the first row
    assert regsearch.sorted_row_indices(rows[::2], rows[[0, 1]]) is None  # between two rows


# -- the generator test and the pinned search output ----------------------------

CATALOG_NAMES = [name for order in sorted(CATALOG) for name in catalog_names(order)]

# sha256 of the search's stacks, shape then bytes: every catalog Hol(M) in catalog
# order, then Sym(n) for n = 1..8; pinned before the generator test was added
HOL_SEARCH_SHA256 = "55c8760613473c7145e94ac87ae18860cef4429c9abf7162bbdbc1c89d904822"
SYM_SEARCH_SHA256 = "56c033192168537ce2f6d8d9b885f33e9847395e55464b3221c6ad5068c537fd"


def _stack_digest(stacks):
    digest = hashlib.sha256()
    for stack in stacks:
        digest.update(repr(stack.shape).encode())
        digest.update(stack.tobytes())
    return digest.hexdigest()


def test_search_output_pinned():
    hol = [enumeration._HolData(name, catalog_group(name)).subgroups for name in CATALOG_NAMES]
    assert _stack_digest(hol) == HOL_SEARCH_SHA256
    sym = [regsearch.regular_subgroups(_sym_rows(n), enumeration._sym_stabiliser_generators(n))
           for n in range(1, 9)]
    assert _stack_digest(sym) == SYM_SEARCH_SHA256


def test_generator_test_spares_most_schreier_checks(monkeypatch):
    calls = []
    real = regsearch._extend

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(regsearch, "_extend", counted)
    hol = enumeration._HolData("D21", catalog_group("D21"))
    assert len(hol.subgroups) == 464
    # one per root leader (16), and 24 below the 4 leaders of order 3. Every node with
    # |S| = 21 is of index 2 and closed without a Schreier check: 936 with one per
    # candidate there, 7,096 without the generator test either
    assert len(calls) == 40


# -- the level walk: its label prune, its closed form at index 2, its memory ----

WHOLE_TREE_SOURCES = ["D12", "D21", "Q8 x C3", "Sym(6)"]


def _source_rows(source):
    return _sym_rows(int(source[4:-1])) if source.startswith("Sym") else enumeration._hol_data(source).rows


def _recorded_calls(monkeypatch, name, rows):
    """(arguments, result) of each call of ``regsearch.<name>`` in the whole-tree search of ``rows``."""
    calls = []
    real = getattr(regsearch, name)

    def recorded(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(regsearch, name, recorded)
    regsearch.regular_subgroups(rows, _whole_tree(rows))
    return calls


@pytest.mark.parametrize("source", WHOLE_TREE_SOURCES)
def test_label_prune_matches_broadcast_comparison(monkeypatch, source):
    dropped = 0
    for (at, node, f), free in _recorded_calls(monkeypatch, "_clash_free", _source_rows(source)):
        # f agrees somewhere with a row of S; the filler 255 outside S's orbit matches no point
        clash = (f[:, None, :] == at[node]).any(axis=(1, 2))
        assert np.array_equal(free, ~clash)
        dropped += int(clash.sum())
    assert dropped


@pytest.mark.parametrize("source", WHOLE_TREE_SOURCES)
def test_index_two_closed_form_matches_schreier_check(monkeypatch, source):
    rows = _source_rows(source)
    degree = rows.shape[1]
    allowed = frozenset(_as_bytes(rows[regsearch.uniform_rows(rows)]))
    tail = bytes(range(degree, 256))
    verdicts = []
    calls = _recorded_calls(monkeypatch, "_index_two", rows)
    for (at, in_orbit, _, _, node, _, f), (keep, closed) in calls:
        written = iter(closed)
        for b, f_row, kept in zip(node, f, keep):
            members = _as_bytes(at[b][in_orbit[b]])
            elems = dict(zip(np.flatnonzero(in_orbit[b]).tolist(), members))
            assert 2 * len(elems) == degree
            # every element of S serves as a generator of S
            ext = regsearch._extend(elems, [r + tail for r in members], f_row.tobytes() + tail, allowed)
            assert kept == (ext is not None)
            if kept:
                assert next(written).tobytes() == b"".join(sorted(ext.values()))
            verdicts.append(bool(kept))
        assert next(written, None) is None
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("m_name", ["D21", "C6 x C2^2"])
def test_search_peak_memory(monkeypatch, m_name):
    searches = []
    real = regsearch.regular_subgroups

    def recorded(rows, symmetries):
        searches.append((rows, symmetries))
        return real(rows, symmetries)

    monkeypatch.setattr(regsearch, "regular_subgroups", recorded)
    enumeration._HolData(m_name, catalog_group(m_name))
    (rows, symmetries), = searches
    tracemalloc.start()
    try:
        real(rows, symmetries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 3.3 MiB of it is uniform_rows' intp gather index; each of the level walk's
    # passes of about 1024 pairs adds far less
    assert peak <= 4.0 * 2**20


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


@pytest.mark.parametrize("m_name", CATALOG_NAMES)
def test_order_spectra_match_element_orders(m_name):
    # the leading base-(n + 1) digit of each class_invariants key is the element's order
    stack = enumeration._hol_data(m_name).subgroups
    n = stack.shape[1]
    orders = {}  # the order of each distinct element, as the lcm of its cycle lengths
    for row in set(map(tuple, stack.reshape(-1, n).tolist())):
        orders[row] = Permutation(row).order()
    expected = [sorted(orders[tuple(row)] for row in subgroup) for subgroup in stack.tolist()]
    keys = catalog.class_invariants(stack)[:, :-1]
    assert (keys // (n + 1) ** len(_primes(n))).tolist() == expected


def _reference_invariant(rows):
    """class_invariants of one regular V, element by element: orders from its
    Permutations, p-th powers and the centre from V's table."""
    table = semiregular_group(rows).table
    n = len(table)
    keys = [Permutation(row).order() for row in rows.tolist()]
    for p in _primes(n):
        powers = []
        for y in range(n):
            power = y
            for _ in range(p - 1):
                power = table[y][power]
            powers.append(power)
        keys = [key * (n + 1) + powers.count(x) for x, key in enumerate(keys)]
    centre = sum(all(table[a][b] == table[b][a] for b in range(n)) for a in range(n))
    return sorted(keys) + [centre]


@pytest.mark.parametrize("m_name", CATALOG_NAMES)
def test_class_invariants_match_a_per_subgroup_reference(m_name):
    stack = enumeration._hol_data(m_name).subgroups
    assert catalog.class_invariants(stack).tolist() == [_reference_invariant(v) for v in stack]


# -- the oracle's Sym(n) search reduced by the stabiliser of 0 and 1 -----------


def _conjugate(alpha, f):
    """alpha o f o alpha^-1 as bytes."""
    inv = np.argsort(alpha)
    return alpha[np.frombuffer(f, np.uint8)[inv]].tobytes()


def _cycle_length(p):
    length, y = 1, p[0]
    while y != 0:
        y, length = p[y], length + 1
    return length


@pytest.mark.parametrize("n", range(1, 9))
def test_reduced_sym_search_matches_whole_tree(fresh_cache, n):
    fresh_cache(enumeration, "_sym_regular_subgroups")
    reduced = enumeration._sym_regular_subgroups(n)
    expected = _unreduced_regular_subgroups(_sym_rows(n))
    assert reduced.dtype == np.uint8
    assert reduced.tobytes() == expected.tobytes() and reduced.shape == expected.shape


def test_sym8_root_candidates_fall_into_three_orbits():
    gens = enumeration._sym_stabiliser_generators(8)
    roots = [p for p in _uniform_candidates(_sym_rows(8)) if p[0] == 1]
    orbits = regsearch._root_orbits(_stack(roots, 8), gens)
    assert len(roots) == 915
    assert [1 + len(movers) for _, movers in orbits] == [15, 180, 720]
    # the cycle length l of the candidates is constant on an orbit: l = 2, 4, 8
    assert [_cycle_length(roots[i]) for i, _ in orbits] == [2, 4, 8]
    covered = []
    for i, movers in orbits:
        leader = roots[i]
        assert movers.dtype == np.uint8
        assert (movers[:, :2] == [0, 1]).all()  # each alpha lies in Stab_Sym(8)(0, 1)
        members = [leader] + [_conjugate(alpha, leader) for alpha in movers]
        assert len(set(members)) == len(members)
        assert min(roots.index(f) for f in members) == i  # the leader is the least member
        covered += members
    assert sorted(covered) == roots


def test_generating_subset_of_stabiliser_gives_the_same_orbits():
    hol = enumeration._hol_data("C6 x C2^2")
    stabiliser = _stabiliser_of_1(hol.model)
    gens = generating_subset_of([Permutation(row) for row in stabiliser.tolist()])
    gen_rows = np.array([p.images for p in gens], dtype=np.uint8)
    assert len(gen_rows) < len(stabiliser)
    roots = [p for p in _uniform_candidates(hol.rows) if p[0] == 1]
    root_array = _stack(roots, 24)

    def orbit_sets(symmetries):
        orbits = regsearch._root_orbits(root_array, symmetries)
        return [(i, frozenset([roots[i]] + [_conjugate(a, roots[i]) for a in movers]))
                for i, movers in orbits]

    by_group, by_gens = orbit_sets(stabiliser), orbit_sets(gen_rows)
    assert len(by_gens) == 8
    assert by_gens == by_group
    assert np.array_equal(regsearch.regular_subgroups(hol.rows, gen_rows), hol.subgroups)


# -- normalisation tested on a whole stack --------------------------------------

ORACLE_GROUPS = [m for n in range(1, 9) for m in catalog_names(n)] + ["C5"]


def _oracle_group(name):
    return build_group(name) if name == "C5" else catalog_group(name)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_stack_normalized_by_matches_permutation_products(name):
    group = _oracle_group(name)
    stack = enumeration._sym_regular_subgroups(group.order)
    lam = np.array(group.table, dtype=np.uint8)
    conjugators = [(c, c.inverse()) for c in map(Permutation, group.table)]
    perm_of = {r: Permutation(r) for r in map(tuple, stack.reshape(-1, group.order).tolist())}
    expected = []
    for subgroup in stack.tolist():
        members = set(map(tuple, subgroup))
        rows = [perm_of[r] for r in members]
        expected.append(all((c * r * c_inv).images in members
                            for c, c_inv in conjugators for r in rows))
    by_all_rows = regsearch.normalized_by(stack, lam)
    by_generators = regsearch.normalized_by(stack, lam[groups.generating_sequence(group)])
    assert by_all_rows.dtype == bool and by_all_rows.shape == (len(stack),)
    assert by_all_rows.tolist() == expected
    assert by_generators.tolist() == expected
    assert any(expected)  # lambda(G) itself
    if group.order >= 5:
        assert not all(expected)


def test_normalized_by_rejects_non_regular_stacks():
    stack = enumeration._sym_regular_subgroups(4)
    lam = np.array(catalog_group("C4").table, dtype=np.uint8)
    with pytest.raises(ValueError, match="sorted by image of 0"):
        regsearch.normalized_by(stack[:, ::-1], lam)  # rows in reverse order
    with pytest.raises(ValueError, match="sorted by image of 0"):
        regsearch.normalized_by(stack[0], lam)  # one subgroup, not a stack
    with pytest.raises(ValueError, match="sorted by image of 0"):
        regsearch.normalized_by(stack[:, :2], lam)  # two rows of degree 4


def test_normalized_by_rejects_a_stack_with_one_non_regular_subgroup():
    stack = enumeration._sym_regular_subgroups(4).copy()
    lam = catalog_group("C4").rows
    stack[-1] = stack[-1, ::-1]
    with pytest.raises(ValueError, match="sorted by image of 0"):
        regsearch.normalized_by(stack, lam)


# -- the row primitives ----------------------------------------------------------


def test_identity_only_stack_has_no_regular_subgroup():
    for n in (2, 5, 8):
        identity = np.arange(n, dtype=np.uint8)[None]
        for symmetries in (identity, enumeration._sym_stabiliser_generators(n)):
            found = regsearch.regular_subgroups(identity, symmetries)
            assert found.dtype == np.uint8 and found.shape == (0, n, n)


def test_symmetry_whose_conjugate_sorts_after_every_root_candidate():
    # lambda(C4) has one root candidate, f = (0 1 2 3); (2 3) f (2 3) = (0 1 3 2) is not
    # in lambda(C4), and its row sorts after f's, past the end of the candidates
    rows = catalog_group("C4").rows
    swap = np.array([[0, 1, 3, 2]], dtype=np.uint8)
    roots = rows[rows[:, 0] == 1]
    assert len(roots) == 1
    assert regsearch.conjugate(roots, swap)[0, 0].tobytes() > roots[-1].tobytes()
    with pytest.raises(TheoremViolation, match="does not map the root candidates"):
        regsearch.regular_subgroups(rows, swap)


def test_is_regular_takes_one_set_or_a_stack():
    stack = enumeration._sym_regular_subgroups(4)
    assert regsearch.is_regular(stack).tolist() == [True] * len(stack)
    assert regsearch.is_regular(stack[0])
    assert not regsearch.is_regular(stack[0, ::-1])
    assert regsearch.is_regular(stack[:, ::-1]).tolist() == [False] * len(stack)
    assert regsearch.is_regular(stack[:, :2]).tolist() == [False] * len(stack)
    assert not regsearch.is_regular(catalog_group("C4").rows[[0, 2]])  # semiregular, order 2


@pytest.mark.parametrize("n", [1, 4, 6])
def test_conjugate_matches_permutation_products(n):
    perms = [Permutation(p) for p in itertools.permutations(range(n))]
    rows = np.array([p.images for p in perms], dtype=np.uint8)
    conjugators = rows[::max(1, len(rows) // 5)]
    conj = regsearch.conjugate(rows, conjugators)
    assert conj.dtype == np.uint8 and conj.shape == (len(conjugators), len(rows), n)
    for a, c in enumerate(map(Permutation, conjugators.tolist())):
        assert conj[a].tolist() == [list((c * r * c.inverse()).images) for r in perms]
    stacked = regsearch.conjugate(rows.reshape(-1, 1, n), conjugators)
    assert np.array_equal(stacked[:, :, 0], conj)


@pytest.mark.parametrize("name", [m for n in (1, 4, 6, 8, 12, 24) for m in catalog_names(n)])
def test_row_primitives_on_lambda_and_its_subgroups(name):
    group = catalog_group(name)
    rows = group.rows
    assert rows.dtype == np.uint8 and not rows.flags.writeable
    assert rows.tolist() == [list(row) for row in group.table]
    assert regsearch.regular_table(rows).tolist() == rows.tolist()
    assert np.array_equal(regsearch.row_indices(rows, rows[::-1]), np.arange(len(rows))[::-1])
    for handle in groups.subgroups(group):
        members = list(handle.members)
        # the parent's dict table of a subgroup, against the table of its semiregular rows
        index = {x: i for i, x in enumerate(members)}
        expected = [[index[group.table[a][b]] for b in members] for a in members]
        assert regsearch.regular_table(rows[members]).tolist() == expected
    if len(rows) > 1:  # the identity row is missing from the others
        assert regsearch.row_indices(rows[1:], rows[:1]) is None


def test_finite_group_rows_are_built_on_first_read():
    group = FiniteGroup(["e", "a"], [[0, 1], [1, 0]])
    assert "rows" not in vars(group)
    first = group.rows
    assert group.rows is first and first.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        first[0, 0] = 1


# sha256 of the oracle's PermGroups (elements, then generators) for every group of
# order <= 8, in ORACLE_GROUPS order, pinned from the search of the whole Sym(n) tree
ORACLE_OUTPUT_SHA256 = "a320f0930e8120a89239f1b8affe2b9c36490839fc61a3b951c3f380ed36f327"


def test_oracle_output_pinned():
    digest = hashlib.sha256()
    for name in ORACLE_GROUPS:
        for pg in direct_enumerate_oracle(_oracle_group(name)):
            digest.update(repr([p.images for p in pg.elements]).encode())
            digest.update(repr([p.images for p in pg.generators]).encode())
        digest.update(b"|")
    assert digest.hexdigest() == ORACLE_OUTPUT_SHA256
