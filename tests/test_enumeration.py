import gc
import hashlib
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

import hgw.enumeration as enumeration
import hgw.groups as groups
from hgw import regsearch
from hgw.catalog import catalog_group, catalog_names, iso_class
from hgw.dsl import build_group
from hgw.enumeration import count_formula_report, direct_enumerate_oracle, enumerate_hgs
from hgw.errors import EnumerationOverflow, TheoremViolation, UncoveredOrder
from hgw.groups import (
    FiniteGroup,
    all_isomorphisms,
    an_isomorphism,
    automorphisms,
    generating_subset_of,
    left_regular,
    right_regular,
)
from hgw.perm import PermGroup, Permutation, normalizes

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
        assert record.n_group.is_regular()
        assert normalizes(lam, record.n_group)
        assert iso_class(record.n_group).name == record.n_class.name


def test_count_formula_small():
    for spec in ["C4", "C6", "D4"]:
        group = build_group(spec)
        for row in count_formula_report(group):
            assert row["lhs"] == row["rhs"], (spec, row)


def test_count_formula_reads_aut_g_from_the_enumeration(monkeypatch):
    group = build_group("D4")
    seen = []
    real = groups.all_isomorphisms

    def counted(g1, g2):
        seen.append((g1, g2))
        return real(g1, g2)

    # both names: the enumeration's own alias and the module attribute Hol(M) reads
    monkeypatch.setattr(groups, "all_isomorphisms", counted)
    monkeypatch.setattr(enumeration, "all_isomorphisms", counted)
    monkeypatch.setattr(enumeration, "_HOL_CACHE", {})
    rows = count_formula_report(group)
    assert sum(g1 is group and g2 is group for g1, g2 in seen) == 1
    models = [g1 for g1, g2 in seen if g1 is not group]
    assert models == [catalog_group(m) for m in catalog_names(8)]
    assert all(g2 is g1 for g1, g2 in seen)
    assert {row["aut_g"] for row in rows} == {8}
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


@pytest.mark.parametrize("attr, fake, message", [
    ("all_isomorphisms", _first_iso_only, "expected |Aut(M)|"),
    ("all_isomorphisms", _constant_iso, "base map not bijective"),
    ("all_isomorphisms", _non_homomorphism, "differs from lambda(G)"),
    ("_lambda_conjugation", _lambda_of_c6, "not normalized by lambda(G)"),
], ids=["multiplicity", "base_map", "beta_is_lambda", "normalized"])
def test_contract_violations_raise(monkeypatch, attr, fake, message):
    group = build_group("D3")
    assert group.element_orders()[1] == 3 and group.element_orders()[3] == 2
    monkeypatch.setattr(enumeration, attr, fake)
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        enumerate_hgs(group)


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
        subs = hol.isomorphic_to(g_name)
        expected = _eager_class_tables(hol, g_name)
        assert [([bytes(r) for r in rows], table.table) for rows, table in subs] \
            == expected, (g_name, m_name)
        for _, table in subs:
            beta0 = np.array(an_isomorphism(group, table))
            assert sorted(map(tuple, beta0[aut_g].tolist())) \
                == all_isomorphisms(group, table), (g_name, m_name)


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
        for v_rows, v_table in hol.isomorphic_to(g_class):
            for iso in all_isomorphisms(group, v_table):
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
        assert len(regsearch.regular_subgroups(rows, 8)) == 20
        assert len(regsearch.regular_subgroups(rows, 8, stabiliser)) == 20
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


def _sym_rows(n):
    return [bytes(p) for p in itertools.permutations(range(n))]


@pytest.mark.parametrize("m_name", SMALL_CATALOG)
def test_regular_subgroups_match_pairwise_closure_in_hol(m_name):
    hol = enumeration._hol_data(m_name)
    order = catalog_group(m_name).order
    expected = _packed(_reference_regular_subgroups(hol.rows, order), order)
    assert np.array_equal(regsearch.regular_subgroups(hol.rows, order), expected)
    assert np.array_equal(hol.subgroups, expected)


@pytest.mark.parametrize("n", range(1, 8))
def test_regular_subgroups_match_pairwise_closure_in_sym(n):
    rows = _sym_rows(n)
    expected = _packed(_reference_regular_subgroups(rows, n), n)
    assert np.array_equal(regsearch.regular_subgroups(rows, n), expected)


@pytest.mark.parametrize("n", range(1, 9))
def test_regular_subgroups_of_sym_n_count(n):
    """Each class G of order n has (n-1)!/|Aut(G)| regular copies in Sym(n), all
    conjugate to lambda(G), whose normalizer is Hol(G) of order n |Aut(G)|."""
    classes = [build_group("C5")] if n == 5 else [catalog_group(m) for m in catalog_names(n)]
    expected = sum(math.factorial(n - 1) // len(automorphisms(g)) for g in classes)
    assert len(regsearch.regular_subgroups(_sym_rows(n), n)) == expected
    if n == 8:
        assert expected == 2760


def test_oracle_searches_sym_n_once_per_degree(monkeypatch):
    degrees = []
    real = regsearch.regular_subgroups

    def counted(elements, degree, symmetries=None):
        degrees.append(degree)
        return real(elements, degree, symmetries)

    for m_name in catalog_names(8):  # the holomorphs' own searches are not the oracle's
        enumeration._hol_data(m_name)
    monkeypatch.setattr(regsearch, "regular_subgroups", counted)
    monkeypatch.setattr(enumeration, "_SYM_REGULAR", {})
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


def _unreduced_regular_subgroups(elements, degree):
    """The search without symmetries: ``_search`` from the root over every candidate."""
    ident = bytes(range(degree))
    if degree == 1:  # the tree has no point to extend through; its one subgroup is {ident}
        return np.zeros((1, 1, 1), dtype=np.uint8)
    uniform = regsearch._uniform_elements(elements, degree)
    by_image = {t: [] for t in range(1, degree)}
    for p in uniform:
        by_image[p[0]].append(p)
    buckets = {t: (regsearch._as_array(rows, degree), rows) for t, rows in by_image.items()}
    found = []
    regsearch._search({0: ident}, [], degree, buckets, frozenset(uniform) | {ident}, found)
    return np.frombuffer(b"".join(found), np.uint8).reshape(len(found), degree, degree)


@pytest.mark.parametrize("m_name", HOL_CATALOG)
def test_orbit_reduced_search_matches_whole_tree(m_name):
    hol = enumeration._hol_data(m_name)
    degree = hol.model.order
    reduced = regsearch.regular_subgroups(hol.rows, degree, _stabiliser_of_1(hol.model))
    expected = _unreduced_regular_subgroups(hol.rows, degree)
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
    roots = [p for p in regsearch._uniform_elements(hol.rows, 24) if p[0] == 1]
    orbits = regsearch._root_orbits(regsearch._as_array(roots, 24), roots, stabiliser)
    assert (len(roots), len(orbits)) == (86, 8)
    assert sum(1 + len(movers) for _, movers in orbits) == 86
    walked = []
    real = regsearch._search

    def counted(elems, gen_tabs, degree, buckets, allowed, found):
        if len(elems) == 1:
            walked.append(buckets[1][1])
        return real(elems, gen_tabs, degree, buckets, allowed, found)

    monkeypatch.setattr(regsearch, "_search", counted)
    assert len(regsearch.regular_subgroups(hol.rows, 24, stabiliser)) == 1856
    assert walked == [[roots[i]] for i, _ in orbits]


def test_symmetry_that_moves_a_root_candidate_out_is_a_theorem_violation():
    # the transposition (2 3) fixes 0 and 1 but does not normalise Hol(C4)
    hol = enumeration._hol_data("C4")
    swap = np.array([[0, 1, 2, 3], [0, 1, 3, 2]], dtype=np.uint8)
    with pytest.raises(TheoremViolation, match="does not map the root candidates"):
        regsearch.regular_subgroups(hol.rows, 4, swap)


@pytest.mark.parametrize("source", ["D21", "C6 x C2^2", "Sym(6)"])
def test_uniform_rows_matches_cycle_length_definition(source):
    rows = _sym_rows(6) if source == "Sym(6)" else enumeration._hol_data(source).rows
    degree = len(rows[0])
    mask = regsearch.uniform_rows(regsearch._as_array(rows, degree))
    expected = [_uniform(p) for p in rows]
    assert mask.tolist() == expected
    assert 0 < sum(expected) < len(rows)


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
def test_reduced_sym_search_matches_whole_tree(monkeypatch, n):
    monkeypatch.setattr(enumeration, "_SYM_REGULAR", {})
    reduced = enumeration._sym_regular_subgroups(n)
    expected = _unreduced_regular_subgroups(_sym_rows(n), n)
    assert reduced.dtype == np.uint8
    assert reduced.tobytes() == expected.tobytes() and reduced.shape == expected.shape


def test_sym8_root_candidates_fall_into_three_orbits():
    gens = enumeration._sym_stabiliser_generators(8)
    roots = [p for p in regsearch._uniform_elements(_sym_rows(8), 8) if p[0] == 1]
    orbits = regsearch._root_orbits(regsearch._as_array(roots, 8), roots, gens)
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
    roots = [p for p in regsearch._uniform_elements(hol.rows, 24) if p[0] == 1]
    root_array = regsearch._as_array(roots, 24)

    def orbit_sets(symmetries):
        orbits = regsearch._root_orbits(root_array, roots, symmetries)
        return [(i, frozenset([roots[i]] + [_conjugate(a, roots[i]) for a in movers]))
                for i, movers in orbits]

    by_group, by_gens = orbit_sets(stabiliser), orbit_sets(gen_rows)
    assert len(by_gens) == 8
    assert by_gens == by_group
    assert np.array_equal(regsearch.regular_subgroups(hol.rows, 24, gen_rows), hol.subgroups)


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
