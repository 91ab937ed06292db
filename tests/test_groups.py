import itertools
import random

import numpy as np
import pytest

from hgw.catalog import catalog_group, catalog_names
from hgw.dsl import build_group
from hgw.enumeration import _hol_data, enumerate_hgs
from hgw.errors import EnumerationOverflow, GroupSpecError
from hgw.groups import (
    FiniteGroup,
    all_isomorphisms,
    an_isomorphism,
    as_finite_group,
    automorphisms,
    close_subset,
    core_of,
    generating_subset_of,
    is_isomorphic,
    left_regular,
    right_regular,
    subgroups,
    subgroups_brute_oracle,
)
from hgw.perm import Permutation, closure


@pytest.mark.parametrize("spec", ["C6", "D4", "Q8", "A4", "S4", "C7:C3", "D21", "C42"])
def test_associativity_full(spec):
    group = build_group(spec)
    assert group.check_associative()


def test_associativity_every_catalog_group():
    for order in (1, 2, 3, 4, 6, 7, 8, 12, 14, 21, 24, 42):
        for name in catalog_names(order):
            assert catalog_group(name).check_associative(), name


def test_left_right_regular_commute_and_regular():
    for spec in ["C6", "D4", "S4"]:
        group = build_group(spec)
        lam, rho = left_regular(group), right_regular(group)
        assert lam.is_regular() and rho.is_regular()
        for lg in lam.elements:
            for rh in rho.elements:
                assert lg * rh == rh * lg


def test_lambda_rho_intersection_is_center():
    for spec in ["C6", "D4", "S4", "D21"]:
        group = build_group(spec)
        lam = {p.images for p in left_regular(group).elements}
        rho = {p.images for p in right_regular(group).elements}
        center_lams = {tuple(group.table[z]) for z in group.center()}
        assert lam & rho == center_lams


def test_abelian_lambda_equals_rho():
    group = build_group("C6")
    assert left_regular(group) == right_regular(group)


def test_left_regular_c2():
    lam = left_regular(build_group("C2"))
    assert {p.images for p in lam.elements} == {(0, 1), (1, 0)}


def test_subgroup_counts():
    assert len(subgroups(build_group("C6"))) == 4
    assert len(subgroups(build_group("S4"))) == 30
    subs_d7 = subgroups(build_group("D7"))
    assert len(subs_d7) == 10
    assert sorted(h.order for h in subs_d7) == [1, 2, 2, 2, 2, 2, 2, 2, 7, 14]


@pytest.mark.parametrize("spec", ["C6", "C8", "D4", "Q8", "C2 x C2 x C2", "D6", "C12", "A4"])
def test_subgroups_match_brute_oracle(spec):
    group = build_group(spec)
    ours = {frozenset(h.members) for h in subgroups(group)}
    oracle = set(subgroups_brute_oracle(group))
    assert ours == oracle


def test_subgroups_cap():
    with pytest.raises(EnumerationOverflow):
        subgroups(build_group("C6"), cap=4)


def test_core_of():
    d21 = build_group("D21")
    for handle in subgroups(d21):
        core = core_of(d21, handle)
        # the core is normal, inside J, and contains every normal subgroup inside J
        assert core.member_set <= handle.member_set
        assert all(d21.conj(g, x) in core.member_set for g in range(42) for x in core.members)
    d7_sub = next(h for h in subgroups(d21)
                  if h.order == 14)
    assert core_of(d21, d7_sub).order == 7


def test_core_contains_every_normal_subgroup_inside():
    group = build_group("S4")
    subs = subgroups(group)
    normal = [h for h in subs
              if all(group.conj(g, x) in h.member_set for g in range(24) for x in h.members)]
    for handle in subs:
        core = core_of(group, handle)
        for n_handle in normal:
            if n_handle.member_set <= handle.member_set:
                assert n_handle.member_set <= core.member_set


def test_core_of_normal_is_itself():
    group = build_group("C42")
    for handle in subgroups(group):
        assert core_of(group, handle).member_set == handle.member_set


def test_automorphism_counts():
    assert automorphisms(build_group("C7")).order == 6
    aut = automorphisms(build_group("C2 x C2 x C2"))
    assert aut.order == 168
    assert aut.order == 7 * 6 * 4  # ordered bases of F_2^3


def test_holomorph_orders():
    for name, aut_order in [("C6", 2), ("C7", 6), ("D4", 8)]:
        hol = _hol_data(name)
        assert hol.aut_order == aut_order
        assert len(set(hol.rows)) == catalog_group(name).order * aut_order
    assert len(set(_hol_data("C6").rows)) == 12


def test_holomorph_order_identity_up_to_24():
    for order in (1, 2, 3, 4, 6, 7, 8, 12, 14, 21, 24):
        for name in catalog_names(order):
            group = catalog_group(name)
            rows = _hol_data(name).rows
            assert len(set(rows)) == group.order * automorphisms(group).order


def test_is_isomorphic_equivalence_relation():
    pool = [catalog_group(n) for order in (4, 6, 8, 12) for n in catalog_names(order)]
    pool += [as_finite_group(left_regular(build_group("D6"))),
             as_finite_group(right_regular(build_group("Q8")))]
    assert len(pool) <= 20
    k = len(pool)
    matrix = [[is_isomorphic(pool[i], pool[j]) for j in range(k)] for i in range(k)]
    for i in range(k):
        assert matrix[i][i]  # reflexive
    for i, j in itertools.combinations(range(k), 2):
        assert matrix[i][j] == matrix[j][i]  # symmetric
    for i, j, l in itertools.product(range(k), repeat=3):
        if matrix[i][j] and matrix[j][l]:
            assert matrix[i][l]  # transitive


def test_all_isomorphisms_are_isos():
    c6, d3 = build_group("C6"), build_group("D3")
    assert all_isomorphisms(c6, d3) == []
    autos = all_isomorphisms(c6, c6)
    assert len(autos) == 2
    q8 = build_group("Q8")
    maps = all_isomorphisms(q8, q8)
    assert len(maps) == 24
    for m in maps[:4]:
        for a in range(8):
            for b in range(8):
                assert m[q8.mul(a, b)] == q8.mul(m[a], m[b])


# -- the generator-image isomorphism search against a dict-copying reference ----

CATALOG_ORDERS = (1, 2, 3, 4, 6, 7, 8, 12, 14, 21, 24, 42)
CATALOG = [name for order in CATALOG_ORDERS for name in catalog_names(order)]


def _reference_isomorphisms(g1, g2, find_all):
    """Isomorphisms g1 -> g2 in search order: each generator image extends the
    partial map, copied, to the whole subgroup its domain generates."""
    if g1.order != g2.order or sorted(g1.element_orders()) != sorted(g2.element_orders()):
        return []
    buckets = {}
    for x in range(g2.order):
        buckets.setdefault(g2.element_orders()[x], []).append(x)
    results = []
    _reference_search(g1, g2, _reference_generating_sequence(g1), buckets, find_all, results,
                      0, {0: 0}, {0})
    return [tuple(m[i] for i in range(g1.order)) for m in results]


def _reference_generating_sequence(group):
    orders = group.element_orders()
    seq, current = [], frozenset({0})
    while len(current) < group.order:
        seq.append(max((x for x in range(group.order) if x not in current),
                       key=lambda x: (orders[x], -x)))
        current = close_subset(group, seq)
    return seq


def _reference_search(g1, g2, seq, buckets, find_all, results, pos, fwd, used):
    if pos == len(seq):
        if len(fwd) == g1.order:
            results.append(fwd)
            return not find_all
        return False
    for dst in buckets.get(g1.element_orders()[seq[pos]], ()):
        ext = _reference_extend(g1, g2, fwd, used, seq[pos], dst)
        if ext is not None and _reference_search(g1, g2, seq, buckets, find_all, results,
                                                 pos + 1, *ext):
            return True
    return False


def _reference_extend(g1, g2, fwd, used, new_src, new_dst):
    fwd, used = dict(fwd), set(used)
    if new_dst in used:
        return None
    fwd[new_src] = new_dst
    used.add(new_dst)
    frontier = [new_src]
    while frontier:
        u = frontier.pop()
        for v in tuple(fwd):
            for s, t in ((g1.mul(u, v), g2.mul(fwd[u], fwd[v])),
                         (g1.mul(v, u), g2.mul(fwd[v], fwd[u]))):
                known = fwd.get(s)
                if known is None:
                    if t in used:
                        return None
                    fwd[s] = t
                    used.add(t)
                    frontier.append(s)
                elif known != t:
                    return None
    return fwd, used


def _relabelled(group, seed):
    """``group`` with its non-identity elements shuffled."""
    label = [0] + random.Random(seed).sample(range(1, group.order), group.order - 1)
    unlabel = sorted(range(group.order), key=label.__getitem__)
    table = [[label[group.mul(unlabel[a], unlabel[b])] for b in range(group.order)]
             for a in range(group.order)]
    return FiniteGroup([str(i) for i in range(group.order)], table)


@pytest.mark.parametrize("name", CATALOG)
def test_isomorphisms_match_dict_copying_reference(name):
    group = catalog_group(name)
    for other in (group, _relabelled(group, seed=12)):
        reference = _reference_isomorphisms(group, other, find_all=True)
        assert reference and all_isomorphisms(group, other) == sorted(reference)
        assert an_isomorphism(group, other) == _reference_isomorphisms(group, other, False)[0]


def test_distinct_catalog_classes_are_not_isomorphic():
    for order in CATALOG_ORDERS:
        for a, b in itertools.permutations(catalog_names(order), 2):
            assert not is_isomorphic(catalog_group(a), catalog_group(b)), (a, b)
            assert all_isomorphisms(catalog_group(a), catalog_group(b)) == []


# -- generating subsets against one closure per chosen generator --------------


def _reference_generating_subset(perms):
    """Highest order first, then least image tuple, skipping what the chosen ones generate."""
    degree = perms[0].degree
    chosen = []
    have = {tuple(range(degree))}
    for p in sorted(perms, key=lambda q: (-q.order(), q.images)):
        if len(have) == len(perms):
            break
        if p.images not in have:
            chosen.append(p)
            have = {q.images for q in closure(chosen, degree).elements}
    return tuple(chosen) or (Permutation.identity(degree),)


def _assert_same_generators(perms, label):
    perms = list(perms)
    assert generating_subset_of(perms) == _reference_generating_subset(perms), label


def test_generating_subset_of_regular_representations_matches_closure_reference():
    for name in CATALOG:
        group = catalog_group(name)
        _assert_same_generators(left_regular(group).elements, f"lambda({name})")
        _assert_same_generators(right_regular(group).elements, f"rho({name})")


def test_generating_subset_of_automorphisms_matches_closure_reference():
    for name in CATALOG:
        aut = automorphisms(catalog_group(name))
        _assert_same_generators(aut.elements, f"Aut({name})")
        if aut.degree > 1:
            _assert_same_generators([p for p in aut.elements if p(1) == 1], f"Stab({name})")


def test_generating_subset_of_records_matches_closure_reference(census42):
    records = [r for order in (1, 2, 3, 4, 6, 7, 8, 12) for name in catalog_names(order)
               for r in enumerate_hgs(catalog_group(name))]
    records += census42["D21"].records
    for record in records:
        perms = [Permutation(row) for row in record.rows.tolist()]
        _assert_same_generators(perms, (record.group, record.provenance))


def test_generating_subset_of_rejects_a_set_that_is_not_closed():
    with pytest.raises(GroupSpecError, match="not closed"):
        generating_subset_of([Permutation.identity(3), Permutation.from_cycles([(0, 1, 2)], 3)])


@pytest.mark.parametrize("table", [
    [[0, 1], [1]],  # ragged
    [[0, 1, 2], [1, 0, 2]],  # two rows for three elements
    [[0, 1], [1, 0], [0, 1]],  # three rows for two elements
], ids=["ragged", "too_few_rows", "too_many_rows"])
def test_finite_group_rejects_a_table_of_the_wrong_shape(table):
    labels = ["e", "a", "b"][:len(table[0])]
    with pytest.raises(GroupSpecError, match="shape does not match element count"):
        FiniteGroup(labels, table)


def test_finite_group_rejects_a_table_without_identity_at_zero():
    with pytest.raises(GroupSpecError, match="element 0 is not an identity"):
        FiniteGroup(["a", "e"], [[1, 0], [0, 1]])


def test_finite_group_rejects_an_element_without_two_sided_inverse():
    # row 1 has 0 in column 2, but 2 * 1 = 2
    with pytest.raises(GroupSpecError, match="element 1 has no two-sided inverse"):
        FiniteGroup(["e", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 2, 1]])


def test_finite_group_keeps_python_int_entries():
    group = FiniteGroup(["e", "a"], np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert group.table == ((0, 1), (1, 0))
    assert all(type(x) is int for row in group.table for x in row)
