import itertools

import numpy as np
import pytest

from hgw import fplin
from hgw.correspond import stable_subgroups
from hgw.enumeration import enumerate_hgs
from hgw.errors import GroupSpecError, TheoremViolation
from hgw.groups import right_regular, subgroups
from hgw.model import (
    FixedFieldResult,
    HopfElement,
    act,
    embed_k,
    exact_sequence_check,
    fixed_field,
    fixed_ring_basis,
    fixed_subfield_of_group,
    fixedsum_check,
    hopf_galois_rank,
    make_extension,
)
from hgw.perm import Permutation


def _rows(perm_group):
    return np.array([p.images for p in perm_group.elements], dtype=np.uint8)


def test_fplin_basics():
    p = 11
    mat = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert fplin.rank(mat, p) == 2
    ns = fplin.nullspace(mat, p)
    assert ns.shape[0] == 1
    assert not np.any((mat @ ns[0]) % p)
    assert fplin.row_spaces_equal(np.array([[1, 0], [0, 1]]),
                                  np.array([[3, 5], [7, 2]]), p)


def test_make_extension_validation():
    with pytest.raises(GroupSpecError):
        make_extension(10, 3)  # not prime
    with pytest.raises(GroupSpecError):
        make_extension(5, 6)  # p <= n
    model = make_extension(11, 6)
    assert model.group.order == 6
    assert len(model.modulus) == 7 and model.modulus[-1] == 1


def test_frobenius_order(model_11_6):
    mats = model_11_6.frobenius_matrices
    assert len(mats) == 6
    assert np.array_equal(mats[0], np.eye(6, dtype=np.int64))
    # Frobenius really is x -> x^p
    x = (0, 1, 0, 0, 0, 0)
    assert model_11_6.apply(1, x) == model_11_6.kpow(x, 11)


def test_fixed_space_of_full_group_is_prime_field(model_11_6):
    base = fixed_subfield_of_group(model_11_6, [1])
    assert base.shape[0] == 1
    assert tuple(base[0]) == (1, 0, 0, 0, 0, 0)


def test_embed_k(model_11_6):
    model = model_11_6
    assert embed_k(model, model.zero) == tuple(model.zero for _ in range(6))
    assert embed_k(model, model.one) == tuple(model.one for _ in range(6))
    xs = [(0, 1, 0, 0, 0, 0), (3, 1, 4, 1, 5, 9), (2, 7, 1, 8, 2, 8)]
    for a in xs:
        for b in xs:
            ea, eb = embed_k(model, a), embed_k(model, b)
            eab = embed_k(model, model.mul(a, b))
            assert all(model.mul(u, v) == w for u, v, w in zip(ea, eb, eab))
        assert embed_k(model, a)[0] == a  # identity component is x itself


def test_fixed_ring_of_rho_is_group_ring(model_11_6):
    model = model_11_6
    rho = right_regular(model.group)
    ring = fixed_ring_basis(model, _rows(rho))
    assert ring.dimension == 6
    # lambda acts trivially by conjugation on rho(G), so coefficients are Frobenius-fixed
    for h in ring.basis:
        for c in h.coeffs:
            assert model.apply(1, c) == c  # c in k


def test_act_identities(model_11_6):
    model = model_11_6
    rho = right_regular(model.group)
    ring = fixed_ring_basis(model, _rows(rho))
    x = (4, 9, 0, 3, 0, 1)
    # h = 1 . id acts as the identity
    ident_idx = rho.elements.index(Permutation.identity(6))
    coeffs = [model.zero] * 6
    coeffs[ident_idx] = model.one
    h_id = HopfElement(model, tuple(coeffs))
    assert act(h_id, x, ring) == x
    # h = sum over rho(G) of 1 . rho(g) acts on k-elements as |N| .
    h_sum = HopfElement(model, tuple(model.one for _ in range(6)))
    lam_fixed = (7, 0, 0, 0, 0, 0)
    assert act(h_sum, lam_fixed, ring) == model.smul(6, lam_fixed)


def test_act_matches_classical_action(model_11_6):
    model = model_11_6
    rho = right_regular(model.group)
    ring = fixed_ring_basis(model, _rows(rho))
    x = (4, 9, 0, 3, 0, 1)
    for g in range(6):
        # 1 . rho(g) acts as the automorphism g
        target = Permutation(tuple(model.group.table[y][model.group.inverse_table[g]]
                                   for y in range(6)))
        idx = rho.elements.index(target)
        coeffs = [model.zero] * 6
        coeffs[idx] = model.one
        h = HopfElement(model, tuple(coeffs))
        assert act(h, x, ring) == model.apply(g, x)


def test_act_e_basis_elements_are_multiplicative(model_11_6):
    # in the Map(G, K) model each support element permutes the orthogonal
    # idempotent basis, hence acts multiplicatively componentwise
    model = model_11_6
    rho = right_regular(model.group)
    xs = [(0, 1, 0, 0, 0, 0), (3, 1, 4, 1, 5, 9)]
    for x in xs:
        for y in xs:
            ex, ey = embed_k(model, x), embed_k(model, y)
            exy = embed_k(model, model.mul(x, y))
            for perm in rho.elements:
                permuted_prod = tuple(exy[perm.inverse()(t)] for t in range(6))
                prod_of_permuted = tuple(
                    model.mul(ex[perm.inverse()(t)], ey[perm.inverse()(t)])
                    for t in range(6))
                assert permuted_prod == prod_of_permuted


def test_fixed_field_trivial_and_full(model_11_6):
    model = model_11_6
    records = enumerate_hgs(model.group)
    record = records[0]
    stables = {s.order: s for s in stable_subgroups(record)}
    triv = fixed_field(model, fixed_ring_basis(model, stables[1].rows))
    assert triv.dimension == 6  # F = K
    full = fixed_field(model, fixed_ring_basis(model, stables[6].rows))
    assert full.dimension == 1  # F = k


def test_fixed_field_index_two(model_11_6):
    model = model_11_6
    record = enumerate_hgs(model.group)[0]
    stable = next(s for s in stable_subgroups(record) if s.order == 2)
    result = fixed_field(model, fixed_ring_basis(model, stable.rows))
    assert result.dimension == 3  # the subfield F_{p^3}
    assert set(result.j_points) <= set(range(6)) and len(result.j_points) == 2
    # cross-check against the fixed space of the cube of Frobenius
    assert fplin.row_spaces_equal(result.basis,
                                  fixed_subfield_of_group(model, [3]), model.p)


def test_rank_true_for_structures_false_for_proper_subring(model_11_4):
    model = model_11_4
    for record in enumerate_hgs(model.group):
        ring = fixed_ring_basis(model, record.rows)
        assert hopf_galois_rank(model, ring)
        for stable in stable_subgroups(record):
            if 1 < stable.order < 4:
                sub_ring = fixed_ring_basis(model, stable.rows)
                assert not hopf_galois_rank(model, sub_ring)


def test_fixedsum_hypothesis_and_conclusion(model_11_6):
    model = model_11_6
    j = (0, 3)  # the order-2 subgroup of G = C6
    field = FixedFieldResult(model, fixed_subfield_of_group(model, j), j)
    # S inside J: hypothesis holds and conclusion holds
    assert fixedsum_check(model, (0, 3), field)
    assert fixedsum_check(model, (3,), field)
    # S outside J: hypothesis must fail (sum is not |S| . id on F), implication true
    assert fixedsum_check(model, (1,), field)
    total = model.frobenius_matrices[1]
    violated = any(
        not np.array_equal((total @ vec) % model.p, vec % model.p) for vec in field.basis)
    assert violated


def test_fixedsum_exhaustive_n4(model_11_4):
    model = model_11_4
    for handle in subgroups(model.group):
        pts = tuple(sorted(handle.members))
        field = FixedFieldResult(model, fixed_subfield_of_group(model, pts), pts)
        for r in range(5):
            for subset in itertools.combinations(range(4), r):
                assert fixedsum_check(model, subset, field)


def test_exact_sequence_degenerate_cases(model_11_6):
    model = model_11_6
    record = enumerate_hgs(model.group)[0]
    stables = {s.order: s for s in stable_subgroups(record)}
    info = exact_sequence_check(model, record.rows, stables[1].rows)
    assert info["kernel_dim"] == 0 and info["dim_h_quot"] == 6
    info = exact_sequence_check(model, record.rows, stables[6].rows)
    assert info["kernel_dim"] == 5 and info["dim_h_quot"] == 1


def test_exact_sequence_all_pairs_n4(model_11_4):
    model = model_11_4
    for record in enumerate_hgs(model.group):
        for stable in stable_subgroups(record):
            if not stable.normal_in_n:
                continue
            info = exact_sequence_check(model, record.rows, stable.rows)
            assert info["dim_h_p"] == stable.order
            assert info["kernel_dim"] == 4 - info["dim_h_quot"]


def test_fixed_ring_dimension_violation_detected(model_11_6):
    model = model_11_6
    # a subgroup NOT normalized by lambda(G) must be rejected
    bad = np.array([Permutation.identity(6).images,
                    Permutation.from_cycles([(0, 1)], 6).images], dtype=np.uint8)
    with pytest.raises(TheoremViolation, match="does not normalize the support group"):
        fixed_ring_basis(model, bad)
