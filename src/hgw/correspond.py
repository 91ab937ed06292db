"""The subgroup correspondence P -> Psi(P) = Orb_P(identity) and its census.

For a Hopf-Galois structure N on G, the subgroups P <= N normalized by
lambda(G) map injectively to subgroups J <= G via the orbit of the identity
point. Blocks (left cosets of J) carry quotient actions of N/P and lambda(G);
normality of J in G decides whether the block image of lambda(G) is regular.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

from .catalog import GroupClassLabel, iso_class
from .enumeration import HgsRecord
from .errors import BlockSystemViolation, TheoremViolation
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    core_of,
    generating_subset_of,
    left_regular,
    subgroups,
)
from .perm import PermGroup, Permutation, normalizes


@dataclass(frozen=True)
class StableSubgroup:
    """A subgroup P of some N that lambda(G) normalizes."""

    hgs: HgsRecord
    p_handle: SubgroupHandle  # ambient: the N PermGroup
    normal_in_n: bool

    @property
    def order(self) -> int:
        return self.p_handle.order

    def perm_group(self) -> PermGroup:
        return self.p_handle.as_perm_group()


@dataclass(frozen=True)
class PsiResult:
    """J = Psi(P) together with its classification inside G."""

    j_handle: SubgroupHandle  # ambient: the abstract group G
    j_class: GroupClassLabel
    normal_in_g: bool
    core_order: int


@dataclass(frozen=True)
class CosetSpace:
    """The left cosets gJ as blocks of G-indices; identity block first."""

    group: FiniteGroup
    j_handle: SubgroupHandle
    blocks: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    block_index: tuple[int, ...]  # point -> containing block

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class QuotientHGS:
    """Block images of N (regular, = N/P) and lambda(G) on a coset space."""

    space: CosetSpace
    nbar_gens: tuple[Permutation, ...]
    gbar_gens: tuple[Permutation, ...]
    nbar: PermGroup
    gbar: PermGroup
    gbar_regular: bool


@dataclass(frozen=True)
class CorrespondenceRow:
    """One aggregated census row over (N, P) pairs with P normal in N."""

    count: int
    n_class: str
    p_class: str
    j_class: str
    j_normal: bool
    core_order: int

    def key(self) -> tuple:
        return (self.n_class, self.p_class, self.j_class, self.j_normal, self.core_order)


# -- stable subgroups and Psi ---------------------------------------------------


# lambda(G) per group: a census asks for it once per record, and records share G
_LAMBDA: weakref.WeakKeyDictionary[FiniteGroup, PermGroup] = weakref.WeakKeyDictionary()


def stable_subgroups(record: HgsRecord) -> list[StableSubgroup]:
    """All subgroups of N normalized by lambda(G), flagged with P-normality in N."""
    lam = _LAMBDA.get(record.group)
    if lam is None:
        lam = _LAMBDA[record.group] = left_regular(record.group)
    out = []
    for handle in subgroups(record.n_group):
        sub = handle.as_perm_group()
        if normalizes(lam, sub):
            out.append(StableSubgroup(record, handle, normalizes(record.n_group, sub)))
    return out


def psi(stable: StableSubgroup) -> PsiResult:
    """Psi(P) = orbit of the identity point under P, as a subgroup of G."""
    group = stable.hgs.group
    p_group = stable.perm_group()
    orbit = sorted(p_group.orbit(0))
    members = frozenset(orbit)
    if len(members) != p_group.order:
        raise TheoremViolation(
            "identity orbit size differs from |P|; P was not lambda(G)-stable")
    for a in orbit:
        for b in orbit:
            if group.mul(a, b) not in members:
                raise TheoremViolation(
                    "identity orbit is not closed under the group operation; "
                    "P was not lambda(G)-stable")
    j_handle = SubgroupHandle(group, tuple(orbit))
    core = core_of(group, j_handle)
    return PsiResult(
        j_handle=j_handle,
        j_class=iso_class(_subgroup_as_group(group, j_handle)),
        normal_in_g=core.order == j_handle.order,
        core_order=core.order,
    )


def _subgroup_as_group(group: FiniteGroup, handle: SubgroupHandle) -> FiniteGroup:
    members = list(handle.members)
    index = {x: i for i, x in enumerate(members)}
    table = [[index[group.mul(a, b)] for b in members] for a in members]
    labels = [group.elements[x] for x in members]
    return FiniteGroup(labels, table, spec=f"subgroup of order {len(members)}")


def orbit_coset_check(stable: StableSubgroup, result: PsiResult) -> bool:
    """Every P-orbit must be the left coset gJ of its points."""
    group = stable.hgs.group
    p_group = stable.perm_group()
    j = result.j_handle.members
    for orbit in p_group.orbits():
        g0 = min(orbit)
        coset = {group.mul(g0, x) for x in j}
        if set(orbit) != coset:
            return False
    return True


def psi_onto(record: HgsRecord, stables: Sequence[StableSubgroup] | None = None,
             subgroup_sets: frozenset[tuple[int, ...]] | None = None) -> bool:
    """True iff {Psi(P)} over stable P equals the full subgroup set of G."""
    if stables is None:
        stables = stable_subgroups(record)
    if subgroup_sets is None:
        subgroup_sets = frozenset(h.members for h in subgroups(record.group))
    images = {psi(s).j_handle.members for s in stables}
    return images == set(subgroup_sets)


# -- coset spaces and quotient actions ------------------------------------------


def coset_space(group: FiniteGroup, j_handle: SubgroupHandle) -> CosetSpace:
    """Left cosets of J in G; representatives minimal, identity block first."""
    j = sorted(j_handle.members)
    remaining = set(range(group.order))
    blocks: list[tuple[int, ...]] = []
    reps: list[int] = []
    block_index = [-1] * group.order
    while remaining:
        rep = 0 if not blocks else min(remaining)
        coset = tuple(sorted(group.mul(rep, x) for x in j))
        for x in coset:
            block_index[x] = len(blocks)
        blocks.append(coset)
        reps.append(rep)
        remaining -= set(coset)
    return CosetSpace(group, j_handle, tuple(blocks), tuple(reps), tuple(block_index))


def induced_block_perm(perm: Permutation, space: CosetSpace) -> Permutation:
    """The permutation of block indices induced by a block-respecting map."""
    images = []
    for i, block in enumerate(space.blocks):
        j = space.block_index[perm(block[0])]
        if {perm(x) for x in block} != set(space.blocks[j]):
            raise BlockSystemViolation(
                f"permutation does not map block {i} onto a block", block=block)
        images.append(j)
    if sorted(images) != list(range(space.block_count)):
        raise BlockSystemViolation("induced block map is not a bijection")
    return Permutation(images)


def quotient_structure(stable: StableSubgroup, result: PsiResult) -> QuotientHGS:
    """Quotient actions of N and lambda(G) on the left cosets of J = Psi(P).

    Requires P normal in N. Asserts: the block image of N is regular of order
    [N:P] with kernel exactly P, the block image of lambda(G) is transitive
    and normalizes it. When J is normal in G the lambda(J)-image must be
    trivial (pointwise on blocks and by conjugation on the cosets nP of N)
    and the lambda(G)-image must be regular of order [G:J].
    """
    if not stable.normal_in_n:
        raise TheoremViolation("quotient structure requires P normal in N")
    record = stable.hgs
    group = record.group
    space = coset_space(group, result.j_handle)
    m = space.block_count

    n_elems = record.n_group.elements
    nbar_map = {p: induced_block_perm(p, space) for p in n_elems}
    nbar_perms = sorted(set(nbar_map.values()))
    nbar = PermGroup(m, generating_subset_of(nbar_perms), nbar_perms)
    kernel = {p for p, image in nbar_map.items() if image.is_identity()}
    if kernel != set(stable.p_handle.element_perms()):
        raise TheoremViolation("kernel of the block action of N is not exactly P")
    if not nbar.is_regular() or nbar.order * stable.order != record.n_group.order:
        raise TheoremViolation("block image of N is not regular of order [N:P]")

    gbar_map = {g: induced_block_perm(Permutation(group.table[g]), space)
                for g in range(group.order)}
    gbar_perms = sorted(set(gbar_map.values()))
    gbar = PermGroup(m, generating_subset_of(gbar_perms), gbar_perms)
    if not gbar.is_transitive():
        raise TheoremViolation("block image of lambda(G) is not transitive")
    if not normalizes(gbar, nbar):
        raise TheoremViolation("block image of lambda(G) does not normalize that of N")

    gbar_regular = False
    if result.normal_in_g:
        _assert_lambda_j_trivial(stable, result, space, gbar_map)
        gbar_regular = gbar.is_regular()
        if not gbar_regular or gbar.order * result.j_handle.order != group.order:
            raise TheoremViolation("block image of lambda(G) is not regular of order [G:J]")

    return QuotientHGS(
        space=space,
        nbar_gens=tuple(nbar.generators),
        gbar_gens=tuple(gbar.generators),
        nbar=nbar,
        gbar=gbar,
        gbar_regular=gbar_regular,
    )


def _assert_lambda_j_trivial(stable: StableSubgroup, result: PsiResult, space: CosetSpace,
                             gbar_map: dict[int, Permutation]) -> None:
    """lambda(J) must act trivially: fix every block and every coset nP of N."""
    group = stable.hgs.group
    p_members = frozenset(p.images for p in stable.p_handle.element_perms())
    n_elems = stable.hgs.n_group.elements
    cosets = {}
    for p in n_elems:
        coset = frozenset((p * q).images for q in stable.p_handle.element_perms())
        cosets[p.images] = coset
    for j in result.j_handle.members:
        if not gbar_map[j].is_identity():
            raise TheoremViolation("lambda(j) moves a block although J is normal")
        lam_j = Permutation(group.table[j])
        lam_j_inv = lam_j.inverse()
        for p in n_elems:
            conj = lam_j * p * lam_j_inv
            if conj.images not in cosets[p.images]:
                raise TheoremViolation(
                    "conjugation by lambda(j) moves a coset nP although J is normal")


# -- census ---------------------------------------------------------------------


def correspondence_rows(group: FiniteGroup, records: Sequence[HgsRecord] | None = None,
                        verify: bool = True,
                        stables_by_record: dict | None = None) -> list[CorrespondenceRow]:
    """Aggregated (count, [N], [P], [J], J-normality, |I|) census over all
    structures N and all proper nontrivial stable P normal in N."""
    if records is None:
        from .enumeration import enumerate_hgs

        records = enumerate_hgs(group)
    agg: dict[tuple, int] = {}
    for record in records:
        stables = (stables_by_record or {}).get(record.key) or stable_subgroups(record)
        for stable in stables:
            if not stable.normal_in_n:
                continue
            if stable.order in (1, record.n_group.order):
                continue
            result = psi(stable)
            if verify:
                _verify_pair(stable, result)
            p_class = iso_class(stable.perm_group()).name
            key = (record.n_class.name, p_class, result.j_class.name,
                   result.normal_in_g, result.core_order)
            agg[key] = agg.get(key, 0) + 1
    rows = [CorrespondenceRow(count, *key) for key, count in agg.items()]
    rows.sort(key=lambda r: (r.n_class, r.p_class, r.j_class, not r.j_normal, r.core_order))
    return rows


def _verify_pair(stable: StableSubgroup, result: PsiResult) -> None:
    if not orbit_coset_check(stable, result):
        raise TheoremViolation("a P-orbit is not the matching left coset of Psi(P)")
    quotient_structure(stable, result)
