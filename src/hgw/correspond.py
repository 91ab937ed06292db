"""The subgroup correspondence P -> Psi(P) = Orb_P(identity) and its census.

For a Hopf-Galois structure N on G, the subgroups P <= N normalized by
lambda(G) map injectively to subgroups J <= G via the orbit of the identity
point. Blocks (left cosets of J) carry quotient actions of N/P and lambda(G);
normality of J in G decides whether the block image of lambda(G) is regular.

Everything about P runs on the index views of its record, on the indices of
N's elements: P is a set of indices, the P-orbit of a point x is ``rows[P, x]``
(so Psi(P) = ``rows[P, 0]``), and lambda(J)-triviality compares coset labels
of N/P. N is its catalog class M relabelled by the record's isomorphism
``m_to_n``, so the subgroup lattice of M is computed once per class and
carried into every record of that class by index; P's class is read from its
preimage there, classified on first use.

One mask gather, ``groups.core_masks``, gives P's lambda(G)-stability over
``lambda_conj``, normality in M over M's ``conjugation`` and J's core over
G's. The left coset xJ is the row ``G.rows[x, J]``, labelled by its least
point, as N/P's cosets are; J's closure test, the orbit-coset check and the
coset blocks are gathers on lambda(G)'s rows too. ``psi_of_rows`` derives J
from P's rows, for the census and the finite-field model, and keeps one
``PsiResult`` per (G, J) on G, where every reader finds J's class and core,
and on first read J's cosets (``space``) and lambda(G)'s block images on them
(``gbar_of``, ``gbar``); ``block_actions`` adds only N's. The onto check and
the census share each ``StableSubgroup.psi_result``, and a census contract
failure names G, N's class and provenance, and P.

The census verifies and aggregates one representative per Aut(G)-orbit of
structures, the first record of each orbit in the list it is given, and
weights its rows by the orbit's record count in that list. The weights are
exact: alpha in Aut(G) acts by N -> alpha N alpha^-1, since
alpha lambda(g) alpha^-1 = lambda(alpha(g)), and carries each stable P to
alpha P alpha^-1 and J = Psi(P) to alpha(J), keeping the classes of N, P and
J, J's normality in G and the order of its core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .catalog import GroupClassLabel, catalog_group, iso_class_of_rows
from .enumeration import HgsRecord, enumerate_hgs, orbit_representatives
from .errors import BlockSystemViolation, TheoremViolation
from .groups import FiniteGroup, SubgroupHandle, core_masks, core_of, subgroups
from .perm import normalizes  # noqa: F401 - hgwbench's tracer self-test checks this alias
from .regsearch import is_regular, normalized_by, regular_table


@dataclass(frozen=True)
class StableSubgroup:
    """A subgroup P of some N that lambda(G) normalizes."""

    hgs: HgsRecord
    p_handle: SubgroupHandle  # members index the record's rows
    normal_in_n: bool

    @property
    def order(self) -> int:
        return self.p_handle.order

    @property
    def rows(self) -> np.ndarray:
        """P's elements as uint8 image rows, sorted like N's."""
        return self.hgs.rows[list(self.p_handle.members)]

    @cached_property
    def psi_result(self) -> PsiResult:
        """``psi(self)``, computed with its contracts on first use."""
        return psi(self)

    @property
    def p_class(self) -> GroupClassLabel:
        """P's class: that of its preimage in the lattice of N's class M."""
        lattice = _class_lattice(self.hgs.n_class.name)
        n_to_m = np.argsort(self.hgs.m_to_n)
        preimage = tuple(sorted(n_to_m[list(self.p_handle.members)].tolist()))
        return lattice.class_of(lattice.position[preimage])


@dataclass(frozen=True)
class PsiResult:
    """J = Psi(P) with its class inside G; its cosets and lambda(G)'s block images on first read."""

    group: FiniteGroup
    j_handle: SubgroupHandle  # members index G's elements
    j_class: GroupClassLabel
    normal_in_g: bool
    core_order: int

    @cached_property
    def space(self) -> CosetSpace:
        return coset_space(self.group, self.j_handle)

    @cached_property
    def gbar_of(self) -> np.ndarray:
        space = self.space  # built before G's rows are read
        return induced_block_perm(self.group.rows, space)

    @cached_property
    def gbar(self) -> np.ndarray:
        # with an index returned, np.unique sorts instead of hashing, which imports numpy.ma
        return np.unique(self.gbar_of, axis=0, return_index=True)[0]


@dataclass(frozen=True, eq=False)
class CosetSpace:
    """The left cosets gJ as blocks of G-indices; identity block, J itself, first."""

    blocks: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]  # each block's least point
    block_index: np.ndarray  # uint8 row: point -> containing block

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True, eq=False)
class BlockActions:
    """N's block images on the left cosets of J, as uint8 rows; lambda(G)'s are J's."""

    nbar_of: np.ndarray  # row i: image of N's row i
    nbar: np.ndarray  # the distinct rows of nbar_of, sorted
    nbar_index: np.ndarray  # entry i: the index in nbar of nbar_of's row i


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


class _ClassLattice:
    """The subgroups of a catalog class M, sorted by (order, members), with normality in M.

    ``mask`` row k marks the members of subgroup k; a subgroup is normal iff
    its core is itself. A subgroup's class is found on first read, once per
    subgroup.
    """

    def __init__(self, model: FiniteGroup):
        self.model = model
        self.subgroups = subgroups(model)
        self.position = {h.members: k for k, h in enumerate(self.subgroups)}
        self.mask = np.array([np.isin(np.arange(model.order), h.members) for h in self.subgroups])
        self.normal = (core_masks(self.mask, model.conjugation) == self.mask).all(axis=1).tolist()
        self._classes: dict[int, GroupClassLabel] = {}

    def class_of(self, k: int) -> GroupClassLabel:
        if k not in self._classes:
            members = list(self.subgroups[k].members)
            self._classes[k] = iso_class_of_rows(self.model.rows[members])
        return self._classes[k]


@cache
def _class_lattice(name: str) -> _ClassLattice:
    """The lattice of the catalog class ``name``, built once per name."""
    return _ClassLattice(catalog_group(name))


def stable_subgroups(record: HgsRecord) -> list[StableSubgroup]:
    """All subgroups of N normalized by lambda(G), flagged with P-normality in N.

    They are the subgroups of N's class M carried by ``m_to_n``, sorted by
    (order, members) in N's indices; P is normal in N iff its preimage is
    normal in M.
    """
    n_to_m = np.argsort(record.m_to_n)
    lattice = _class_lattice(record.n_class.name)
    inside = lattice.mask[:, n_to_m]  # row k: subgroup k on N's indices
    stable = (core_masks(inside, record.lambda_conj) == inside).all(axis=1)
    out = [StableSubgroup(record, SubgroupHandle(tuple(np.flatnonzero(inside[k]).tolist())),
                          lattice.normal[k])
           for k in np.flatnonzero(stable).tolist()]
    out.sort(key=lambda s: (s.order, s.p_handle.members))
    return out


def psi(stable: StableSubgroup) -> PsiResult:
    """Psi(P) = orbit of the identity point under P, as a subgroup of G."""
    return psi_of_rows(stable.hgs.group, stable.rows)


def psi_of_rows(group: FiniteGroup, p_rows: np.ndarray) -> PsiResult:
    """J = Psi(P), the identity orbit of P's uint8 rows, kept as one ``PsiResult`` per J on G.

    Closure depends on the orbit alone, so an orbit that fails it fails for
    every P and is never kept. This is the package's one store kept on an
    object rather than in a ``functools.cache``: the result holds G, which
    holds the result, so the garbage collector frees them together, where a
    module cache keyed by G would keep every group it ever saw alive.
    """
    orbit = tuple(sorted(set(p_rows[:, 0].tolist())))
    if len(orbit) != len(p_rows):
        raise TheoremViolation(
            "identity orbit size differs from |P|; P was not lambda(G)-stable")
    by_orbit = vars(group).setdefault("_psi", {})
    if orbit not in by_orbit:
        if not np.isin(group.rows[np.ix_(orbit, orbit)], orbit).all():
            raise TheoremViolation("identity orbit is not closed under the group operation; "
                                   "P was not lambda(G)-stable")
        j_handle = SubgroupHandle(orbit)
        core_order = core_of(group, j_handle).order
        j_class = iso_class_of_rows(group.rows[list(orbit)])
        by_orbit[orbit] = PsiResult(group, j_handle, j_class, core_order == len(orbit), core_order)
    return by_orbit[orbit]


def orbit_coset_check(stable: StableSubgroup, result: PsiResult) -> bool:
    """Every P-orbit rows[P, x] must be the left coset xJ = rows[x, J].

    P is semiregular and |P| = |J|, so the orbit and the coset are equal as
    sets iff they are equal sorted.
    """
    cosets = stable.hgs.group.rows[:, list(result.j_handle.members)]
    return np.array_equal(np.sort(stable.rows.T, axis=1), np.sort(cosets, axis=1))


def psi_onto(record: HgsRecord, stables: Sequence[StableSubgroup],
             subgroup_sets: frozenset[tuple[int, ...]]) -> bool:
    """True iff {Psi(P)} over ``record``'s stable P, ``stables``, is G's ``subgroup_sets``."""
    return {s.psi_result.j_handle.members for s in stables} == set(subgroup_sets)


# -- coset spaces and quotient actions ------------------------------------------


def coset_space(group: FiniteGroup, j_handle: SubgroupHandle) -> CosetSpace:
    """Left cosets of J in G as blocks sorted by label; the identity block, labelled 0, first."""
    labels = _coset_labels(group.rows, j_handle.members)
    reps, block_index = np.unique(labels, return_inverse=True)
    blocks = np.argsort(block_index, kind="stable").reshape(len(reps), -1)  # points by block
    return CosetSpace(tuple(map(tuple, blocks.tolist())), tuple(reps.tolist()),
                      block_index.astype(np.uint8))


def _coset_labels(table: np.ndarray, members: Sequence[int]) -> np.ndarray:
    """The label of each point x of a group's Cayley table: the least point of its left
    coset xH = table[x, H], for H the subgroup ``members``."""
    return table[:, list(members)].min(axis=1)


def induced_block_perm(rows: np.ndarray, space: CosetSpace) -> np.ndarray:
    """The block images of a (k, n) stack of block-respecting point maps, as (k, m) rows.

    Row r sends block i to the block of r(block i's least point); it respects
    the blocks iff every point lands in the block its own block is sent to.
    """
    block_index = space.block_index
    landed = block_index[rows]  # block of r(x)
    images = landed[:, space.representatives]
    broken = landed != images[:, block_index]
    if broken.any():
        r = int(np.flatnonzero(broken.any(axis=1))[0])
        i = int(block_index[broken[r]].min())
        raise BlockSystemViolation(
            f"permutation does not map block {i} onto a block", block=space.blocks[i])
    if not (np.sort(images, axis=1) == np.arange(space.block_count)).all():
        raise BlockSystemViolation("induced block map is not a bijection")
    return images


def block_actions(n_rows: np.ndarray, result: PsiResult) -> BlockActions:
    """The block images of N's rows on the left cosets of J, read from ``result.space``."""
    nbar_of = induced_block_perm(n_rows, result.space)
    nbar, nbar_index = np.unique(nbar_of, axis=0, return_inverse=True)
    return BlockActions(nbar_of, nbar, nbar_index.reshape(-1))


def quotient_structure(stable: StableSubgroup, result: PsiResult) -> BlockActions:
    """Quotient actions of N and lambda(G) on the left cosets of J = Psi(P); returns N's.

    Requires P normal in N. Asserts: the block image of N is regular of order
    [N:P] with kernel exactly P, the block image of lambda(G) is transitive
    and normalizes it. When J is normal in G the lambda(J)-image must be
    trivial (pointwise on blocks and by conjugation on the cosets nP of N)
    and the lambda(G)-image must be regular of order [G:J]; otherwise it is
    not, since its kernel is J's core, so ``result.normal_in_g`` tells which.
    """
    if not stable.normal_in_n:
        raise _violation(stable, "quotient structure requires P normal in N")
    record = stable.hgs
    actions = block_actions(record.rows, result)
    nbar, gbar = actions.nbar, result.gbar
    m = result.space.block_count
    kernel = tuple(np.flatnonzero((actions.nbar_of == np.arange(m)).all(axis=1)).tolist())
    if kernel != stable.p_handle.members:
        raise _violation(stable, "kernel of the block action of N is not exactly P")
    if not is_regular(nbar) or len(nbar) * stable.order != len(record.rows):
        raise _violation(stable, "block image of N is not regular of order [N:P]")
    if not np.bincount(gbar[:, 0], minlength=m).all():
        raise _violation(stable, "block image of lambda(G) is not transitive")
    if not normalized_by(nbar[None], gbar)[0]:
        raise _violation(stable, "block image of lambda(G) does not normalize that of N")

    if result.normal_in_g:
        _assert_lambda_j_trivial(stable, result)
        # transitive on m blocks, so regular iff of order m = [G:J]
        if len(gbar) * result.j_handle.order != record.group.order:
            raise _violation(stable, "block image of lambda(G) is not regular of order [G:J]")
    return actions


def _assert_lambda_j_trivial(stable: StableSubgroup, result: PsiResult) -> None:
    """lambda(J) must act trivially: fix every block and every coset nP of N."""
    j = list(result.j_handle.members)
    if not (result.gbar_of[j] == np.arange(result.space.block_count)).all():
        raise _violation(stable, "lambda(j) moves a block although J is normal")
    coset_of = _coset_labels(regular_table(stable.hgs.rows), stable.p_handle.members)
    if not (coset_of[stable.hgs.lambda_conj[j]] == coset_of).all():
        raise _violation(stable, "conjugation by lambda(j) moves a coset nP although J is normal")


def _violation(stable: StableSubgroup, problem: str) -> TheoremViolation:
    """A census contract failure, named by G, N's class and provenance, and P's members."""
    record = stable.hgs
    return TheoremViolation(
        f"{problem} (G = {record.group!r}, N of class {record.n_class.name} and provenance "
        f"{record.provenance}, P = {stable.p_handle.members})")


# -- census ---------------------------------------------------------------------


def correspondence_rows(group: FiniteGroup, records: Sequence[HgsRecord] | None = None,
                        verify: bool = True,
                        stables_by_record: dict | None = None) -> list[CorrespondenceRow]:
    """Aggregated (count, [N], [P], [J], J-normality, |I|) census over all
    structures N and all proper nontrivial stable P normal in N.

    Only the first record of each Aut(G)-orbit in ``records`` is verified and
    aggregated, its rows weighted by its orbit's record count there; the
    module docstring says why those weights are exact.
    """
    if records is None:
        records = enumerate_hgs(group)
    agg: dict[tuple, int] = {}
    for record, weight in orbit_representatives(records):
        stables = (stables_by_record or {}).get(record.key) or stable_subgroups(record)
        for stable in stables:
            if not stable.normal_in_n:
                continue
            if stable.order in (1, len(record.rows)):
                continue
            result = stable.psi_result
            if verify:
                _verify_pair(stable, result)
            key = (record.n_class.name, stable.p_class.name, result.j_class.name,
                   result.normal_in_g, result.core_order)
            agg[key] = agg.get(key, 0) + weight
    rows = [CorrespondenceRow(count, *key) for key, count in agg.items()]
    rows.sort(key=lambda r: (r.n_class, r.p_class, r.j_class, not r.j_normal, r.core_order))
    return rows


def _verify_pair(stable: StableSubgroup, result: PsiResult) -> None:
    if not orbit_coset_check(stable, result):
        raise _violation(stable, "a P-orbit is not the matching left coset of Psi(P)")
    quotient_structure(stable, result)
