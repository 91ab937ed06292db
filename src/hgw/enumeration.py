"""Enumeration of Hopf-Galois structures: regular lambda(G)-normalized subgroups.

One path turns embeddings into records. For every isomorphism type M of order
|G|, each regular subgroup V <= Hol(M) isomorphic to G, together with each
isomorphism beta: G -> V, transports to one regular subgroup N <= Perm(G)
normalized by lambda(G), via conjugation by the base-point bijection
b(g) = beta(g)(0).

Hol(M) is one uint8 stack of rows x -> m alpha(x), gathered from M's ``rows``.
Its regular subgroups are searched once, up to conjugation by the
automorphisms of M that fix the point 1 (see ``regsearch``, which owns the row
format), and come back as one uint8 stack of sorted rows in canonical order.
Those isomorphic to G's catalog group M_G are found lazily, once per Hol(M)
and class: ``catalog.class_invariants`` of the whole stack are read once, and
the V with M_G's invariant are grouped into classes under conjugation by
Aut(M). Each generator of Aut(M) (generators of the stabiliser of 1, and one
automorphism for each point of 1's orbit that the generators before it do not
reach) conjugates them in one gather, a binary search finds the images, and
``regsearch.orbit_leaders`` labels each V with the least V of its class. Only
that least V gets a Cayley table and one isomorphism search M_G -> V, kept
with its rows, which certifies its class: a miss is a TheoremViolation.

Byott's translation matches the Aut(M)-classes of V one to one with the
Aut(G)-orbits of structures of type M, and every V of one class gives the
same N. So the enumeration walks the least V of each class only, in canonical
order, and numbers its embeddings as if every V were walked: the V before it
in G's class have |Aut(G)| embeddings each.

Aut(G) and one isomorphism G -> M_G are computed once per ``enumerate_hgs``
call; beta0 = (M_G -> V) o (G -> M_G), and V's embeddings are the maps
beta0 o alpha for alpha in Aut(G), numbered in sorted order, which is the
order ``all_isomorphisms(G, V)`` would list them in. Whichever beta0 is
composed, they are all the isomorphisms G -> V, so that numbering, and with
it provenance, does not depend on the search.
Since b0 o alpha is the base map of beta0 o alpha, its N is alpha^-1 N0 alpha:
the N of V's embeddings are one whole orbit of Aut(G) acting by
N -> alpha N alpha^-1, and two embeddings give the same N iff their alpha lie
in one coset St o alpha of N0's stabiliser St in Aut(G). St is read off one
gather of N0's generators, conjugated by every alpha. The walk takes the
embeddings in id order and builds N only for the first alpha of each coset,
by one gather on N0's rows, and marks the coset, found by a binary search
among Aut(G)'s sorted rows, as reached. The cosets must partition Aut(G)
and give distinct N, or St is not N0's stabiliser: either failure is a
TheoremViolation. Each record is tagged with its orbit: the canonical index
of the V whose embeddings first gave N. ``orbit_representatives`` reads the
orbits of a record list off those tags, for the census.

A record is N's rows, sorted by image tuple (for a regular N, by image of 0);
the rows are also the key that deduplicates embeddings. N's PermGroup is built
only when read, and no function of the package takes one. For the first
embedding of each coset the transport is checked: b is bijective, the
transported beta(G) equals lambda(G), and N's rows are b^-1 lambda(M) b.
Each N must arise from |St| |class| = |Aut(M)| embeddings of its class's
least V; with |orbit| = |Aut(G)| / |St| that is Byott's count
|orbit| |Aut(M)| = |class| |Aut(G)|. Then N gets the checks that a given N
(``HgsRecord.from_rows``, from its rows in any order) gets too, in one
constructor: N's degree is |G|, N is regular, lambda(G) normalizes N (the
check also builds ``lambda_conj``), and ``m_to_n`` is an isomorphism from M,
the catalog group of N's class, onto N's rows. The transport gives ``m_to_n``
as b^-1; a given N gets it from the search that finds each V. Every failed
check raises TheoremViolation naming N's class, its provenance and G.

A direct brute-force search of Perm(G) certifies the holomorph route at small
degrees. Sym(n) is one stack of rows, its regular subgroups are searched once
per degree, up to conjugation by the stabiliser of 0 and 1, and come back as
one stack; one stack test against lambda of a generating sequence of G keeps
those that lambda(G) normalizes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import catalog, groups, regsearch
from .catalog import GroupClassLabel, catalog_group, catalog_names, iso_class
from .errors import EnumerationOverflow, TheoremViolation, UncoveredOrder
from .groups import (FiniteGroup, all_isomorphisms, an_isomorphism, generating_subset_of,
                     semiregular_group)
from .perm import PermGroup, Permutation
from .regsearch import conjugate, is_regular, orbit_leaders, row_indices, sorted_row_indices

ORACLE_DEGREE_CAP = 8


@dataclass(frozen=True, eq=False)
class HgsRecord:
    """One Hopf-Galois structure: a regular lambda(G)-normalized N <= Perm(G).

    ``rows`` holds N's elements as uint8 image arrays, sorted by image tuple;
    the fields ``lambda_conj`` and ``m_to_n`` view N on the indices of those
    rows, and both are checked when the record is built. Records compare by
    identity; ``key`` identifies N, and ``orbit`` N's Aut(G)-orbit.
    """

    group: FiniteGroup
    rows: np.ndarray
    n_class: GroupClassLabel
    provenance: tuple[str, int]  # (model class name, embedding id within that model)
    lambda_conj: np.ndarray  # row g maps index a to the index of lambda(g) a lambda(g)^-1 in N
    m_to_n: np.ndarray  # entry m is the index in N of m's image under an isomorphism M -> N
    # N's Aut(G)-orbit within its class: the canonical index of the V <= Hol(M) whose
    # embeddings first gave N; None for a given N, which is its own orbit
    orbit: int | None = None

    @classmethod
    def from_rows(cls, group: FiniteGroup, rows: np.ndarray, n_class: GroupClassLabel,
                  provenance: tuple[str, int]) -> HgsRecord:
        """The record of a given N, its uint8 rows in any order, checked by ``_checked``."""
        return cls._checked(group, rows[np.lexsort(rows.T[::-1])], n_class, provenance)

    @classmethod
    def _checked(cls, group: FiniteGroup, rows: np.ndarray, n_class: GroupClassLabel,
                 provenance: tuple[str, int], m_to_n: np.ndarray | None = None,
                 orbit: int | None = None) -> HgsRecord:
        """The record of N's sorted rows, once every check that both routes share holds.

        N's degree must be |G|, N regular and normalized by lambda(G), which
        builds ``lambda_conj``, and ``m_to_n`` an isomorphism from M, the
        catalog group of N's class, onto N's rows. Without ``m_to_n`` one is
        searched for, as for each V of Hol(M), so N's order must be a catalog
        order.
        """
        n = group.order
        if rows.shape[1] != n:
            raise _violation(group, n_class, provenance,
                             f"has degree {rows.shape[1]}, but |G| = {n}")
        if not is_regular(rows):  # the rows are sorted by image tuple, so by image of 0 if regular
            raise _violation(group, n_class, provenance, "is not regular")
        conj = _lambda_conjugation(group, rows)
        if conj is None:
            raise _violation(group, n_class, provenance, "is not normalized by lambda(G)")
        if m_to_n is None:
            if not catalog_names(n):
                raise UncoveredOrder(f"catalog does not cover order {n}")
            m_to_n = an_isomorphism(catalog_group(n_class.name), semiregular_group(rows)) or ()
        c = np.asarray(m_to_n, dtype=np.intp)
        # N is regular, so row i o row j sends 0 to rows[i, j], the index of their product
        if (not np.array_equal(np.sort(c), np.arange(n))
                or not np.array_equal(rows[np.ix_(c, c)], c[catalog_group(n_class.name).rows])):
            raise _violation(group, n_class, provenance,
                             f"is not isomorphic to its class {n_class.name}")
        return cls(group, rows, n_class, provenance, conj, c.astype(np.uint8), orbit)

    @property
    def key(self) -> bytes:
        return self.rows.tobytes()

    @cached_property
    def n_group(self) -> PermGroup:
        """N as a PermGroup, built on first read.

        Nothing in the package reads it; it stays for the benchmark's oracle
        workload and the tests, which compare N's element sets.
        """
        perms = [Permutation(row) for row in self.rows.tolist()]
        return PermGroup(len(perms), generating_subset_of(perms), perms)


def orbit_representatives(records: Sequence[HgsRecord]) -> list[tuple[HgsRecord, int]]:
    """(first record, record count) of each Aut(G)-orbit met in ``records``, in list order.

    Records of one orbit are those of one G, one class and one ``orbit`` tag;
    a record without a tag is its own orbit.
    """
    first: dict[object, HgsRecord] = {}
    weights: Counter[object] = Counter()
    for record in records:
        key = (record if record.orbit is None
               else (record.group, record.n_class.name, record.orbit))
        first.setdefault(key, record)
        weights[key] += 1
    return [(record, weights[key]) for key, record in first.items()]


def _lambda_conjugation(group: FiniteGroup, rows: np.ndarray) -> np.ndarray | None:
    """``lambda_conj`` of N's rows; None unless lambda(G) normalizes N."""
    conj = row_indices(rows, conjugate(rows, group.rows))  # [g, a]: lambda(g) a lambda(g)^-1
    return None if conj is None else conj.astype(np.uint8)


def _violation(group: FiniteGroup, n_class: GroupClassLabel, provenance: tuple[str, int],
               problem: str) -> TheoremViolation:
    return TheoremViolation(
        f"N of class {n_class.name} and provenance {provenance} {problem} (G = {group!r})")


# -- holomorph machinery ------------------------------------------------------


class _VClasses(NamedTuple):
    """The regular subgroups V <= Hol(M) of one class, grouped into Aut(M)-classes."""

    positions: np.ndarray  # canonical index in Hol(M)'s stack of every such V, ascending
    # (position, rows, iso, class size) of each class's least V, in canonical order; iso maps
    # the class's catalog group onto V, by the indices of V's rows
    leaders: list[tuple[int, np.ndarray, tuple[int, ...], int]]


class _HolData:
    """Hol(M) and its regular subgroups as uint8 stacks, and those of one class, grouped
    into Aut(M)-classes with an isomorphism from the class's catalog group, on demand."""

    def __init__(self, m_name: str, model: FiniteGroup):
        self.m_name = m_name
        self.model = model
        n = model.order
        # Aut(M) from the groups layer: this module's alias may be replaced to fake Aut(G)
        aut_rows = groups.automorphisms(model)
        self.aut_order = len(aut_rows)
        self.generators = groups.generating_sequence(model)  # their images generate each N
        # row (m, a): x -> m * alpha(x); this product set is all of Hol(M), and row (m, a)
        # sends 0 to m, so its rows are distinct iff the automorphisms are
        self.rows = model.rows[:, aut_rows].reshape(n * self.aut_order, n)
        if len({row.tobytes() for row in aut_rows}) != self.aut_order:  # pragma: no cover - sanity
            raise TheoremViolation("holomorph row set has duplicates")
        # Aut(M) normalises Hol(M); the automorphisms that fix 1 also fix the search's root,
        # and a generating set of them gives the search the same orbits. Only generators of
        # Aut(M) are kept: keeping every automorphism raises the peak memory of a sweep
        symmetries = self.aut_generators = aut_rows  # at degree 1, Aut(M) is the identity alone
        if n > 1:
            stabiliser = aut_rows[aut_rows[:, 1] == 1]  # sorted, as aut_rows are
            table = groups.cayley_table(stabiliser)
            # a trivial stabiliser has no generators, but _root_orbits needs one symmetry
            gens = groups.generating_sequence(FiniteGroup(range(len(table)), table)) or [0]
            symmetries = stabiliser[gens]
            # an automorphism sending 1 to each point that the generators chosen so far do not
            # reach: they reach all of 1's orbit, so with Stab(1) they generate Aut(M)
            gens, leader = symmetries, orbit_leaders(symmetries)
            for alpha in aut_rows[np.unique(aut_rows[:, 1], return_index=True)[1]]:
                if leader[alpha[1]] != leader[1]:
                    gens = np.concatenate([gens, alpha[None]])
                    leader = orbit_leaders(gens)
            self.aut_generators = gens
        self.subgroups = regsearch.regular_subgroups(self.rows, symmetries)
        self._invariants = catalog.class_invariants(self.subgroups)
        self._isomorphic: dict[str, _VClasses] = {}

    def isomorphic_to(self, class_name: str) -> _VClasses:
        """The regular subgroups V of class ``class_name``, by their Aut(M)-classes.

        V's rows are sorted, identity first. Only the least V of each Aut(M)-class
        of the V with the class's invariant gets a table and a search; no other
        class shares the invariant, so a V the search misses is a TheoremViolation.
        """
        if class_name not in self._isomorphic:
            invariant = catalog.catalog_invariant(class_name)
            matched = np.flatnonzero((self._invariants == invariant).all(axis=1))
            leader = self._aut_classes(matched)
            sizes = np.bincount(leader, minlength=len(matched))
            leaders = []
            for i in np.flatnonzero(sizes).tolist():
                rows = self.subgroups[matched[i]]
                iso = an_isomorphism(catalog_group(class_name), semiregular_group(rows))
                if iso is None:
                    raise TheoremViolation(f"regular subgroup of Hol({self.m_name}) classed "
                                           f"{class_name} is not isomorphic to {class_name}")
                leaders.append((int(matched[i]), rows, iso, int(sizes[i])))
            self._isomorphic[class_name] = _VClasses(matched, leaders)
        return self._isomorphic[class_name]

    def _aut_classes(self, matched: np.ndarray) -> np.ndarray:
        """Entry i is the index in ``matched`` of the least V in the Aut(M)-class of
        V = subgroups[matched[i]]; ``matched`` must be closed under Aut(M)."""
        if not len(matched):
            return matched
        stack = self.subgroups[matched]  # sorted, as the whole stack is
        flat = stack.reshape(len(stack), -1)
        image = []
        for alpha in self.aut_generators:  # one at a time: one gather of all would cost MiBs
            moved = regsearch.conjugate_subgroups(stack, alpha[None])
            found = sorted_row_indices(flat, moved.reshape(flat.shape))
            if found is None:
                raise TheoremViolation(f"an automorphism of {self.m_name} does not map the regular "
                                       f"subgroups of Hol({self.m_name}) of one class invariant "
                                       "to themselves")
            image.append(found)
        return orbit_leaders(np.stack(image))


@cache
def _hol_data(m_name: str) -> _HolData:
    return _HolData(m_name, catalog_group(m_name))


# -- the enumeration ----------------------------------------------------------


def enumerate_hgs(group: FiniteGroup) -> list[HgsRecord]:
    """All Hopf-Galois structures on a Galois extension with group ``group``.

    Output is deterministic: records sorted by (model class in catalog order,
    element set).
    """
    names = catalog_names(group.order)
    if not names:
        raise UncoveredOrder(f"catalog does not cover order {group.order}")
    g_class = iso_class(group).name
    g_to_m = an_isomorphism(group, catalog_group(g_class))
    if g_to_m is None:
        raise TheoremViolation(f"G = {group!r} is not isomorphic to its class {g_class}")
    # sorted by image tuple, as all_isomorphisms lists them: the coset lookups search it
    aut_g = np.array(all_isomorphisms(group, group), dtype=np.uint8)
    return [rec for m_name in names
            for rec in _records_for_model(group, g_class, np.array(g_to_m), aut_g, m_name)]


def _records_for_model(group: FiniteGroup, g_class: str, g_to_m: np.ndarray, aut_g: np.ndarray,
                       m_name: str) -> list[HgsRecord]:
    """The structures of class M: one record per distinct N, sorted by element set.

    Every V of one Aut(M)-class gives the same N, so only the least V of each
    class is walked; its embeddings keep the ids they have when every V is.
    Of V's embeddings, one per coset of N0's stabiliser in Aut(G) is built.
    """
    n = group.order
    hol = _hol_data(m_name)
    mul = hol.model.rows
    aut_inv = np.argsort(aut_g, axis=1).astype(np.uint8)  # row a: alpha^-1
    n_class = GroupClassLabel(m_name, n)
    # key -> (provenance, V's index, b^-1, N's rows, V's class size) of N's first embedding
    first: dict[bytes, tuple] = {}
    multiplicity: Counter[bytes] = Counter()
    classes = hol.isomorphic_to(g_class)
    for position, v_rows, m_to_v, size in classes.leaders:
        # V's index among the V of G's class; each V before it has |Aut(G)| embeddings
        v_index = int(np.searchsorted(classes.positions, position))
        beta0 = np.array(m_to_v)[g_to_m]
        # every isomorphism G -> V is beta0 o alpha for one alpha in Aut(G)
        isos = beta0[aut_g]
        b0 = v_rows[beta0, 0].astype(np.intp)
        table0 = np.argsort(b0)[mul[:, b0]]  # row m: lambda(m) conjugated by b0
        rows0 = table0[np.argsort(table0[:, 0])].astype(np.uint8)  # N0, sorted by image of 0
        stabiliser = _stabiliser(rows0, table0[hol.generators], aut_g, aut_inv)
        reached, walked = np.zeros(len(aut_g), dtype=bool), 0
        # the embeddings in id order; the first of each coset St o alpha is built, and its
        # N_alpha = alpha^-1 N0 alpha is the N of every embedding in the coset
        for rank, a in enumerate(np.lexsort(isos.T[::-1]).tolist()):
            if reached[a]:
                continue
            provenance = (m_name, v_index * len(aut_g) + rank)
            rows = _conjugate_by(rows0, aut_g[a], aut_inv[a])
            b_inv = _transported(group, n_class, provenance, v_rows[isos[a]], rows, mul)
            # the cosets of a subgroup partition Aut(G): each holds its alpha, and none
            # reaches an alpha twice
            coset = sorted_row_indices(aut_g, stabiliser[:, aut_g[a]])  # St o alpha
            problem = ("leaves Aut(G)" if coset is None
                       else "misses this embedding" if a not in coset else None)
            if problem is None:
                reached[coset] = True
                walked += len(coset)
                if np.count_nonzero(reached) != walked:
                    problem = "reaches an embedding twice"
            if problem:
                raise _violation(group, n_class, provenance,
                                 f"has a stabiliser in Aut(G) of {len(stabiliser)} automorphisms "
                                 f"that is not a subgroup: its coset through this embedding "
                                 f"{problem}")
            key = rows.tobytes()
            if key not in first:
                first[key] = (provenance, v_index, b_inv, rows, size)
            elif first[key][1] == v_index:
                raise _violation(group, n_class, first[key][0],
                                 f"arose again from embedding {provenance[1]}, in another coset "
                                 "of its stabiliser in Aut(G): the stabiliser misses an "
                                 "automorphism")
            multiplicity[key] += len(stabiliser)

    records = []
    for key in sorted(first):
        provenance, v_index, b_inv, rows, size = first[key]
        # orbit-stabiliser: the |class| V of N's class give N equally often, |Aut(M)| times
        # in all, so |St| |class| = |Aut(M)|, which is |orbit| |Aut(M)| = |class| |Aut(G)|
        if multiplicity[key] * size != hol.aut_order:
            raise _violation(group, n_class, provenance, f"arose from {multiplicity[key]} "
                             f"embeddings of its class's least V, expected "
                             f"|Aut(M)| / |class| = {hol.aut_order} / {size}")
        records.append(HgsRecord._checked(group, rows, n_class, provenance, b_inv, v_index))
    return records


def _stabiliser(rows0: np.ndarray, gens: np.ndarray, aut_g: np.ndarray,
                aut_inv: np.ndarray) -> np.ndarray:
    """The rows of St = {alpha in Aut(G) : alpha^-1 N0 alpha = N0}, in Aut(G)'s order.

    ``gens`` are rows that generate N0, and alpha is in St iff alpha^-1 r alpha
    lies in N0 for each of them. N0 is regular, so it holds at most one
    element with a given image of 0, the test ``regsearch.normalized_by`` uses.
    """
    # [a, k, x]: alpha_a^-1(r_k(alpha_a(x)))
    conj = aut_inv[np.arange(len(aut_g))[:, None, None], gens[:, aut_g].swapaxes(0, 1)]
    return aut_g[(rows0[conj[..., 0]] == conj).all(axis=(1, 2))]


def _conjugate_by(rows0: np.ndarray, alpha: np.ndarray, alpha_inv: np.ndarray) -> np.ndarray:
    """N_alpha = alpha^-1 N0 alpha, sorted by image of 0 as N0 is: row x is
    alpha^-1 o rows0[alpha(x)] o alpha, since alpha fixes 0."""
    return alpha_inv[rows0[alpha[:, None], alpha]]


def _transported(group: FiniteGroup, n_class: GroupClassLabel, provenance: tuple[str, int],
                 beta: np.ndarray, rows: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """b^-1 for the embedding beta's base map b, once the transport of beta onto N holds.

    b must be bijective, b^-1 beta(G) b must be lambda(G), and N's rows must be
    b^-1 lambda(M) b, whose row m sends 0 to b^-1(m): so b^-1 is ``m_to_n``.
    """
    b = beta[:, 0].astype(np.intp)
    if len(set(b.tolist())) != len(b):
        raise _violation(group, n_class, provenance, "has a base map that is not bijective")
    b_inv = np.argsort(b)
    if not np.array_equal(b_inv[beta[:, b]], group.rows):
        raise _violation(group, n_class, provenance,
                         "has a transported embedding image that differs from lambda(G)")
    if not np.array_equal(rows[b_inv], b_inv[mul[:, b]]):
        raise _violation(group, n_class, provenance,
                         f"is not b^-1 lambda({n_class.name}) b")
    return b_inv


def _sym_stabiliser_generators(n: int) -> np.ndarray:
    """(2 3) and (2 3 ... n-1), which generate the stabiliser of 0 and 1 in Sym(n).

    Both fix 0 and 1 and normalise Sym(n). Below degree 4 the stabiliser is
    trivial and the identity alone is returned.
    """
    ident = np.arange(n, dtype=np.uint8)
    if n < 4:
        return ident[None]
    swap, cycle = ident.copy(), ident.copy()
    swap[[2, 3]] = 3, 2
    cycle[2:] = np.roll(ident[2:], -1)
    return np.stack([swap, cycle])


@cache
def _sym_regular_subgroups(n: int) -> np.ndarray:
    """The regular subgroups of Sym(n), searched once per degree.

    Entry i is subgroup i in search order, its rows sorted, as one uint8 array.
    The search walks one root candidate per orbit of the stabiliser of 0 and 1.
    """
    perms = b"".join(map(bytes, itertools.permutations(range(n))))
    return regsearch.regular_subgroups(np.frombuffer(perms, np.uint8).reshape(-1, n),
                                       _sym_stabiliser_generators(n))


def direct_enumerate_oracle(group: FiniteGroup) -> list[PermGroup]:
    """Brute-force ground truth inside Perm(G), for |G| <= 8.

    Searches Sym(n) for its regular subgroups, once per degree and up to
    conjugation by the stabiliser of 0 and 1, then keeps, with one stack test,
    those that lambda of a generating sequence of G normalizes. Independent of
    the holomorph route.
    """
    n = group.order
    if n > ORACLE_DEGREE_CAP:
        raise EnumerationOverflow(f"direct oracle capped at degree {ORACLE_DEGREE_CAP}")
    lam_gens = group.rows[groups.generating_sequence(group)]
    subgroups = _sym_regular_subgroups(n)
    out = []
    for subgroup in subgroups[regsearch.normalized_by(subgroups, lam_gens)]:
        perms = [Permutation(row.tobytes()) for row in subgroup]
        out.append(PermGroup(n, generating_subset_of(perms), perms))
    out.sort(key=lambda pg: tuple(p.images for p in pg.elements))
    return out


def count_formula_report(group: FiniteGroup) -> list[dict]:
    """Both sides of the embedding count identity, per model class.

    (#N of class [M]) * |Aut(M)| = (#regular subgroups of Hol(M) isomorphic
    to G) * |Aut(G)|. |Aut(G)| is read from Hol(M_G), which the enumeration
    has already built for G's class M_G, whose name is lambda(G)'s class.
    """
    records = enumerate_hgs(group)
    g_class = next(r.n_class.name for r in records if r.key == group.rows.tobytes())
    aut_g = _hol_data(g_class).aut_order
    out = []
    for m_name in catalog_names(group.order):
        hol = _hol_data(m_name)
        n_count = sum(1 for r in records if r.n_class.name == m_name)
        v_count = sum(size for *_, size in hol.isomorphic_to(g_class).leaders)
        out.append(
            {
                "model": m_name,
                "n_count": n_count,
                "aut_m": hol.aut_order,
                "regular_in_hol": v_count,
                "aut_g": aut_g,
                "lhs": n_count * hol.aut_order,
                "rhs": v_count * aut_g,
            }
        )
    return out
