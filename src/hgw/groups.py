"""Abstract finite groups via Cayley tables, plus subgroup/automorphism machinery.

Elements of a FiniteGroup are indices 0..n-1 with the identity fixed at 0;
every permutation representation built here acts on those indices.
``FiniteGroup.rows`` gives lambda(G) in the uint8 row format of ``regsearch``,
and ``FiniteGroup.conjugation`` the table g x g^-1; ``core_masks`` reads cores,
and with them normality and stability, from one gather through such a table.

``subgroups`` builds the lattice as joins of cyclic subgroups: from the trivial
subgroup on, each known H is joined with each cyclic <c> not inside it, and the
join is H closed under right multiplication by H's recorded generators and c.

Isomorphisms g1 -> g2 are searched on generator images alone. A backtrack
gives each element of g1's greedy generating sequence an image of the same
order, extends the map along a word tree of g1, and rejects the candidate
unless the map stays injective and respects every edge of the tree. Each leaf
is an isomorphism, returned as its image tuple. A search with more than
``ISO_SEARCH_BOUND`` tuples of generator images to try is refused up front with
EnumerationOverflow; that one bound also limits Aut(X), and so the DSL's ``sdp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EnumerationOverflow, GroupSpecError
from .perm import Permutation
from .regsearch import regular_table, sorted_row_indices


class FiniteGroup:
    """A finite group given by labels and a full multiplication table."""

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[int]], spec: str = ""):
        self.elements = tuple(str(s) for s in labels)
        self.spec = spec
        n = len(self.elements)
        try:
            square = np.asarray(table, dtype=np.intp)
        except ValueError:  # ragged rows
            square = None
        if square is None or square.shape != (n, n):
            raise GroupSpecError("multiplication table shape does not match element count")
        self.table = tuple(map(tuple, square.tolist()))
        if any(self.table[0][x] != x or self.table[x][0] != x for x in range(n)):
            raise GroupSpecError("element 0 is not an identity")
        self.inverse_table = self._compute_inverses(square)

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def rows(self) -> np.ndarray:
        """lambda(G) as read-only uint8 rows, built on first read: row g is x -> g x.

        Never read above order 256, as on the tables ``generating_subset_of`` builds.
        """
        rows = np.array(self.table, dtype=np.uint8)
        rows.flags.writeable = False
        return rows

    @cached_property
    def conjugation(self) -> np.ndarray:
        """Conjugation in G as read-only uint8 rows, built on first read: [g, x] is g x g^-1."""
        conj = self.rows[self.rows, np.array(self.inverse_table)[:, None]]
        conj.flags.writeable = False
        return conj

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        return tuple(self.element_order(a) for a in range(self.order))

    def element_orders(self) -> tuple[int, ...]:
        return self._orders

    def check_associative(self) -> bool:
        """Exhaustive associativity check, (a b) c = a (b c) for all triples in one gather
        on ``rows``; meant for construction-time validation."""
        rows = self.rows
        return np.array_equal(rows[rows], rows[:, rows])  # [a, b, c]: (a b) c and a (b c)

    @staticmethod
    def _compute_inverses(square: np.ndarray) -> tuple[int, ...]:
        """The first b with a b = 0 in each row a, which must also have b a = 0."""
        points = np.arange(len(square))
        inv = (square == 0).argmax(axis=1)
        bad = (square[points, inv] != 0) | (square[inv, points] != 0)
        if bad.any():
            raise GroupSpecError(f"element {bad.argmax()} has no two-sided inverse")
        return tuple(inv.tolist())

    def __repr__(self) -> str:
        return f"FiniteGroup({self.spec or 'order ' + str(self.order)!s})"


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup as sorted member indices: into a group's elements or a record's rows."""

    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)


def generating_subset_of(perms: Sequence[Permutation]) -> tuple[Permutation, ...]:
    """Greedy deterministic generating subset of a closed permutation set.

    The ``generating_sequence`` of the set's Cayley table: highest element
    order first, then least image tuple.
    """
    elems = sorted(perms)
    rows = np.array([p.images for p in elems], dtype=np.uint8)
    seq = generating_sequence(FiniteGroup(range(len(elems)), cayley_table(rows)))
    return tuple(elems[i] for i in seq) or (elems[0],)


def cayley_table(rows: np.ndarray) -> np.ndarray:
    """Entry [i, j] is the index of rows[i] o rows[j] in ``rows``.

    ``rows`` must be a closed (k, n) uint8 stack of distinct rows sorted by
    image tuple. All products come from one gather, and ``sorted_row_indices``
    finds them, since the rows' bytes order is the image tuples' order.
    """
    found = sorted_row_indices(rows, rows[:, rows])  # [i, j]: x -> rows[i][rows[j][x]]
    if found is None:
        raise GroupSpecError("permutation set is not closed under composition")
    return found


def semiregular_group(rows: np.ndarray) -> FiniteGroup:
    """The group on a semiregular uint8 stack, on the indices of its rows.

    The rows must be closed under composition, with the identity first, as
    sorting leaves it; elements are labelled by index and multiplied by
    ``regular_table``.
    """
    return FiniteGroup(list(map(str, range(len(rows)))), regular_table(rows))


# -- subgroup enumeration ---------------------------------------------------


def _generated(table, members: frozenset[int], gens: tuple[int, ...]) -> frozenset[int]:
    """The closure of ``members`` under right multiplication by ``gens``, breadth-first.

    In a finite group the words in ``gens`` form <gens>, so this is <gens>
    whenever ``members`` is a subgroup of <gens>, such as {0}.
    """
    found = set(members)
    queue = list(members)
    for u in queue:
        row = table[u]
        for g in gens:
            w = row[g]
            if w not in found:
                found.add(w)
                queue.append(w)
    return frozenset(found)


def subgroups(group: FiniteGroup) -> list[SubgroupHandle]:
    """All subgroups, as joins of cyclic subgroups, sorted by (order, members).

    Every subgroup <h1, ..., hk> is the join of the cyclic <h1>, ..., <hk>, so
    joining each known subgroup H with each cyclic <c> not inside H, from the
    trivial subgroup on, reaches them all. The join is H closed under right
    multiplication by H's recorded generators and c alone.
    """
    table = group.table
    trivial = frozenset((0,))
    cyclic = {_generated(table, trivial, (a,)): a for a in range(1, group.order)}
    known = {trivial: ()}  # each subgroup and the generators it was first reached by
    queue = [trivial]
    for sub in queue:
        gens = known[sub]
        for c in cyclic.values():
            if c in sub:
                continue
            join_gens = gens + (c,)
            join = _generated(table, sub, join_gens)
            if join not in known:
                known[join] = join_gens
                queue.append(join)
    handles = [SubgroupHandle(tuple(sorted(s))) for s in known]
    handles.sort(key=lambda h: (h.order, h.members))
    return handles


def core_masks(masks: np.ndarray, conjugation: np.ndarray) -> np.ndarray:
    """The cores of a (k, n) stack of subgroup masks under a table whose entry [g, x] is
    x conjugated by g; H is stable (under a group's own ``conjugation``, normal) iff core = H."""
    return masks[:, conjugation].all(axis=1) & masks


def core_of(group: FiniteGroup, sub: SubgroupHandle) -> SubgroupHandle:
    """Largest normal subgroup inside ``sub``: intersection of all conjugates."""
    mask = np.isin(np.arange(group.order), sub.members)[None]
    core = core_masks(mask, group.conjugation)[0]
    return SubgroupHandle(tuple(np.flatnonzero(core).tolist()))


# -- isomorphisms and automorphisms -----------------------------------------


# The most generator-image tuples one isomorphism search may face: the product of
# the candidate counts over g1's generating sequence. Every catalog search stays
# below 3,000, and Aut(C2^4) (50,625) and Aut(C3^3) (17,576) are listed in a
# fraction of a second; Aut(C2^5) (28,629,151) is refused before the search.
ISO_SEARCH_BOUND = 100_000

# one edge x -> x * s_j of a word tree: (x, j, y = x * s_j, whether y is first reached here)
_Edge = tuple[int, int, int, bool]


def _word_tree(group: FiniteGroup) -> tuple[list[int], list[list[_Edge]]]:
    """Greedy generating sequence s_1..s_k, highest element order first, and its word tree.

    Level i holds the edges that close <s_1..s_i> from <s_1..s_(i-1)>, in
    breadth-first order: x * s_i for the old members x, and x * s_j (j <= i)
    for each new member x. An edge that first reaches y is y's tree edge;
    every other edge is a relation between words.
    """
    orders, table, n = group.element_orders(), group.table, group.order
    seq: list[int] = []
    levels: list[list[_Edge]] = []
    members, seen = [0], [True] + [False] * (n - 1)
    while len(members) < n:
        seq.append(max((x for x in range(n) if not seen[x]), key=lambda x: (orders[x], -x)))
        i, old, edges = len(seq) - 1, len(members), []
        q = 0
        while q < len(members):
            x = members[q]
            for j in ((i,) if q < old else range(i + 1)):
                y = table[x][seq[j]]
                edges.append((x, j, y, not seen[y]))
                if not seen[y]:
                    seen[y] = True
                    members.append(y)
            q += 1
        levels.append(edges)
    return seq, levels


def generating_sequence(group: FiniteGroup) -> list[int]:
    """Element indices that generate ``group``: the greedy sequence of ``_word_tree``."""
    return _word_tree(group)[0]


def _iso_backtrack(g1: FiniteGroup, g2: FiniteGroup, find_all: bool) -> list[tuple[int, ...]]:
    """Isomorphisms g1 -> g2, found by giving images to g1's generating sequence only.

    Raises EnumerationOverflow, before any search, when the generator images to
    try number more than ``ISO_SEARCH_BOUND``.
    """
    if g1.order != g2.order:
        return []
    if sorted(g1.element_orders()) != sorted(g2.element_orders()):
        return []
    orders2 = g2.element_orders()
    buckets: dict[int, list[int]] = {}
    for x in range(g2.order):
        buckets.setdefault(orders2[x], []).append(x)
    seq, levels = _word_tree(g1)
    candidates = [buckets[g1.element_orders()[s]] for s in seq]
    tuples = math.prod(map(len, candidates))
    if tuples > ISO_SEARCH_BOUND:
        raise EnumerationOverflow(
            f"isomorphism search on order {g1.order} would try {tuples} generator images, "
            f"above the bound {ISO_SEARCH_BOUND}")
    used = [True] + [False] * (g2.order - 1)
    results: list[tuple[int, ...]] = []
    _iso_search(g2.table, levels, candidates, find_all, results, [0] * g1.order, used, [])
    return results


def _iso_search(table: tuple[tuple[int, ...], ...], levels: list[list[_Edge]],
                candidates: list[list[int]], find_all: bool, results: list[tuple[int, ...]],
                phi: list[int], used: list[bool], images: list[int]) -> bool:
    """Give s_i (i = len(images)) each candidate image t_i; True once a first hit ends the search.

    phi extends over <s_1..s_i> along the tree edges, phi(x s_j) = phi(x) t_j,
    and must stay injective and satisfy that law on every other edge too. Then
    phi(x w) = phi(x) phi(w) for every word w in the s_j, so phi is an
    injective homomorphism on <s_1..s_i>; at the last level it is a bijection.
    A module-level function, not a closure, so that no reference cycle keeps
    the search state alive after ``_iso_backtrack`` returns.
    """
    level = len(images)
    if level == len(levels):
        results.append(tuple(phi))
        return not find_all
    for t in candidates[level]:
        images.append(t)
        placed = []
        for x, j, y, new in levels[level]:
            img = table[phi[x]][images[j]]
            if new:
                if used[img]:
                    break
                used[img] = True
                placed.append(img)
                phi[y] = img
            elif phi[y] != img:
                break
        else:
            if _iso_search(table, levels, candidates, find_all, results, phi, used, images):
                return True
        for img in placed:
            used[img] = False
        images.pop()
    return False


def an_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> tuple[int, ...] | None:
    """The first isomorphism g1 -> g2 the search meets, as an image tuple; None if none."""
    maps = _iso_backtrack(g1, g2, find_all=False)
    return maps[0] if maps else None


def all_isomorphisms(g1: FiniteGroup, g2: FiniteGroup) -> list[tuple[int, ...]]:
    """All isomorphisms g1 -> g2 as image tuples, sorted."""
    return sorted(_iso_backtrack(g1, g2, find_all=True))


def automorphisms(group: FiniteGroup) -> np.ndarray:
    """Aut(M) as one (|Aut(M)|, n) uint8 stack: row a is an automorphism's image
    tuple on element indices, rows sorted by image tuple."""
    return np.array(all_isomorphisms(group, group), dtype=np.uint8)
