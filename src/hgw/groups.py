"""Abstract finite groups via Cayley tables, plus subgroup/automorphism machinery.

Elements of a FiniteGroup are indices 0..n-1 with the identity fixed at 0;
every permutation representation built here acts on those indices.

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
from typing import Sequence

import numpy as np

from .errors import EnumerationOverflow, GroupSpecError
from .perm import PermGroup, Permutation


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
        self.inverse_table = self._compute_inverses()
        self._orders: tuple[int, ...] | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    identity = 0

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse_table[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverse_table[g]]

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            self._orders = tuple(self.element_order(a) for a in range(self.order))
        return self._orders

    def check_associative(self) -> bool:
        """Exhaustive associativity check; meant for construction-time validation."""
        t = self.table
        n = self.order
        return all(
            t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)
        )

    def _compute_inverses(self) -> tuple[int, ...]:
        inv = [-1] * self.order
        for a in range((self.order)):
            for b in range(self.order):
                if self.table[a][b] == 0:
                    inv[a] = b
                    break
            if inv[a] < 0 or self.table[inv[a]][a] != 0:
                raise GroupSpecError(f"element {a} has no two-sided inverse")
        return tuple(inv)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.spec or 'order ' + str(self.order)!s})"


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup as member indices into its ambient: a group's elements or a record's rows."""

    ambient: object
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __contains__(self, idx: int) -> bool:
        return idx in self.member_set


def generating_subset_of(perms: Sequence[Permutation]) -> tuple[Permutation, ...]:
    """Greedy deterministic generating subset of a closed permutation set.

    The ``generating_sequence`` of the set's Cayley table: highest element
    order first, then least image tuple.
    """
    elems = sorted(perms)
    seq = generating_sequence(FiniteGroup(range(len(elems)), _cayley_table(elems)))
    return tuple(elems[i] for i in seq) or (elems[0],)


def _cayley_table(elems: Sequence[Permutation]) -> list[list[int]]:
    """Entry [i][j] is the index of elems[i] * elems[j] in ``elems``.

    ``elems`` must be closed and sorted by image tuple. All products come
    from one gather on the uint8 rows, and a binary search on the rows'
    bytes, whose order is the image tuples' order, finds them.
    """
    rows = np.array([p.images for p in elems], dtype=np.uint8)
    k, n = rows.shape
    products = rows[:, rows].reshape(k * k, n)  # row i*k + j: x -> elems[i](elems[j](x))
    found = np.searchsorted(rows.view(f"V{n}").ravel(), products.view(f"V{n}").ravel())
    found = np.minimum(found, k - 1)
    if not np.array_equal(rows[found], products):
        raise GroupSpecError("permutation set is not closed under composition")
    return found.reshape(k, k).tolist()


# -- regular representations ----------------------------------------------


def left_regular(group: FiniteGroup) -> PermGroup:
    """lambda(G): g acts by x -> g*x on element indices."""
    perms = [Permutation(group.table[g]) for g in range(group.order)]
    gens = generating_subset_of(perms)
    return PermGroup(group.order, gens, perms)


def right_regular(group: FiniteGroup) -> PermGroup:
    """rho(G): g acts by x -> x*g^-1 on element indices."""
    perms = []
    for g in range(group.order):
        ginv = group.inverse_table[g]
        perms.append(Permutation(tuple(group.table[x][ginv] for x in range(group.order))))
    gens = generating_subset_of(perms)
    return PermGroup(group.order, gens, perms)


def as_finite_group(group: PermGroup, spec: str = "") -> FiniteGroup:
    """Abstract Cayley-table copy of a PermGroup (element order = sorted perms)."""
    elems = group.elements
    table = _cayley_table(elems)
    labels = [p.cycle_string() for p in elems]
    return FiniteGroup(labels, table, spec=spec or f"perm group of order {len(elems)}")


# -- subgroup enumeration ---------------------------------------------------


def subgroups(group) -> list[SubgroupHandle]:
    """All subgroups: cyclic seeds, then extend each known subgroup by one element.

    Output is complete (every subgroup arises from a chain of one-element
    extensions starting at a cyclic subgroup) and sorted by (order, members).
    """
    table_group = as_finite_group(group) if isinstance(group, PermGroup) else group
    n = table_group.order
    table = table_group.table
    whole = frozenset(range(n))
    known: set[frozenset[int]] = {whole}
    queue: list[frozenset[int]] = []
    for a in range(n):
        cyc = {0}
        x = a
        while x not in cyc:
            cyc.add(x)
            x = table[x][a]
        fs = frozenset(cyc)
        if fs not in known:
            known.add(fs)
            queue.append(fs)
    while queue:
        sub = queue.pop()
        for x in range(1, n):
            if x in sub:
                continue
            members = set(sub)
            members.add(x)
            mlist = list(members)
            qi = 0
            full = False
            while qi < len(mlist):
                u = mlist[qi]
                qi += 1
                row_u = table[u]
                for v in mlist:
                    w = row_u[v]
                    if w not in members:
                        members.add(w)
                        mlist.append(w)
                    w = table[v][u]
                    if w not in members:
                        members.add(w)
                        mlist.append(w)
                if len(members) == n:
                    full = True
                    break
            if full:
                continue
            fs = frozenset(members)
            if fs not in known:
                known.add(fs)
                queue.append(fs)
    handles = [SubgroupHandle(group, tuple(sorted(s))) for s in known]
    handles.sort(key=lambda h: (h.order, h.members))
    return handles


def core_of(group: FiniteGroup, sub: SubgroupHandle) -> SubgroupHandle:
    """Largest normal subgroup inside ``sub``: intersection of all conjugates."""
    core = set(sub.members)
    for g in range(group.order):
        conj = {group.conj(g, x) for x in sub.members}
        core &= conj
        if len(core) == 1:
            break
    return SubgroupHandle(group, tuple(sorted(core)))


def is_normal(group: FiniteGroup, sub: SubgroupHandle) -> bool:
    members = sub.member_set
    return all(group.conj(g, x) in members for g in range(group.order) for x in sub.members)


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


def is_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    return an_isomorphism(g1, g2) is not None


def all_isomorphisms(g1: FiniteGroup, g2: FiniteGroup) -> list[tuple[int, ...]]:
    """All isomorphisms g1 -> g2 as image tuples, sorted."""
    return sorted(_iso_backtrack(g1, g2, find_all=True))


def automorphisms(group: FiniteGroup) -> np.ndarray:
    """Aut(M) as one (|Aut(M)|, n) uint8 stack: row a is an automorphism's image
    tuple on element indices, rows sorted by image tuple."""
    return np.array(all_isomorphisms(group, group), dtype=np.uint8)
