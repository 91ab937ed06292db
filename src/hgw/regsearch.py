"""Permutations as uint8 rows, and the search for regular subgroups among them.

The row format. A permutation of {0..n-1} is its uint8 image row (n <= 256),
a set of them a (k, n) stack. Below cycle input and output every module passes
permutations this way, and reads them with the primitives here: ``conjugate``,
``row_indices`` and ``regular_table`` (lookups in a semiregular set, whose
elements are fixed by their images of 0), ``sorted_row_indices`` (a lookup
among rows in bytes order) and ``is_regular``.

Inside ``_search`` and ``_extend`` elements are ``bytes``, so that composition
is a single ``bytes.translate`` call. Only uniform elements (all cycles of one
length) can lie in a semiregular group; one numpy pass over the pool finds them.

The search walks a canonical tree: at each node the current subgroup S is
extended through the least point t not yet in the orbit of the base point 0,
by every candidate element mapping 0 to t. A regular subgroup V contains
exactly one element sending 0 to any given point, so the chain of nodes below
V is unique and every V is emitted exactly once.

A node keeps its semiregular S as ``{image of 0: element}`` plus the
generators added so far, as translation tables. Three candidate filters run
at each node:

- prune: two distinct elements of a semiregular group disagree at every
  point, so one broadcast comparison drops every candidate that agrees with
  some element of S somewhere;
- generator test: see below;
- Schreier check: extending S by f is a breadth-first walk over the orbit of
  0 that keeps one element r_x per point x. Old points need only f o r_x, new
  points every generator. Each product w either reaches a new point, where it
  must be uniform and becomes r_{w(0)}, or must equal the r_{w(0)} already
  stored. That is, every Schreier generator of the stabiliser of 0 is
  trivial, so <S, f> is semiregular and {r_x} is all of it, at a cost of
  |orbit| x #generators products instead of a closure under all pairwise
  products.

Generator test. Let S have orbit O, let g be a generator of S, and let the
candidate f send 0 to t. Both g o f and f o r_y lie in <S, f>. If g(t) = f(y)
for some y in O, they send 0 to the same point, so a semiregular <S, f>
needs g o f = f o r_y: that is, f^-1 g f, where it sends 0 into O, must be
the element r_y of S there. After the prune, every candidate is tested
against every generator at once: one scatter inverts the candidates, two
gathers give each f^-1 g f, and one comparison against S's element at its
image of 0 decides. The test is a necessary condition, so no regular
subgroup is lost, and most candidates that the Schreier check would reject
one by one never reach it: on Hol(D21) it runs 936 times instead of 7,096.

Root orbits. Every candidate at the root sends 0 to 1, and the subtree below
such an f holds exactly the regular subgroups that contain f. A permutation
alpha that fixes 0 and 1 and normalises the element group maps root
candidates to root candidates, and V -> alpha V alpha^-1 maps the subtree of
f one-to-one onto the subtree of alpha f alpha^-1. The symmetries are given
as generators of such a group: for Hol(M), a generating sequence of the
automorphisms of M that fix 1; for Sym(n), two generators of the stabiliser
of 0 and 1. One batched conjugation of every root candidate by every generator,
and one binary search among the sorted candidates, give the generators'
action on the candidates. Pulling the least index along that action until it
is stable (``orbit_leaders``, which the enumeration also uses for the
Aut(M)-classes of regular subgroups) labels each candidate with the least
candidate of its orbit, and a breadth-first walk from those leaders reaches
each member f_k from some f_j by a generator s: alpha_k = s o alpha_j then
conjugates the orbit's least candidate to f_k. The search walks the subtree
of the least candidate of each orbit only, and gets every other subtree of the
orbit by conjugating the found stack (``conjugate_subgroups``). With the
identity row as the only symmetry every orbit is a single candidate and the
search is the whole tree.

Normalisation. ``normalized_by`` tests a whole stack of regular subgroups
against a few conjugators at once: a regular subgroup holds at most one
element with a given image of 0, so c r c^-1 lies in it iff it equals the row
of its own image of 0.

Output. A regular subgroup is its rows sorted by image of 0 (identity first),
as a (degree, degree) uint8 array, and the search returns one (k, degree,
degree) stack, sorted by the bytes of each subgroup. That is the order in
which the whole tree meets them: two subgroups part at some node S, through
candidates g < g' at its point t. Every point below t is in the orbit of S,
so both subgroups send 0 to those points by the same elements of S, and
their rows first differ at row t, which is g in one and g' in the other.
Candidates are walked in bytes order, so the one met first has the lesser
bytes. The sort is one stable argsort on a void view of the stack.
"""

from __future__ import annotations

import numpy as np

from .errors import TheoremViolation

_PAD = bytes(range(256))


def conjugate(rows: np.ndarray, conjugators: np.ndarray) -> np.ndarray:
    """c o r o c^-1 for each (c, n) conjugator c and (..., n) row r, as a (c, ..., n) stack."""
    moved = np.moveaxis(rows[..., np.argsort(conjugators, axis=1)], -2, 0)  # r(c_a^-1(y))
    which = np.arange(len(conjugators)).reshape((-1,) + (1,) * rows.ndim)
    return conjugators[which, moved]


def _base_index(rows: np.ndarray) -> np.ndarray:
    """Entry x is the index of the row that sends 0 to x (0 where no row does)."""
    pos = np.zeros(rows.shape[1], dtype=np.intp)
    pos[rows[:, 0]] = np.arange(len(rows))
    return pos


def row_indices(rows: np.ndarray, targets: np.ndarray) -> np.ndarray | None:
    """Index in ``rows`` of each row of the stack ``targets``; None if one is missing.

    ``rows`` must be semiregular: no two of them send 0 to the same point. A
    target is found by its image of 0 and then compared in full, so no
    returned index is wrong.
    """
    found = _base_index(rows)[targets[..., 0]]
    return found if np.array_equal(rows[found], targets) else None


def sorted_row_indices(rows: np.ndarray, targets: np.ndarray) -> np.ndarray | None:
    """Index in ``rows`` of each row of the stack ``targets``; None if one is missing.

    ``rows`` must be a non-empty (k, n) stack of distinct rows in bytes order,
    as ``np.lexsort`` on the reversed columns leaves them. A binary search on
    the rows' bytes finds each target and a full comparison confirms it, so no
    returned index is wrong.
    """
    degree = rows.shape[1]
    keys = np.ascontiguousarray(rows).view(f"V{degree}")[:, 0]
    found = np.searchsorted(keys, np.ascontiguousarray(targets).view(f"V{degree}")[..., 0])
    found = np.minimum(found, len(rows) - 1)  # a target past the last row is missing
    return found if np.array_equal(rows[found], targets) else None


def regular_table(rows: np.ndarray) -> np.ndarray:
    """Cayley table of a semiregular group on the indices of its rows.

    (p o q)(0) = p[q[0]], and an element of a semiregular group is fixed by its
    image of 0, so one gather gives the whole table.
    """
    return _base_index(rows)[rows[:, rows[:, 0]]]


def is_regular(rows: np.ndarray) -> np.bool_ | np.ndarray:
    """Whether a group's rows, sorted by image of 0, are regular: row x sends 0 to x.

    ``rows`` is one (k, n) set, or an (s, k, n) stack for a mask over its sets.
    """
    k, n = rows.shape[-2:]
    return (k == n) & (rows[..., 0] == np.arange(k)).all(axis=-1)


def uniform_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the uint8 rows whose cycles all have one length.

    Row p is uniform iff at the first power p^s that fixes any point, p^s
    fixes every point: a shorter cycle would have returned earlier. Each
    power of the rows not yet decided is one gather from the flat original
    rows at those rows' offsets, so no copy of the rows is kept per power.
    Only the first n/2 powers are read: a row with no fixed point in them has
    no cycle of length at most n/2, so it is one n-cycle, and uniform.
    """
    degree = rows.shape[1]
    flat = np.ascontiguousarray(rows).ravel()
    points = np.arange(degree, dtype=np.uint8)
    uniform = np.zeros(len(rows), dtype=bool)
    live = np.arange(len(rows))  # the undecided rows, as indices into ``rows``
    power = rows
    for _ in range(degree // 2):
        fixed = power == points
        first = fixed.any(axis=1)
        uniform[live[first]] = fixed[first].all(axis=1)
        rest = ~first
        live, power = live[rest], power[rest]
        if not len(live):
            break
        power = flat[(live * degree)[:, None] + power]  # p o p^s
    uniform[live] = True
    return uniform


def regular_subgroups(rows: np.ndarray, symmetries: np.ndarray) -> np.ndarray:
    """All fixed-point-free subgroups of order n among the (k, n) uint8 ``rows``.

    ``rows`` must be the distinct elements of a permutation group; the identity
    row may be included or not. ``symmetries`` are uint8 rows that generate a
    group of permutations that fix 0 and 1 and normalise that group; the
    identity row alone walks the whole tree.
    Returns an (s, n, n) uint8 stack: each subgroup's rows sorted by image of 0,
    the subgroups in canonical search order.
    """
    degree = rows.shape[1]
    if degree == 1:
        return np.zeros((1, 1, 1), dtype=np.uint8)
    # the candidates, in bytes order: the uniform rows that move 0 (the identity is uniform too)
    pool = rows[uniform_rows(rows) & (rows[:, 0] != 0)]
    pool = pool[np.lexsort(pool.T[::-1])]
    blob = pool.tobytes()
    ident = bytes(range(degree))
    allowed = frozenset(blob[i:i + degree] for i in range(0, len(blob), degree)) | {ident}
    buckets = {t: pool[pool[:, 0] == t] for t in range(1, degree)}  # by image of 0
    roots = buckets[1]
    stacks = [np.zeros((0, degree, degree), dtype=np.uint8)]
    for i, movers in _root_orbits(roots, symmetries):
        found: list[bytes] = []
        # the root node walks the candidates of point 1: give it f alone
        _search({0: ident}, [], degree, {**buckets, 1: roots[i:i + 1]}, allowed, found)
        stack = np.frombuffer(b"".join(found), np.uint8).reshape(len(found), degree, degree)
        stacks.append(stack)
        if len(movers):
            stacks.append(conjugate_subgroups(stack, movers).reshape(-1, degree, degree))
    out = np.concatenate(stacks)
    keys = out.reshape(len(out), degree * degree).view(np.dtype((np.void, degree * degree)))
    return out[np.argsort(keys[:, 0], kind="stable")]


def conjugate_subgroups(stack: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """alpha V alpha^-1 for each (a, n) alpha that fixes 0 and each regular V of the
    (v, n, n) ``stack``, as an (a, v, n, n) stack, each subgroup's rows sorted by image of 0."""
    moved = conjugate(stack, alphas)  # [a, v, x] = alpha_a o (row x of V_v) o alpha_a^-1
    # alpha_a fixes 0, so that row sends 0 to alpha_a(x): row y is moved[a, v, alpha_a^-1(y)]
    a, v = np.ogrid[:len(alphas), :len(stack)]
    inv = np.argsort(alphas, axis=1)[:, None, :]
    return moved[a[..., None], v[..., None], inv]


def orbit_leaders(image: np.ndarray) -> np.ndarray:
    """Entry i is the least item of i's orbit under a group given by generators.

    ``image[a, i]`` is the index of generator a's image of item i. The least
    label is pulled along the generators' edges until it is stable; in a
    finite group every edge lies on a cycle, so it reaches the whole orbit.
    """
    leader = np.arange(image.shape[1])
    while True:
        pulled = np.minimum(leader, leader[image].min(axis=0))
        if np.array_equal(pulled, leader):
            return leader
        leader = pulled


def _root_orbits(roots: np.ndarray, symmetries: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The orbits of the sorted root candidates under conjugation by <symmetries>.

    One entry per orbit, in candidate order: the index of its least candidate
    f, and a (m, degree) uint8 array holding, for each of the orbit's m other
    members, one alpha with alpha f alpha^-1 = that member.
    """
    count, degree = roots.shape
    if not count:
        return []
    image = sorted_row_indices(roots, conjugate(roots, symmetries))  # [a, i]: s_a o f_i o s_a^-1
    if image is None:
        raise TheoremViolation("a symmetry does not map the root candidates to themselves")
    leader = orbit_leaders(image)
    # breadth-first from every leader at once, one level per pass: an edge from f_j
    # to f_k by the generator s gives alpha_k = s o alpha_j
    alpha = np.empty_like(roots)
    alpha[:] = np.arange(degree)
    frontier = np.flatnonzero(leader == np.arange(count))
    seen = np.zeros(count, dtype=bool)
    seen[frontier] = True
    while len(frontier):
        reached, first = np.unique(image[:, frontier], return_index=True)
        fresh = ~seen[reached]
        reached = reached[fresh]
        a, j = np.divmod(first[fresh], len(frontier))
        seen[reached] = True
        alpha[reached] = symmetries[a[:, None], alpha[frontier[j]]]
        frontier = reached
    by_orbit = np.argsort(leader, kind="stable")  # each orbit's leader comes first
    orbits = np.split(by_orbit, np.flatnonzero(np.diff(leader[by_orbit])) + 1)
    return [(int(members[0]), alpha[members[1:]]) for members in orbits]


def _search(elems: dict[int, bytes], gen_tabs: list[bytes], degree: int,
            buckets: dict[int, np.ndarray], allowed: frozenset[bytes],
            found: list[bytes]) -> None:
    """Append to ``found`` every regular subgroup below the node ``elems``, as its sorted rows.

    ``buckets[t]`` holds the candidates that send 0 to t, sorted. Module-level,
    not a recursive closure: a closure that refers to itself is a reference
    cycle, which would keep the candidate pool alive until the cyclic garbage
    collector runs.
    """
    t = next(x for x in range(degree) if x not in elems)
    candidates = buckets[t]
    if gen_tabs:
        orbit = np.fromiter(elems, np.intp, len(elems))
        members = np.frombuffer(b"".join(elems.values()), np.uint8).reshape(len(elems), degree)
        clash = (candidates[:, None, :] == members[None, :, :]).any(axis=(1, 2))
        candidates = candidates[~clash]
        # the generator test: f^-1 g f, where it sends 0 into the orbit, is S's element there
        count = len(candidates)
        offsets = (np.arange(count) * degree)[:, None]
        inverse = np.empty(count * degree, dtype=np.uint8)
        inverse[offsets + candidates] = np.arange(degree, dtype=np.uint8)  # row i: f_i^-1
        gens = np.frombuffer(b"".join(gen_tabs), np.uint8).reshape(len(gen_tabs), -1)[:, :degree]
        conj = inverse[offsets + gens[:, candidates]]  # [a, i]: f_i^-1 o g_a o f_i
        at = np.zeros((degree, degree), dtype=np.uint8)  # row y: S's element sending 0 to y
        at[orbit] = members
        in_orbit = np.zeros(degree, dtype=bool)
        in_orbit[orbit] = True
        y = conj[..., 0]
        candidates = candidates[(~in_orbit[y] | (at[y] == conj).all(axis=2)).all(axis=0)]
    blob, tail = candidates.tobytes(), _PAD[degree:]
    for start in range(0, len(blob), degree):
        f_tab = blob[start:start + degree] + tail
        ext = _extend(elems, gen_tabs, f_tab, allowed)
        if ext is None:
            continue
        if len(ext) == degree:
            found.append(b"".join(sorted(ext.values())))
        else:
            _search(ext, gen_tabs + [f_tab], degree, buckets, allowed, found)


def _extend(elems: dict[int, bytes], gen_tabs: list[bytes], f_tab: bytes,
            allowed: frozenset[bytes]) -> dict[int, bytes] | None:
    """<S, f> as ``{image of 0: element}``; None unless it is semiregular inside ``allowed``.

    ``gen_tabs`` generate S and ``f_tab`` is f, all as translation tables.
    """
    tabs = gen_tabs + [f_tab]
    ext = dict(elems)
    # S is closed, so at its points only f can give a nontrivial Schreier generator
    at_old, old = (f_tab,), len(elems)
    work = list(elems.values())
    for i, r in enumerate(work):  # grows while it is walked: breadth-first over the new points
        for tab in at_old if i < old else tabs:
            w = r.translate(tab)
            known = ext.get(w[0])
            if known is None:
                if w not in allowed:
                    return None
                ext[w[0]] = w
                work.append(w)
            elif known != w:
                return None
    return ext


def normalized_by(stack: np.ndarray, conjugators: np.ndarray) -> np.ndarray:
    """Mask of the regular subgroups in ``stack`` that every conjugator normalises.

    ``stack`` is (k, n, n) uint8, each subgroup's rows sorted by image of 0, so
    that row x is its element sending 0 to x; ``conjugators`` is (c, n). Entry
    s is True iff for each conjugator c and row r of subgroup s, c r c^-1 equals
    the row of subgroup s at (c r c^-1)(0). Generators of a group of
    conjugators suffice. Raises ValueError unless column 0 of every subgroup
    is 0..n-1.
    """
    if stack.ndim != 3 or not is_regular(stack).all():
        raise ValueError("normalized_by needs regular subgroups with rows sorted by image of 0")
    conj = conjugate(stack, conjugators)  # conj[c, s, x]: c o (row x of subgroup s) o c^-1
    held = stack[np.arange(len(stack))[:, None], conj[..., 0]]
    return (held == conj).all(axis=(0, 2, 3))
