"""Permutations as uint8 rows, and the search for regular subgroups among them.

The row format. A permutation of {0..n-1} is its uint8 image row (n <= 256),
a set of them a (k, n) stack. Below cycle input and output every module passes
permutations this way, and reads them with the primitives here: ``conjugate``,
``row_indices`` and ``regular_table`` (lookups in a semiregular set, whose
elements are fixed by their images of 0), ``sorted_row_indices`` (a lookup
among rows in bytes order) and ``is_regular``.

Inside ``_extend`` elements are ``bytes``, so that composition is a single
``bytes.translate`` call. Only uniform elements (all cycles of one length) can
lie in a semiregular group; one numpy pass over the pool finds them.

The search walks a canonical tree: at each node the current subgroup S is
extended through the least point t not yet in the orbit of the base point 0,
by every candidate element mapping 0 to t. A regular subgroup V contains
exactly one element sending 0 to any given point, so the chain of nodes below
V is unique and every V is found exactly once.

Level walk. ``_subtrees`` walks the tree one level at a time, with no
recursion. The nodes of one level all have the same number of generators, so
a level is a few arrays: S's element at each point of its orbit, the orbit
mask and the generators. The pool is sorted by bytes, so the candidates of a
node are one slice of it. Every (node, candidate) pair of a level is formed at
once and tested in passes of about ``_BATCH`` pairs, which bound the memory of
the gathers. A pair meets one of two paths:

- index 2: when 2|S| = n, ``_index_two`` keeps f exactly when f o f lies in S
  and f normalises S, and writes the regular group S u fS with one scatter,
  with no Schreier check;
- otherwise three filters run in turn, and a candidate that passes all three
  is a child node, or a regular subgroup found:
  - prune: two distinct elements of a semiregular group disagree at every
    point. f agrees with some element of S at x exactly when f(x) lies in the
    S-orbit of x, so one gather of orbit labels (the least point of each
    orbit) drops every candidate that agrees with some element of S somewhere;
  - generator test: see below;
  - Schreier check (``_extend``): extending S by f is a breadth-first walk over
    the orbit of 0 that keeps one element r_x per point x. Old points need
    only f o r_x, new points every generator. Each product w either reaches a
    new point, where it must be uniform and becomes r_{w(0)}, or must equal the
    r_{w(0)} already stored. That is, every Schreier generator of the
    stabiliser of 0 is trivial, so <S, f> is semiregular and {r_x} is all of
    it, at a cost of |orbit| x #generators products instead of a closure under
    all pairwise products.

Generator test. Let S have orbit O, let g be a generator of S, and let the
candidate f send 0 to t. Both g o f and f o r_y lie in <S, f>. If g(t) = f(y)
for some y in O, they send 0 to the same point, so a semiregular <S, f>
needs g o f = f o r_y: that is, f^-1 g f, where it sends 0 into O, must be
the element r_y of S there. The pool's inverses are computed once per search;
two flat gathers give f^-1 g f for every pair and generator, and one
comparison against S's element at its image of 0 decides. The test is a
necessary condition, so no regular subgroup is lost, and most candidates that
the Schreier check would reject one by one never reach it. On Hol(D21) the
Schreier check runs 40 times: one check per candidate at the index-2 nodes
would make it 936, and 7,096 without the generator test.

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
degree) stack, sorted by the bytes of each subgroup. That is the canonical
order, in which a depth-first walk of the tree, candidates in bytes order,
would meet them: two subgroups part at some node S, through candidates g < g'
at its point t. Every point below t is in the orbit of S, so both subgroups
send 0 to those points by the same elements of S, and their rows first
differ at row t, which is g in one and g' in the other. The level walk and
the conjugated subtrees find them in another order, so the sort is one
stable argsort on a void view of the stack.
"""

from __future__ import annotations

import numpy as np

from .errors import TheoremViolation

_PAD = bytes(range(256))
_BATCH = 1024  # (node, candidate) pairs per numpy pass: larger passes raise the peak memory


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
    orbits = _root_orbits(pool[pool[:, 0] == 1], symmetries)  # the root candidates come first
    stack, origin = _subtrees(pool, np.array([i for i, _ in orbits], dtype=np.intp))
    stacks = [stack]
    for k, (_, movers) in enumerate(orbits):
        if len(movers):
            stacks.append(conjugate_subgroups(stack[origin == k], movers).reshape(-1, degree, degree))
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


def _subtrees(pool: np.ndarray, leaders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every regular subgroup in the subtree of each root candidate ``pool[leaders[k]]``.

    ``pool`` holds the candidates in bytes order, the root candidates (which
    send 0 to 1) first. Returns the (s, n, n) stack of the subgroups, each one's
    rows sorted by image of 0, and for each subgroup the k of its subtree.

    The tree is walked one level at a time. A level's B nodes are ``nodes``
    (each S as ``{image of 0: element}`` and its generators as translation
    tables, for ``_extend``) and three arrays: ``at`` (B, n, n), whose row y of
    node b is the element of S sending 0 to y, and 255 outside S's orbit;
    ``in_orbit`` (B, n); and ``gens`` (B, d, n), the d generators of each S.
    ``inverse`` holds the pool rows' inverses, flat.
    """
    count, degree = pool.shape
    ident = bytes(range(degree))
    blob, tail = pool.tobytes(), _PAD[degree:]
    elements = [blob[i:i + degree] for i in range(0, len(blob), degree)]
    allowed = frozenset(elements) | {ident}
    offset = (np.arange(count) * degree)[:, None]
    inverse = np.empty(count * degree, dtype=np.uint8)  # row i: pool[i]^-1, flat
    inverse[offset + pool] = np.arange(degree, dtype=np.uint8)
    start = np.searchsorted(pool[:, 0], np.arange(degree + 1))  # candidates of t: start[t]:start[t + 1]
    # the root level: S = {identity}, and each node walks its one leader
    nodes: list[tuple[dict[int, bytes], list[bytes]]] = [({0: ident}, [])] * len(leaders)
    at, in_orbit = _orbit_arrays(nodes, degree)
    gens = np.empty((len(leaders), 0, degree), dtype=np.uint8)
    origin = np.arange(len(leaders))
    first, last = leaders, leaders + 1
    walked: list[bytes] = []
    walked_origin: list[int] = []
    closed, closed_origin = [np.empty((0, degree, degree), np.uint8)], [np.empty(0, np.intp)]
    while nodes:
        half = 2 * in_orbit.sum(axis=1) == degree
        counts = last - first
        offsets = np.cumsum(counts) - counts
        cuts = [0, *(np.flatnonzero(np.diff(offsets // _BATCH)) + 1), len(nodes)]
        children: list[tuple[dict[int, bytes], list[bytes]]] = []
        parent, chosen = [], []
        for lo, hi in zip(cuts, cuts[1:]):
            node = np.repeat(np.arange(lo, hi), counts[lo:hi])
            cand = np.repeat(first[lo:hi] - offsets[lo:hi] + offsets[lo], counts[lo:hi])
            cand += np.arange(len(cand))
            f = pool[cand]
            # the closed form decides every candidate at an index-2 node, with no prune
            pair_half = half[node]
            keep, subgroups = _index_two(at, in_orbit, gens, inverse, node[pair_half],
                                         cand[pair_half], f[pair_half])
            closed.append(subgroups)
            closed_origin.append(origin[node[pair_half][keep]])
            rest = ~pair_half
            rest[rest] = _clash_free(at[lo:hi], node[rest] - lo, f[rest])
            node, cand, f = node[rest], cand[rest], f[rest]
            # the generator test: f^-1 g f, where it sends 0 into the orbit, is S's element there
            conj = _conjugates(gens, inverse, node, cand, f)
            at_y = (node * degree)[:, None] + conj[..., 0]  # row of S's element there
            agree = (at.reshape(-1, degree)[at_y] == conj).all(axis=2)  # False outside the orbit
            test = (agree | ~in_orbit.reshape(-1)[at_y]).all(axis=1)
            for p in np.flatnonzero(test):
                b = int(node[p])
                elems, gen_tabs = nodes[b]
                f_tab = elements[cand[p]] + tail
                ext = _extend(elems, gen_tabs, f_tab, allowed)
                if ext is None:
                    continue
                if len(ext) == degree:
                    walked.append(b"".join(sorted(ext.values())))
                    walked_origin.append(origin[b])
                else:
                    children.append((ext, gen_tabs + [f_tab]))
                    parent.append(b)
                    chosen.append(cand[p])
        if children:
            at, in_orbit = _orbit_arrays(children, degree)
            gens = np.concatenate([gens[parent], pool[chosen][:, None]], axis=1)
            origin = origin[parent]
            t = in_orbit.argmin(axis=1)  # each node extends through its least point outside the orbit
            first, last = start[t], start[t + 1]
        nodes = children
    found = np.frombuffer(b"".join(walked), np.uint8).reshape(len(walked), degree, degree)
    return (np.concatenate([found, *closed]),
            np.concatenate([np.array(walked_origin, dtype=np.intp), *closed_origin]))


def _orbit_arrays(nodes: list[tuple[dict[int, bytes], list[bytes]]],
                  degree: int) -> tuple[np.ndarray, np.ndarray]:
    """``at`` and ``in_orbit`` of a level (see ``_subtrees``), from its nodes' dicts."""
    sizes = np.fromiter((len(elems) for elems, _ in nodes), np.intp, len(nodes))
    owner = np.repeat(np.arange(len(nodes)), sizes)
    points = np.fromiter((x for elems, _ in nodes for x in elems), np.intp, len(owner))
    members = b"".join(r for elems, _ in nodes for r in elems.values())
    at = np.full((len(nodes), degree, degree), 255, dtype=np.uint8)
    at[owner, points] = np.frombuffer(members, np.uint8).reshape(-1, degree)
    in_orbit = np.zeros((len(nodes), degree), dtype=bool)
    in_orbit[owner, points] = True
    return at, in_orbit


def _clash_free(at: np.ndarray, node: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Mask of the candidates ``f[i]`` that agree with no element of the S of ``node[i]``.

    ``at[b]`` holds in row y the element of node b's S that sends 0 to y, and
    255 in every row outside S's orbit. f agrees with some element of S at x
    exactly when f(x) lies in the S-orbit of x; each point is labelled by the
    least point of its orbit, its least image under the rows of ``at[b]``.
    """
    degree = at.shape[1]
    label = at.min(axis=1)
    return (label.reshape(-1)[(node * degree)[:, None] + f] != label[node]).all(axis=1)


def _conjugates(gens: np.ndarray, inverse: np.ndarray, node: np.ndarray, cand: np.ndarray,
                f: np.ndarray) -> np.ndarray:
    """f^-1 o g o f for each f = ``f[i]`` = pool row ``cand[i]`` and each generator g of
    the S of ``node[i]``, as a (pairs, generators, n) stack; ``inverse`` is the flat
    inverses of the pool rows."""
    degree, d = f.shape[1], gens.shape[1]
    g_rows = (node * d)[:, None] + np.arange(d)  # row of each generator in gens' rows
    g_f = gens.reshape(-1)[(g_rows * degree)[..., None] + f[:, None]]  # g o f
    return inverse[(cand * degree)[:, None, None] + g_f]


def _index_two(at: np.ndarray, in_orbit: np.ndarray, gens: np.ndarray, inverse: np.ndarray,
               node: np.ndarray, cand: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the candidates ``f[i]`` that close the S of ``node[i]``, of index 2 in
    the degree, to a regular group, and the (k, n, n) stack of those groups S u fS.

    The arguments are as in ``_subtrees``. f is kept exactly when f o f lies in
    S and f normalises S (f^-1 g f is S's element for each generator g of S):
    a subgroup of index 2 is normal, and its quotient has order 2. Conversely
    <S, f> is then S u fS, of n elements since f is not in S, and fS = Sf sends
    0 onto the S-orbit of f(0), the complement of S's orbit; so the group is
    transitive of degree n and order n, hence regular, and its elements, rows
    of the group searched, are uniform: it is the group that ``_extend`` would
    build. Its row f(x) is f o (row x). The square is tested first, with one
    gather that drops most candidates before the generators' gathers.
    """
    degree = f.shape[1]
    at_rows = at.reshape(-1, degree)
    square = f.reshape(-1)[(np.arange(len(f)) * degree)[:, None] + f]  # f o f
    keep = (at_rows[node * degree + square[:, 0]] == square).all(axis=1)
    held = np.flatnonzero(keep)
    conj = _conjugates(gens, inverse, node[held], cand[held], f[held])
    keep[held] = (at_rows[(node[held] * degree)[:, None] + conj[..., 0]] == conj).all(axis=(1, 2))
    f, node = f[keep], node[keep]
    out = at[node]
    out_rows = out.reshape(-1, degree)
    i, x = np.nonzero(in_orbit[node])
    i, x = i * degree, i * degree + x  # flat offsets of group i and of its row x
    out_rows[i + f.reshape(-1)[x]] = f.reshape(-1)[i[:, None] + out_rows[x]]
    return keep, out


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
