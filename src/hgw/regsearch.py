"""Search for regular (sharply transitive) subgroups inside a permutation group.

Elements are image rows packed as ``bytes`` so composition is a single
``bytes.translate`` call. Only uniform elements (all cycles of one length)
can lie in a semiregular group; one numpy pass over the pool finds them.

The search walks a canonical tree: at each node the current subgroup S is
extended through the least point t not yet in the orbit of the base point 0,
by every candidate element mapping 0 to t. A regular subgroup V contains
exactly one element sending 0 to any given point, so the chain of nodes below
V is unique and every V is emitted exactly once.

A node keeps its semiregular S as ``{image of 0: element}`` plus the
generators added so far, as translation tables. Two candidate filters run at
each node:

- prune: two distinct elements of a semiregular group disagree at every
  point, so one broadcast comparison drops every candidate that agrees with
  some element of S somewhere;
- Schreier check: extending S by f is a breadth-first walk over the orbit of
  0 that keeps one element r_x per point x. Old points need only f o r_x, new
  points every generator. Each product w either reaches a new point, where it
  must be uniform and becomes r_{w(0)}, or must equal the r_{w(0)} already
  stored. That is, every Schreier generator of the stabiliser of 0 is
  trivial, so <S, f> is semiregular and {r_x} is all of it, at a cost of
  |orbit| x #generators products instead of a closure under all pairwise
  products.

Root orbits. Every candidate at the root sends 0 to 1, and the subtree below
such an f holds exactly the regular subgroups that contain f. A permutation
alpha that fixes 0 and 1 and normalises the element group maps root
candidates to root candidates, and V -> alpha V alpha^-1 maps the subtree of
f one-to-one onto the subtree of alpha f alpha^-1. Given a group of such
symmetries (for Hol(M), the automorphisms of M that fix 1), the search splits
the root candidates into orbits with one batched conjugation, walks the
subtree of the least candidate of each orbit only, and gets every other
subtree of the orbit by one gather on the found stack. With no symmetries
every orbit is a single candidate and the search is the whole tree.

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

from typing import Iterable, Sequence

import numpy as np

from .errors import TheoremViolation

_PAD = bytes(range(256))


def inverse(p: bytes) -> bytes:
    inv = bytearray(len(p))
    for i, x in enumerate(p):
        inv[x] = i
    return bytes(inv)


def uniform_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the uint8 rows whose cycles all have one length.

    Row p is uniform iff at the first power p^s that fixes any point, p^s
    fixes every point: a shorter cycle would have returned earlier. The
    powers come from repeated gathers, each on the rows not yet decided.
    """
    points = np.arange(rows.shape[1], dtype=np.uint8)
    uniform = np.zeros(len(rows), dtype=bool)
    live = np.arange(len(rows))  # the undecided rows, as indices into ``rows``
    base = power = rows
    while len(live):
        fixed = power == points
        first = fixed.any(axis=1)
        uniform[live[first]] = fixed[first].all(axis=1)
        rest = ~first
        live, base, power = live[rest], base[rest], power[rest]
        power = np.take_along_axis(base, power, axis=1)  # uint8 indices: no index copy
    return uniform


def is_uniform(p: bytes) -> bool:
    """All cycles of one length; such elements make up semiregular groups."""
    return bool(uniform_rows(np.frombuffer(p, np.uint8).reshape(1, len(p)))[0])


def _as_array(rows: Sequence[bytes], degree: int) -> np.ndarray:
    return np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), degree)


def regular_subgroups(elements: Iterable[bytes], degree: int,
                      symmetries: np.ndarray | None = None) -> np.ndarray:
    """All order-``degree`` fixed-point-free subgroups of the given element set.

    ``elements`` must be (the rows of) a permutation group; the identity row
    may be included or not. ``symmetries``, if given, is a group of
    permutations, as uint8 rows, that fix 0 and 1 and normalise that group.
    Returns a (k, degree, degree) uint8 stack: each subgroup's rows sorted by
    image of 0, the subgroups in canonical search order.
    """
    ident = bytes(range(degree))
    if degree == 1:
        return np.zeros((1, 1, 1), dtype=np.uint8)
    uniform = _uniform_elements(elements, degree)
    allowed = frozenset(uniform) | {ident}
    by_image: dict[int, list[bytes]] = {t: [] for t in range(1, degree)}
    for p in uniform:
        by_image[p[0]].append(p)
    buckets = {t: (_as_array(rows, degree), rows) for t, rows in by_image.items()}
    if symmetries is None:
        symmetries = np.arange(degree, dtype=np.uint8)[None]
    root_array, roots = buckets[1]
    stacks = [np.zeros((0, degree, degree), dtype=np.uint8)]
    for i, movers in _root_orbits(root_array, roots, symmetries):
        found: list[bytes] = []
        # the root node walks the candidates of point 1: give it f alone
        root = {**buckets, 1: (root_array[i:i + 1], roots[i:i + 1])}
        _search({0: ident}, [], degree, root, allowed, found)
        stack = np.frombuffer(b"".join(found), np.uint8).reshape(len(found), degree, degree)
        stacks.append(stack)
        for alpha in movers:
            # row x of alpha V alpha^-1 is alpha o (row alpha^-1(x) of V) o alpha^-1
            inv = np.argsort(alpha)
            stacks.append(alpha[stack[:, inv[:, None], inv]])
    out = np.concatenate(stacks)
    keys = out.reshape(len(out), degree * degree).view(np.dtype((np.void, degree * degree)))
    return out[np.argsort(keys[:, 0], kind="stable")]


def _root_orbits(root_array: np.ndarray, roots: list[bytes],
                 symmetries: np.ndarray) -> list[tuple[int, list[np.ndarray]]]:
    """The orbits of the root candidates under conjugation by the group ``symmetries``.

    One entry per orbit, in candidate order: the index of its least candidate
    f, and for each other member one alpha with alpha f alpha^-1 = that member.
    """
    degree = root_array.shape[1]
    inv = np.argsort(symmetries, axis=1)
    # conj[a, i] = alpha_a o f_i o alpha_a^-1
    conj = symmetries[np.arange(len(symmetries))[:, None, None],
                      root_array[:, inv].transpose(1, 0, 2)]
    index = {f: i for i, f in enumerate(roots)}
    blob = conj.tobytes()
    image = [index.get(blob[k:k + degree]) for k in range(0, len(blob), degree)]
    if None in image:
        raise TheoremViolation("a symmetry does not map the root candidates to themselves")
    image = np.array(image, dtype=np.intp).reshape(len(symmetries), len(roots))
    orbits = []
    done = np.zeros(len(roots), dtype=bool)
    for i in range(len(roots)):
        if done[i]:
            continue
        members, first = np.unique(image[:, i], return_index=True)
        done[members] = True
        orbits.append((i, [symmetries[a] for j, a in zip(members.tolist(), first.tolist())
                           if j != i]))
    return orbits


def _uniform_elements(elements: Iterable[bytes], degree: int) -> list[bytes]:
    """The distinct uniform non-identity rows, sorted; the pool is dropped on return."""
    pool = list(elements)
    keep = np.flatnonzero(uniform_rows(_as_array(pool, degree))).tolist()
    return sorted({pool[i] for i in keep} - {bytes(range(degree))})


def _search(elems: dict[int, bytes], gen_tabs: list[bytes], degree: int,
            buckets: dict[int, tuple[np.ndarray, list[bytes]]], allowed: frozenset[bytes],
            found: list[bytes]) -> None:
    """Append to ``found`` every regular subgroup below the node ``elems``, as its sorted rows.

    Module-level, not a recursive closure: a closure that refers to itself is a
    reference cycle, which would keep the candidate pool alive until the cyclic
    garbage collector runs.
    """
    t = next(x for x in range(degree) if x not in elems)
    cand_array, candidates = buckets[t]
    if len(elems) > 1:
        members = _as_array(list(elems.values()), degree)
        clash = (cand_array[:, None, :] == members[None, :, :]).any(axis=(1, 2))
        candidates = [candidates[i] for i in np.flatnonzero(~clash).tolist()]
    tail = _PAD[degree:]
    for f in candidates:
        f_tab = f + tail
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


def normalized_by(rows: Sequence[bytes], conjugators: Iterable[bytes], degree: int) -> bool:
    """True iff every conjugator c maps the row set into itself (c r c^-1)."""
    member = frozenset(rows)
    pad_tail = _PAD[degree:]
    for c in conjugators:
        c_inv = inverse(c)
        tab = c + pad_tail
        for r in rows:
            if c_inv.translate(r.translate(tab) + pad_tail) not in member:
                return False
    return True
