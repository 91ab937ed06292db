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
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

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
    powers come from repeated gathers, until every row has been decided.
    """
    points = np.arange(rows.shape[1], dtype=np.uint8)
    uniform = np.zeros(len(rows), dtype=bool)
    undecided = np.ones(len(rows), dtype=bool)
    power = rows
    while undecided.any():
        fixed = power == points
        first = undecided & fixed.any(axis=1)
        uniform[first] = fixed[first].all(axis=1)
        undecided &= ~first
        power = np.take_along_axis(rows, power, axis=1)  # uint8 indices: no index copy
    return uniform


def is_uniform(p: bytes) -> bool:
    """All cycles of one length; such elements make up semiregular groups."""
    return bool(uniform_rows(np.frombuffer(p, np.uint8).reshape(1, len(p)))[0])


def _as_array(rows: Sequence[bytes], degree: int) -> np.ndarray:
    return np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), degree)


def regular_subgroups(elements: Iterable[bytes], degree: int) -> list[frozenset[bytes]]:
    """All order-``degree`` fixed-point-free subgroups of the given element set.

    ``elements`` must be (the rows of) a permutation group; the identity row
    may be included or not. Output order is the canonical search order.
    """
    ident = bytes(range(degree))
    if degree == 1:
        return [frozenset({ident})]
    uniform = _uniform_elements(elements, degree)
    allowed = frozenset(uniform) | {ident}
    by_image: dict[int, list[bytes]] = {t: [] for t in range(1, degree)}
    for p in uniform:
        by_image[p[0]].append(p)
    buckets = {t: (_as_array(rows, degree), rows) for t, rows in by_image.items()}
    found: list[frozenset[bytes]] = []
    _search({0: ident}, [], degree, buckets, allowed, found)
    return found


def _uniform_elements(elements: Iterable[bytes], degree: int) -> list[bytes]:
    """The distinct uniform non-identity rows, sorted; the pool is dropped on return."""
    pool = list(elements)
    keep = np.flatnonzero(uniform_rows(_as_array(pool, degree))).tolist()
    return sorted({pool[i] for i in keep} - {bytes(range(degree))})


def _search(elems: dict[int, bytes], gen_tabs: list[bytes], degree: int,
            buckets: dict[int, tuple[np.ndarray, list[bytes]]], allowed: frozenset[bytes],
            found: list[frozenset[bytes]]) -> None:
    """Append to ``found`` every regular subgroup below the node ``elems``.

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
            found.append(frozenset(ext.values()))
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
