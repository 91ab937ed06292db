"""Search for regular (sharply transitive) subgroups inside a permutation group.

Elements are image rows packed as ``bytes`` so composition is a single
``bytes.translate`` call. The search walks a canonical tree: at each node the
current subgroup S is extended through the least point not yet in the orbit of
the base point 0, by every candidate element mapping 0 there. A regular
subgroup V contains exactly one element sending 0 to any given point, so the
chain of nodes below V is unique and every V is emitted exactly once.
"""

from __future__ import annotations

from typing import Iterable, Sequence

_PAD = bytes(range(256))


def inverse(p: bytes) -> bytes:
    inv = bytearray(len(p))
    for i, x in enumerate(p):
        inv[x] = i
    return bytes(inv)


def cycle_lengths(p: bytes) -> list[int]:
    seen = bytearray(len(p))
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = p[x]
            length += 1
        out.append(length)
    return out


def is_uniform(p: bytes) -> bool:
    """All cycles of one length; such elements make up semiregular groups."""
    lengths = set(cycle_lengths(p))
    return len(lengths) == 1


def regular_subgroups(elements: Iterable[bytes], degree: int) -> list[frozenset[bytes]]:
    """All order-``degree`` fixed-point-free subgroups of the given element set.

    ``elements`` must be (the rows of) a permutation group; the identity row
    may be included or not. Output order is the canonical search order.
    """
    ident = bytes(range(degree))
    if degree == 1:
        return [frozenset({ident})]
    uniform = sorted({p for p in elements if p != ident and is_uniform(p)})
    allowed = frozenset(uniform) | {ident}
    buckets: dict[int, list[bytes]] = {t: [] for t in range(1, degree)}
    for p in uniform:
        buckets[p[0]].append(p)
    found: list[frozenset[bytes]] = []
    _search(frozenset({ident}), [ident], {0}, degree, buckets, allowed, found)
    return found


def _search(members: frozenset[bytes], mlist: list[bytes], orbit0: set[int], degree: int,
            buckets: dict[int, list[bytes]], allowed: frozenset[bytes],
            found: list[frozenset[bytes]]) -> None:
    """Append to ``found`` every regular subgroup below the node ``mlist``.

    Module-level, not a recursive closure: a closure that refers to itself is a
    reference cycle, which would keep the candidate pool alive until the cyclic
    garbage collector runs.
    """
    t = next(x for x in range(degree) if x not in orbit0)
    for f in buckets[t]:
        ext = _extend(members, mlist, f, degree, allowed)
        if ext is None or degree % len(ext):
            continue
        if len(ext) == degree:
            found.append(frozenset(ext))
        else:
            _search(frozenset(ext), ext, {p[0] for p in ext}, degree, buckets, allowed, found)


def _extend(members: frozenset[bytes], mlist: list[bytes], f: bytes, degree: int,
            allowed: frozenset[bytes]) -> list[bytes] | None:
    """The closure of ``mlist`` and ``f``; None once it leaves ``allowed`` or exceeds ``degree``."""
    pad_tail = _PAD[degree:]
    new_members = set(members)
    new_list = list(mlist)
    new_members.add(f)
    new_list.append(f)
    frontier = [f]
    while frontier:
        u = frontier.pop()
        u_tab = u + pad_tail
        i = 0
        while i < len(new_list):
            v = new_list[i]
            i += 1
            for w in (v.translate(u_tab), u.translate(v + pad_tail)):
                if w not in new_members:
                    if w not in allowed or len(new_list) >= degree:
                        return None
                    new_members.add(w)
                    new_list.append(w)
                    frontier.append(w)
    return new_list


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
