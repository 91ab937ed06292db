"""Permutations on {0..n-1} and materialized permutation groups."""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import EnumerationOverflow, GroupSpecError

CLOSURE_CAP = 200_000

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """An immutable bijection of {0..degree-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(cycles: Iterable[Sequence[int]], degree: int, one_based: bool = False) -> "Permutation":
        """Build a permutation from disjoint cycles of point indices."""
        shift = 1 if one_based else 0
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            cyc = [int(p) - shift for p in cyc]
            for p in cyc:
                if not 0 <= p < degree:
                    raise ValueError(f"point {p + shift} out of range for degree {degree}")
                if p in seen:
                    raise ValueError(f"point {p + shift} repeated across cycles")
                seen.add(p)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return Permutation(images)

    @staticmethod
    def parse_cycles(text: str, degree: int, one_based: bool = True) -> "Permutation":
        """Parse cycle notation like ``(1, 2)(3,13)`` into a permutation."""
        stripped = re.sub(r"[\s]", "", text)
        if stripped in ("", "()"):
            return Permutation.identity(degree)
        if not re.fullmatch(r"(\([0-9,]*\))+", stripped):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(stripped):
            if not body:
                continue
            cycles.append([int(tok) for tok in body.split(",")])
        return Permutation.from_cycles(cycles, degree, one_based=one_based)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(x) = p(q(x))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        img = self.images
        return Permutation(tuple(img[x] for x in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial disjoint cycles, each starting at its least point, sorted by that point."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self, one_based: bool = False) -> str:
        shift = 1 if one_based else 0
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p + shift) for p in cyc) + ")" for cyc in cycs)

    def order(self) -> int:
        result = 1
        for cyc in self.cycles():
            result = _lcm(result, len(cyc))
        return result

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.images))

    def is_fixed_point_free(self) -> bool:
        return all(x != i for i, x in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a // gcd(a, b) * b


class PermGroup:
    """A permutation group with its full element set materialized.

    Elements are kept sorted by image tuple, which puts the identity first
    and makes every downstream enumeration reproducible.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Sequence[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self._member_set = frozenset(p.images for p in self.elements)
        if not self.elements or not self.elements[0].is_identity():
            raise ValueError("element set must contain the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p.images in self._member_set

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self._member_set == other._member_set
        )

    def __hash__(self) -> int:
        return hash((self.degree, self._member_set))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def orbit(self, point: int) -> frozenset[int]:
        seen = {point}
        frontier = [point]
        while frontier:
            x = frontier.pop()
            for g in self.generators:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def orbits(self) -> list[frozenset[int]]:
        """All point orbits, ordered by least point."""
        out = []
        covered: set[int] = set()
        for p in range(self.degree):
            if p not in covered:
                orb = self.orbit(p)
                covered |= orb
                out.append(orb)
        return out

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def is_semiregular(self) -> bool:
        return all(p.is_identity() or p.is_fixed_point_free() for p in self.elements)

    def is_regular(self) -> bool:
        return self.is_semiregular() and self.order == self.degree


def closure(gens: Sequence[Permutation], degree: int) -> PermGroup:
    """The subgroup generated by ``gens``; EnumerationOverflow above ``CLOSURE_CAP`` elements."""
    for g in gens:
        if g.degree != degree:
            raise GroupSpecError(f"generator degree {g.degree} != {degree}")
    ident = tuple(range(degree))
    elems = {ident: Permutation.identity(degree)}
    frontier = [ident]
    gen_imgs = [g.images for g in gens]
    while frontier:
        u = frontier.pop()
        for gi in gen_imgs:
            w = tuple(gi[x] for x in u)
            if w not in elems:
                if len(elems) >= CLOSURE_CAP:
                    raise EnumerationOverflow(f"closure exceeds cap {CLOSURE_CAP}")
                elems[w] = Permutation(w)
                frontier.append(w)
    return PermGroup(degree, gens, list(elems.values()))


def normalizes(a_group, b_group) -> bool:
    """True iff every generator of A conjugates B into itself.

    Both arguments may be PermGroup or anything exposing ``generators`` /
    ``elements`` of Permutation; conjugating generators of B suffices because
    conjugation is an automorphism of the ambient symmetric group.
    """
    b_members = frozenset(p.images for p in b_group.elements)
    b_gens = getattr(b_group, "generators", None) or b_group.elements
    a_gens = getattr(a_group, "generators", None) or a_group.elements
    for a in a_gens:
        a_inv = a.inverse()
        for b in b_gens:
            if (a * b * a_inv).images not in b_members:
                return False
    return True
