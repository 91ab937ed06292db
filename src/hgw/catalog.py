"""Named catalog of isomorphism types and class labeling.

The catalog covers, by name, every isomorphism type of each order the census
and fixtures touch: {1,2,3,4,6,7,8,12,14,21,24,42}. Classifying a group of any
other order raises UncoveredOrder.

A group is classified by looking its ``class_invariants``, gathered off uint8
rows, up among those of its order's catalog classes, each computed once per
class name in a ``functools.cache``. No isomorphism search runs: the catalog
lists every class of each order it covers, with pairwise distinct invariants,
as the catalog tests check. The enumeration reads the invariants of a
holomorph's regular subgroups in one call, and certifies each V it walks by
the search that gives its isomorphism.
A semiregular row stack is classified by the invariant of its regular table
(``iso_class_of_rows``), without the FiniteGroup that ``iso_class`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .dsl import build_group
from .errors import TheoremViolation, UncoveredOrder
from .groups import FiniteGroup
from .regsearch import regular_table

# Order 42 entries are listed in the column order of the degree-42 census.
CATALOG: dict[int, tuple[tuple[str, str], ...]] = {
    1: (("C1", "C1"),),
    2: (("C2", "C2"),),
    3: (("C3", "C3"),),
    4: (("C4", "C4"), ("C2^2", "C2 x C2")),
    6: (("C6", "C6"), ("D3", "D3")),
    7: (("C7", "C7"),),
    8: (
        ("C8", "C8"),
        ("C4 x C2", "C4 x C2"),
        ("C2^3", "C2 x C2 x C2"),
        ("D4", "D4"),
        ("Q8", "Q8"),
    ),
    12: (
        ("C12", "C12"),
        ("C6 x C2", "C6 x C2"),
        ("D6", "D6"),
        ("A4", "A4"),
        ("Dic3", "Dic3"),
    ),
    14: (("C14", "C14"), ("D7", "D7")),
    21: (("C21", "C21"), ("C7:C3", "C7:C3")),
    24: (
        ("C24", "C24"),
        ("C12 x C2", "C12 x C2"),
        ("C6 x C2^2", "C6 x C2 x C2"),
        ("S4", "S4"),
        ("A4 x C2", "A4 x C2"),
        ("SL(2,3)", "sdp(Q8, C3, 3)"),
        ("D12", "D12"),
        ("Dic6", "Dic6"),
        ("C3:C8", "sdp(C3, C8, 2)"),
        ("D4 x C3", "D4 x C3"),
        ("Q8 x C3", "Q8 x C3"),
        ("D6 x C2", "D6 x C2"),
        ("Dic3 x C2", "Dic3 x C2"),
        ("D3 x C4", "D3 x C4"),
        # Which order-2 automorphism of C6 x C2 yields the mixed (non direct-product)
        # extension: index 2, resolved empirically and checked by the catalog tests.
        ("C3:D4", "sdp(C6 x C2, C2, 2, 2)"),
    ),
    42: (
        ("C42", "C42"),
        ("C7 x D3", "C7 x D3"),
        ("C7:C3 x C2", "C7:C3 x C2"),
        ("C3 x D7", "C3 x D7"),
        ("D21", "D21"),
        ("(C7:C3):C2", "sdp(C7:C3, C2, 2)"),
    ),
}

@dataclass(frozen=True)
class GroupClassLabel:
    """Canonical isomorphism-class token; equal labels iff isomorphic groups."""

    name: str
    order: int

    def __str__(self) -> str:
        return self.name


def catalog_names(order: int) -> list[str]:
    return [name for name, _ in CATALOG.get(order, ())]


@cache
def catalog_group(name: str) -> FiniteGroup:
    """The catalog representative with the given class name."""
    for order, entries in CATALOG.items():
        for label, spec in entries:
            if label == name:
                return build_group(spec)
    raise KeyError(f"no catalog entry named {name!r}")


def class_invariants(stack: np.ndarray) -> np.ndarray:
    """Row i is an isomorphism invariant of the regular group ``stack[i]``.

    ``stack`` is (k, n, n) uint8, each group's rows sorted by image of 0, so
    ``stack[i, x, y]`` is the index of x y. A row is n sorted keys, one per
    element x: its order (the least d | n with x^d = 1), then #{y : y^p = x}
    for each prime p | n, ascending, as digits in base n + 1; and last |Z|,
    the number of a whose row equals its column. Products are flat gathers.
    """
    count, n = stack.shape[:2]
    centre = (stack == stack.transpose(0, 2, 1)).all(axis=2).sum(axis=1)
    flat = np.ascontiguousarray(stack).ravel()
    bins = np.arange(count)[:, None] * n  # group i's elements are bins i n to i n + n - 1
    starts = np.arange(0, count * n * n, n)  # entry i n + x: where row x of group i starts
    powers = {1: stack[:, :, 0]}  # x^d for each divisor d of n, ascending
    for d in [d for d in range(2, n + 1) if n % d == 0]:
        p = next(q for q in range(2, d + 1) if d % q == 0)  # x^d = (x^(d/p))^p
        power = powers[d // p]
        start = starts[bins + power]  # the row of y = x^(d/p)
        for _ in range(p - 1):
            power = flat[start + power]  # y^(k+1) = y y^k
        powers[d] = power
    keys = np.empty((count, n), dtype=np.int64)
    for d in reversed(powers):  # the least d with x^d = 1 is written last
        keys[powers[d] == 0] = d
    for p in [p for p in powers if p > 1 and all(p % q for q in range(2, p))]:
        keys *= n + 1
        keys += np.bincount((bins + powers[p]).ravel(), minlength=count * n).reshape(count, n)
    return np.column_stack([np.sort(keys, axis=1), centre])


@cache
def catalog_invariant(name: str) -> np.ndarray:
    """``class_invariants`` of the catalog class ``name``, computed once per name."""
    return class_invariants(catalog_group(name).rows[None])[0]


def iso_class(group: FiniteGroup) -> GroupClassLabel:
    """The one catalog class of the group's order with its invariant, found without a
    search; no match, or two, means the catalog misses a class: a TheoremViolation."""
    return _class_with(group.order, class_invariants(group.rows[None])[0], repr(group))


def iso_class_of_rows(rows: np.ndarray) -> GroupClassLabel:
    """``iso_class`` of the group on a semiregular uint8 stack, its rows sorted by image
    of 0, read off the stack's regular table with no FiniteGroup built."""
    return _class_with(len(rows), class_invariants(regular_table(rows)[None])[0],
                       f"the group on {len(rows)} semiregular rows of degree {rows.shape[1]}")


def _class_with(order: int, invariant: np.ndarray, what: str) -> GroupClassLabel:
    names = catalog_names(order)
    if not names:
        raise UncoveredOrder(f"catalog does not cover order {order}")
    matches = [name for name in names if np.array_equal(catalog_invariant(name), invariant)]
    if len(matches) != 1:
        tie = f"; {' and '.join(matches)} share its invariant" if matches else ""
        raise TheoremViolation(f"no catalog class of order {order} matches {what}{tie}")
    return GroupClassLabel(matches[0], order)
