"""Named catalog of isomorphism types and class labeling.

The catalog covers, by name, every isomorphism type of each order the census
and fixtures touch: {1,2,3,4,6,7,8,12,14,21,24,42}. Classifying a group of any
other order raises UncoveredOrder.

A group is classified by its sorted order spectrum: the catalog classes of its
order with the same spectrum are kept, and the isomorphism search decides
between them on a tie. A single match is returned without a search, which
relies on the catalog listing every class of each order it covers. No two
classes of a covered order share a spectrum today.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dsl import build_group
from .errors import TheoremViolation, UncoveredOrder
from .groups import FiniteGroup, PermGroup, as_finite_group, is_isomorphic

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
        ("C3:D4", "sdp(C6 x C2, C2, 2, %d)"),  # index pinned by _C3_D4_INDEX below
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

# Which order-2 automorphism of C6 x C2 yields the mixed (non direct-product)
# extension: resolved empirically and pinned; validated by the catalog tests.
_C3_D4_INDEX = 2


@dataclass(frozen=True)
class GroupClassLabel:
    """Canonical isomorphism-class token; equal labels iff isomorphic groups."""

    name: str
    order: int

    def __str__(self) -> str:
        return self.name


def catalog_names(order: int) -> list[str]:
    return [name for name, _ in CATALOG.get(order, ())]


@lru_cache(maxsize=None)
def catalog_group(name: str) -> FiniteGroup:
    """The catalog representative with the given class name."""
    for order, entries in CATALOG.items():
        for label, spec in entries:
            if label == name:
                if "%d" in spec:
                    spec = spec % _C3_D4_INDEX
                return build_group(spec)
    raise KeyError(f"no catalog entry named {name!r}")


def catalog_groups(order: int) -> list[tuple[str, FiniteGroup]]:
    return [(name, catalog_group(name)) for name in catalog_names(order)]


def iso_class(group) -> GroupClassLabel:
    """Classify a FiniteGroup or PermGroup by its order spectrum, searching only on ties.

    No match means the catalog misses a class: a TheoremViolation.
    """
    if isinstance(group, PermGroup):
        group = as_finite_group(group)
    names = catalog_names(group.order)
    if not names:
        raise UncoveredOrder(f"catalog does not cover order {group.order}")
    spectrum = sorted(group.element_orders())
    candidates = [name for name in names
                  if sorted(catalog_group(name).element_orders()) == spectrum]
    if len(candidates) == 1:
        return GroupClassLabel(candidates[0], group.order)
    for name in candidates:
        if is_isomorphic(group, catalog_group(name)):
            return GroupClassLabel(name, group.order)
    raise TheoremViolation(f"no catalog class of order {group.order} matches {group!r}")
