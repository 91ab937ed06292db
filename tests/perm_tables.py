"""Cayley tables of PermGroups, for tests that hand the package's table-based
functions a group built in cycle notation."""

import numpy as np

from hgw.groups import FiniteGroup, cayley_table


def as_finite_group(group, spec=""):
    """Abstract Cayley-table copy of a PermGroup (element order = sorted perms)."""
    elems = group.elements
    labels = [p.cycle_string() for p in elems]
    return FiniteGroup(labels, cayley_table(np.array([p.images for p in elems], dtype=np.uint8)),
                       spec=spec or f"perm group of order {len(elems)}")
