"""Cayley tables of PermGroups, for tests that hand the package's table-based
functions a group built in cycle notation."""

from hgw.groups import FiniteGroup, _cayley_table


def as_finite_group(group, spec=""):
    """Abstract Cayley-table copy of a PermGroup (element order = sorted perms)."""
    elems = group.elements
    labels = [p.cycle_string() for p in elems]
    return FiniteGroup(labels, _cayley_table(elems),
                       spec=spec or f"perm group of order {len(elems)}")
