"""Cayley tables and row stacks of PermGroups, and the regular representations as
PermGroups, for tests that compare the package's row stacks with groups built in
cycle notation."""

import numpy as np

from hgw.groups import FiniteGroup, cayley_table, generating_subset_of
from hgw.perm import PermGroup, Permutation


def as_finite_group(group, spec=""):
    """Abstract Cayley-table copy of a PermGroup (element order = sorted perms)."""
    elems = group.elements
    labels = [p.cycle_string() for p in elems]
    return FiniteGroup(labels, cayley_table(np.array([p.images for p in elems], dtype=np.uint8)),
                       spec=spec or f"perm group of order {len(elems)}")


def rows_of(group):
    """A PermGroup's elements as one uint8 row stack, sorted by image tuple."""
    return np.array([p.images for p in group.elements], dtype=np.uint8)


def left_regular(group):
    """lambda(G): g acts by x -> g*x on element indices."""
    perms = [Permutation(group.table[g]) for g in range(group.order)]
    gens = generating_subset_of(perms)
    return PermGroup(group.order, gens, perms)


def right_regular(group):
    """rho(G): g acts by x -> x*g^-1 on element indices."""
    perms = []
    for g in range(group.order):
        ginv = group.inverse_table[g]
        perms.append(Permutation(tuple(group.table[x][ginv] for x in range(group.order))))
    gens = generating_subset_of(perms)
    return PermGroup(group.order, gens, perms)
