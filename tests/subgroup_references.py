"""Cores and normality computed one conjugate at a time on the Cayley table,
as references for the package's mask gather ``groups.core_masks``."""

from hgw.groups import SubgroupHandle


def conj(group, g, x):
    """g * x * g^-1."""
    return group.table[group.table[g][x]][group.inverse_table[g]]


def core_of(group, sub):
    """Largest normal subgroup inside ``sub``: intersection of all conjugates."""
    core = set(sub.members)
    for g in range(group.order):
        core &= {conj(group, g, x) for x in sub.members}
        if len(core) == 1:
            break
    return SubgroupHandle(tuple(sorted(core)))


def is_normal(group, sub):
    members = sub.member_set
    return all(conj(group, g, x) in members for g in range(group.order) for x in sub.members)
