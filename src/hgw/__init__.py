"""Hopf-Galois structure workbench.

Library + CLI for enumerating Hopf-Galois structures on finite Galois
extensions (regular subgroups of Perm(G) normalized by the left regular
representation), the induced subgroup correspondence with its normality and
core census, and exact descent checks over explicit finite-field models.
"""

__version__ = "0.1.0"

from .catalog import GroupClassLabel, iso_class
from .correspond import (
    CorrespondenceRow,
    CosetSpace,
    PsiResult,
    StableSubgroup,
    correspondence_rows,
    coset_space,
    induced_block_perm,
    orbit_coset_check,
    psi,
    psi_onto,
    quotient_structure,
    stable_subgroups,
)
from .dsl import build_group
from .enumeration import (
    HgsRecord,
    direct_enumerate_oracle,
    enumerate_hgs,
)
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    automorphisms,
    core_of,
    subgroups,
)
from .model import (
    ExtensionModel,
    FixedRing,
    act,
    exact_sequence_check,
    fixed_field,
    fixed_ring_basis,
    fixedsum_check,
    hopf_galois_rank,
    make_extension,
)
from .perm import PermGroup, Permutation, closure, normalizes

__all__ = [
    "CorrespondenceRow",
    "CosetSpace",
    "ExtensionModel",
    "FiniteGroup",
    "FixedRing",
    "GroupClassLabel",
    "HgsRecord",
    "PermGroup",
    "Permutation",
    "PsiResult",
    "StableSubgroup",
    "SubgroupHandle",
    "act",
    "automorphisms",
    "build_group",
    "closure",
    "core_of",
    "correspondence_rows",
    "coset_space",
    "direct_enumerate_oracle",
    "enumerate_hgs",
    "exact_sequence_check",
    "fixed_field",
    "fixed_ring_basis",
    "fixedsum_check",
    "hopf_galois_rank",
    "induced_block_perm",
    "iso_class",
    "make_extension",
    "normalizes",
    "orbit_coset_check",
    "psi",
    "psi_onto",
    "quotient_structure",
    "stable_subgroups",
    "subgroups",
    "__version__",
]
