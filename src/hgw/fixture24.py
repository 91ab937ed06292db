"""The bundled degree-24 fixture: G = S4 acting regularly with N = A4 x C2.

Generator files live under fixtures/paper24/ in 1-based cycle notation; the
loader shifts to 0-based points and identifies point 0 with the identity of G
(the regular action makes points and group elements interchangeable). G, N
and P are classified by the tables of their uint8 rows. The
fixture exercises the non-normal branch: P is normal in N and G-stable, yet
J = Psi(P) is one of three conjugate non-normal order-8 subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .catalog import iso_class
from .correspond import StableSubgroup, orbit_coset_check, psi, quotient_structure
from .enumeration import HgsRecord
from .errors import FixtureFailure
from .groups import FiniteGroup, SubgroupHandle, core_of, semiregular_group, subgroups
from .perm import PermGroup, Permutation, closure, normalizes
from .regsearch import is_regular

DEGREE = 24

EXPECTED_P_ORBITS = (
    frozenset({1, 2, 4, 5, 7, 8, 12, 16}),
    frozenset({3, 6, 10, 11, 14, 15, 19, 22}),
    frozenset({9, 13, 17, 18, 20, 21, 23, 24}),
)
EXPECTED_J_ORBITS = (
    frozenset({1, 2, 4, 5, 7, 8, 12, 16}),
    frozenset({3, 10, 11, 13, 19, 20, 21, 24}),
    frozenset({6, 9, 14, 15, 17, 18, 22, 23}),
)


@dataclass
class FixtureReport:
    rows: list[dict]

    @property
    def passed(self) -> bool:
        return all(row["status"] == "pass" for row in self.rows)


def fixture_dir() -> Path:
    return Path(str(resources.files("hgw").joinpath("fixtures/paper24")))


def load_generators(name: str) -> list[Permutation]:
    path = fixture_dir() / f"{name}.txt"
    perms = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            perms.append(Permutation.parse_cycles(line, DEGREE, one_based=True))
    return perms


def _one_based(points) -> frozenset[int]:
    return frozenset(p + 1 for p in points)


def run_fixture() -> FixtureReport:
    """Run every fixture check; raises FixtureFailure on the first mismatch."""
    rows: list[dict] = []

    def check(name: str, ok: bool, detail: str):
        rows.append({"check": name, "status": "pass" if ok else "fail", "detail": detail})
        if not ok:
            raise FixtureFailure(f"{name}: {detail}")

    g_group = closure(load_generators("g"), DEGREE)
    n_group = closure(load_generators("n"), DEGREE)
    p_group = closure(load_generators("p"), DEGREE)
    # N and P are semiregular, so their sorted uint8 rows give their tables
    n_rows, p_rows = (np.array([q.images for q in h.elements], dtype=np.uint8)
                      for h in (n_group, p_group))

    check("G order and regularity", g_group.order == 24 and g_group.is_regular(),
          f"|G|={g_group.order}, regular={g_group.is_regular()}")
    # identify points with elements of G: point i <-> the element sending 0 to i
    g_abs = _regular_identification(g_group)
    g_class = iso_class(g_abs).name
    check("G class", g_class == "S4", f"[G]={g_class}")
    check("N order and regularity", n_group.order == 24 and n_group.is_regular(),
          f"|N|={n_group.order}, regular={n_group.is_regular()}")
    n_class = iso_class(semiregular_group(n_rows))
    check("N class", n_class.name == "A4 x C2", f"[N]={n_class.name}")
    check("N normalized by G", normalizes(g_group, n_group), "conjugation check")
    p_class = iso_class(semiregular_group(p_rows)).name
    check("P order and class", p_group.order == 8 and p_class == "C2^3",
          f"|P|={p_group.order}, [P]={p_class}")
    check("P inside N", all(q in n_group for q in p_group.elements), "membership")
    check("P normal in N", normalizes(n_group, p_group), "conjugation check")
    check("P normalized by G", normalizes(g_group, p_group), "conjugation check")
    check("P semiregular, not transitive",
          p_group.is_semiregular() and not p_group.is_transitive(),
          f"orbits={len(p_group.orbits())}")

    p_orbits = tuple(_one_based(o) for o in p_group.orbits())
    check("P orbits", set(p_orbits) == set(EXPECTED_P_ORBITS),
          f"got {sorted(sorted(o) for o in p_orbits)}")

    record = HgsRecord.from_perm_group(g_abs, n_group, n_class, ("paper24", 0))
    n_index = {perm.images: i for i, perm in enumerate(n_group.elements)}
    p_handle = SubgroupHandle(tuple(sorted(n_index[q.images] for q in p_group.elements)))
    stable = StableSubgroup(record, p_handle, normal_in_n=True)
    result = psi(stable)

    check("Psi(P) order", result.j_handle.order == 8, f"|J|={result.j_handle.order}")
    check("Psi(P) class", result.j_class.name == "D4", f"[J]={result.j_class.name}")
    check("J not normal, core order 4",
          not result.normal_in_g and result.core_order == 4,
          f"normal={result.normal_in_g}, |I|={result.core_order}")
    order8 = [h for h in subgroups(g_abs) if h.order == 8]
    check("G has three order-8 subgroups, none normal",
          len(order8) == 3 and all(core_of(g_abs, h).order < 8 for h in order8),
          f"count={len(order8)}")

    # the orbits of lambda(J) are the right cosets Jx: the columns of J's rows
    j_orbits = {_one_based(col) for col in g_abs.rows[list(result.j_handle.members)].T.tolist()}
    check("J orbits (right cosets)", j_orbits == set(EXPECTED_J_ORBITS),
          f"got {sorted(sorted(o) for o in j_orbits)}")
    shared = j_orbits & set(p_orbits)
    check("left/right coset mismatch",
          shared == {EXPECTED_P_ORBITS[0]},
          f"J and P share only the identity block; shared={sorted(sorted(o) for o in shared)}")

    check("P orbits are left cosets of J", orbit_coset_check(stable, result), "orbit=coset")
    quotient = quotient_structure(stable, result)
    blocks = result.space.block_count
    check("quotient blocks", blocks == 3, f"blocks={blocks}")
    # quotient_structure has asserted that Nbar is regular and Gbar transitive
    nbar_class = iso_class(semiregular_group(quotient.nbar)).name
    check("quotient N image", nbar_class == "C3", f"[Nbar]={nbar_class}")
    check("quotient G image transitive, not regular", len(result.gbar) > blocks,
          f"|Gbar|={len(result.gbar)}")
    return FixtureReport(rows)


def _regular_identification(g_group: PermGroup) -> FiniteGroup:
    """G with its elements indexed by their image of point 0, so that lambda(G) = G."""
    rows = np.array(sorted(perm.images for perm in g_group.elements), dtype=np.uint8)
    if not is_regular(rows):
        raise FixtureFailure("fixture group is not regular; cannot identify points")
    g_abs = semiregular_group(rows)  # its table is the rows: lambda(G) = G
    g_abs.spec = "paper24 G"
    return g_abs
