"""The bundled degree-24 fixture: G = S4 acting regularly with N = A4 x C2.

Generator files live under fixtures/paper24/ in 1-based cycle notation; the
loader shifts to 0-based points and identifies point 0 with the identity of G
(the regular action makes points and group elements interchangeable).
``perm.closure`` builds G, N and P, and ``perm.normalizes`` checks the three
conjugations; every other check reads their uint8 rows, sorted by image
tuple. Regularity is ``regsearch.is_regular``, "P inside N" is
``regsearch.row_indices``, which also gives P's indices in N, and P's orbits
are the point sets of the columns of its rows. G, N and P are classified by
the tables of their rows. The fixture exercises the non-normal branch: P is
normal in N and G-stable, yet J = Psi(P) is one of three conjugate non-normal
order-8 subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .catalog import iso_class, iso_class_of_rows
from .correspond import StableSubgroup, orbit_coset_check, psi, quotient_structure
from .enumeration import HgsRecord
from .errors import FixtureFailure
from .groups import FiniteGroup, SubgroupHandle, core_of, semiregular_group, subgroups
from .perm import Permutation, closure, normalizes
from .regsearch import is_regular, row_indices

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
            perms.append(Permutation.parse_cycles(line, DEGREE))
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

    g_group, n_group, p_group = (closure(load_generators(name), DEGREE)
                                 for name in ("g", "n", "p"))
    # closure sorts each element set by image tuple: a regular group's by image of 0
    g_rows, n_rows, p_rows = (np.array([q.images for q in h.elements], dtype=np.uint8)
                              for h in (g_group, n_group, p_group))

    g_regular = bool(is_regular(g_rows))
    check("G order and regularity", len(g_rows) == 24 and g_regular,
          f"|G|={len(g_rows)}, regular={g_regular}")
    # identify points with elements of G: point i <-> the element sending 0 to i
    g_abs = _regular_identification(g_rows)
    g_class = iso_class(g_abs).name
    check("G class", g_class == "S4", f"[G]={g_class}")
    n_regular = bool(is_regular(n_rows))
    check("N order and regularity", len(n_rows) == 24 and n_regular,
          f"|N|={len(n_rows)}, regular={n_regular}")
    n_class = iso_class_of_rows(n_rows)
    check("N class", n_class.name == "A4 x C2", f"[N]={n_class.name}")
    check("N normalized by G", normalizes(g_group, n_group), "conjugation check")
    p_class = iso_class_of_rows(p_rows).name
    check("P order and class", len(p_rows) == 8 and p_class == "C2^3",
          f"|P|={len(p_rows)}, [P]={p_class}")
    p_in_n = row_indices(n_rows, p_rows)  # N is regular, so its rows are semiregular
    check("P inside N", p_in_n is not None, "membership")
    check("P normal in N", normalizes(n_group, p_group), "conjugation check")
    check("P normalized by G", normalizes(g_group, p_group), "conjugation check")
    # column x of P's rows holds the orbit of x: P is semiregular iff every column
    # holds |P| distinct points, and transitive iff there is one orbit
    p_columns = [_one_based(col) for col in p_rows.T.tolist()]
    p_orbits = set(p_columns)
    check("P semiregular, not transitive",
          all(len(col) == len(p_rows) for col in p_columns) and len(p_orbits) > 1,
          f"orbits={len(p_orbits)}")
    check("P orbits", p_orbits == set(EXPECTED_P_ORBITS),
          f"got {sorted(sorted(o) for o in p_orbits)}")

    record = HgsRecord.from_rows(g_abs, n_rows, n_class, ("paper24", 0))
    p_handle = SubgroupHandle(tuple(sorted(p_in_n.tolist())))
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
    shared = j_orbits & p_orbits
    check("left/right coset mismatch",
          shared == {EXPECTED_P_ORBITS[0]},
          f"J and P share only the identity block; shared={sorted(sorted(o) for o in shared)}")

    check("P orbits are left cosets of J", orbit_coset_check(stable, result), "orbit=coset")
    quotient = quotient_structure(stable, result)
    blocks = result.space.block_count
    check("quotient blocks", blocks == 3, f"blocks={blocks}")
    # quotient_structure has asserted that Nbar is regular and Gbar transitive
    nbar_class = iso_class_of_rows(quotient.nbar).name
    check("quotient N image", nbar_class == "C3", f"[Nbar]={nbar_class}")
    check("quotient G image transitive, not regular", len(result.gbar) > blocks,
          f"|Gbar|={len(result.gbar)}")
    return FixtureReport(rows)


def _regular_identification(rows: np.ndarray) -> FiniteGroup:
    """G on its rows sorted by image tuple, so that element i sends 0 to i and lambda(G) = G."""
    if not is_regular(rows):
        raise FixtureFailure("fixture group is not regular; cannot identify points")
    g_abs = semiregular_group(rows)  # its table is the rows: lambda(G) = G
    g_abs.spec = "paper24 G"
    return g_abs
