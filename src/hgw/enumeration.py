"""Enumeration of Hopf-Galois structures: regular lambda(G)-normalized subgroups.

One path turns embeddings into records. For every isomorphism type M of order
|G|, each regular subgroup V <= Hol(M) isomorphic to G, together with each
isomorphism beta: G -> V, transports to one regular subgroup N <= Perm(G)
normalized by lambda(G), via conjugation by the base-point bijection
b(g) = beta(g)(0).

The regular subgroups of each Hol(M) are searched once, up to conjugation by
the automorphisms of M that fix the point 1 (see ``regsearch``), and come back
as one uint8 stack of sorted rows in canonical order. Only those of G's class
are classified, lazily and once per Hol(M) and class: the element-order
spectra of the whole stack are read in one pass, and a subgroup whose
spectrum differs from G's is skipped before its Cayley table is built.

Aut(G) is computed once per ``enumerate_hgs`` call; each V then needs one
isomorphism beta0: G -> V, and its embeddings are the maps beta0 o alpha for
alpha in Aut(G), numbered in sorted order, which is the order
``all_isomorphisms(G, V)`` would list them in.
Since b0 o alpha is the base map of beta0 o alpha, its N is alpha^-1 N0 alpha,
so the N of all |Aut(G)| embeddings of V come from one gather on N0's rows.

A record is N's rows, sorted by image tuple (for a regular N, by image of 0);
the rows are also the key that deduplicates embeddings. N's PermGroup is built
only when read. For each distinct N these contracts are checked once, each
raising TheoremViolation:

- b is bijective;
- the transported beta(G) equals lambda(G);
- m -> (row m of N's table) is an injective homomorphism M -> N whose image is
  N's rows, so N's class is M's catalog label (the record keeps this map as
  ``m_to_n``);
- N is regular;
- lambda(G) normalizes N (the check also builds ``lambda_conj``);
- N arose from exactly |Aut(M)| embeddings.

Both views are fields of the record. A given N (``HgsRecord.from_perm_group``)
gets them when its record is built, from the same normalization check and
from a search for an isomorphism M -> N.

A direct brute-force search of Perm(G) certifies the holomorph route at small
degrees. Its regular subgroups of Sym(n) are searched once per degree, up to
conjugation by the stabiliser of 0 and 1, and come back as one stack; one
stack test against lambda of a generating sequence of G keeps those that
lambda(G) normalizes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import groups, regsearch
from .catalog import GroupClassLabel, catalog_group, catalog_names, iso_class
from .errors import EnumerationOverflow, TheoremViolation, UncoveredOrder
from .groups import FiniteGroup, all_isomorphisms, an_isomorphism, generating_subset_of
from .perm import PermGroup, Permutation

ORACLE_DEGREE_CAP = 8


@dataclass(frozen=True, eq=False)
class HgsRecord:
    """One Hopf-Galois structure: a regular lambda(G)-normalized N <= Perm(G).

    ``rows`` holds N's elements as uint8 image arrays, sorted by image tuple;
    the fields ``lambda_conj`` and ``m_to_n`` view N on the indices of those
    rows, and both are checked when the record is built. Records compare by
    identity; ``key`` identifies N.
    """

    group: FiniteGroup
    rows: np.ndarray
    n_class: GroupClassLabel
    provenance: tuple[str, int]  # (model class name, embedding id within that model)
    lambda_conj: np.ndarray  # row g maps index a to the index of lambda(g) a lambda(g)^-1 in N
    m_to_n: np.ndarray  # entry m is the index in N of m's image under an isomorphism M -> N

    @classmethod
    def from_perm_group(cls, group: FiniteGroup, n_group: PermGroup, n_class: GroupClassLabel,
                        provenance: tuple[str, int]) -> HgsRecord:
        """The record of a given N, its views computed and checked here.

        M is the catalog group of N's class, so N's order must be a catalog
        order; an isomorphism M -> N is searched for.
        """
        rows = np.array([p.images for p in n_group.elements], dtype=np.uint8)
        conj = _lambda_conjugation(group, rows)
        if conj is None:
            raise TheoremViolation("lambda(G) does not normalize N")
        if not catalog_names(len(rows)):
            raise UncoveredOrder(f"catalog does not cover order {len(rows)}")
        iso = an_isomorphism(catalog_group(n_class.name), _table_group(rows, "N"))
        if iso is None:
            raise TheoremViolation(
                f"N of provenance {provenance} is not isomorphic to its class "
                f"{n_class.name} (G = {group!r})")
        return cls(group, rows, n_class, provenance, conj, np.array(iso, dtype=np.uint8))

    @property
    def key(self) -> bytes:
        return self.rows.tobytes()

    @cached_property
    def n_group(self) -> PermGroup:
        """N as a PermGroup, built on first read.

        Nothing in the package reads it; it stays for the benchmark's oracle
        workload and the tests, which compare N's element sets.
        """
        perms = [Permutation(row) for row in self.rows.tolist()]
        return PermGroup(len(perms), generating_subset_of(perms), perms)


def _lambda_conjugation(group: FiniteGroup, rows: np.ndarray) -> np.ndarray | None:
    """``lambda_conj`` of N's rows; None unless lambda(G) normalizes N."""
    index = np.arange(len(rows))
    lam = np.array(group.table, dtype=np.uint8)  # row g: x -> g x
    lam_inv = lam[list(group.inverse_table)]  # row g: x -> g^-1 x
    # conjugates[g, a, x] = g * a(g^-1 x)
    conjugates = lam[index[:, None, None], rows[index[None, :, None], lam_inv[:, None, :]]]
    conj = row_indices(rows, conjugates)
    return None if conj is None else conj.astype(np.uint8)


# -- holomorph machinery ------------------------------------------------------


class _HolData:
    """Rows of Hol(M) as bytes, its regular subgroups as one uint8 stack, and those
    of one class, with their Cayley tables, on demand."""

    def __init__(self, m_name: str, model: FiniteGroup):
        self.m_name = m_name
        self.model = model
        n = model.order
        # called through the module: this module's alias may be replaced to fake Aut(G)
        aut_rows = np.array(groups.all_isomorphisms(model, model), dtype=np.uint8)
        self.aut_order = len(aut_rows)
        mul = np.array(model.table, dtype=np.uint8)
        # rows[(m, a)] : x -> m * alpha(x); this product set is all of Hol(M)
        stacked = mul[:, aut_rows].reshape(n * self.aut_order, n)
        self.rows = [r.tobytes() for r in stacked]
        if len(set(self.rows)) != n * self.aut_order:  # pragma: no cover - sanity
            raise TheoremViolation("holomorph row set has duplicates")
        # Aut(M) normalises Hol(M); the automorphisms that fix 1 also fix the search's root
        stabiliser = aut_rows[aut_rows[:, 1] == 1] if n > 1 else None
        self.subgroups = regsearch.regular_subgroups(self.rows, n, stabiliser)
        self._isomorphic: dict[str, list[tuple[np.ndarray, FiniteGroup]]] = {}
        self._spectra: np.ndarray | None = None

    def isomorphic_to(self, class_name: str) -> list[tuple[np.ndarray, FiniteGroup]]:
        """(rows, table) of each regular subgroup of class ``class_name``, in canonical
        search order; the rows are sorted, identity first, and the table is on their indices.

        Only subgroups whose order spectrum is the class's get a table and an
        ``iso_class`` call.
        """
        if class_name not in self._isomorphic:
            if self._spectra is None:
                self._spectra = _order_spectra(self.subgroups)
            spectrum = np.sort(catalog_group(class_name).element_orders())
            found = []
            for i in np.flatnonzero((self._spectra == spectrum).all(axis=1)).tolist():
                table = _table_group(self.subgroups[i], "regular subgroup")
                if iso_class(table).name == class_name:
                    found.append((self.subgroups[i], table))
            self._isomorphic[class_name] = found
        return self._isomorphic[class_name]


def _order_spectra(subgroups: np.ndarray) -> np.ndarray:
    """Row i is the sorted element orders of the regular subgroup ``subgroups[i]``.

    Every element of a regular group has all its cycles of the element's
    order, so its cycle through 0 gives that order; the points of those
    cycles advance together, one gather per step.
    """
    point = subgroups[:, :, 0]
    orders = np.ones(point.shape, dtype=np.intp)
    moving = point != 0
    while moving.any():
        orders += moving
        step = np.take_along_axis(subgroups, point[..., None], axis=2)[..., 0]
        point = np.where(moving, step, 0)
        moving = point != 0
    return np.sort(orders, axis=1)


def _base_index(rows: np.ndarray) -> np.ndarray:
    """Entry x is the index of the row that sends 0 to x (0 where no row does)."""
    pos = np.zeros(rows.shape[1], dtype=np.intp)
    pos[rows[:, 0]] = np.arange(len(rows))
    return pos


def row_indices(rows: np.ndarray, targets: np.ndarray) -> np.ndarray | None:
    """Index in ``rows`` of each row of the stack ``targets``; None if one is missing.

    ``rows`` must be semiregular: no two of them send 0 to the same point. A
    target is found by its image of 0 and then compared in full, so no
    returned index is wrong.
    """
    found = _base_index(rows)[targets[..., 0]]
    return found if np.array_equal(rows[found], targets) else None


def regular_table(rows: np.ndarray) -> np.ndarray:
    """Cayley table of a regular group on the indices of its rows.

    (p o q)(0) = p[q[0]], and an element of a regular group is fixed by its
    image of 0, so one gather gives the whole table.
    """
    return _base_index(rows)[rows[:, rows[:, 0]]]


def _table_group(rows: np.ndarray, spec: str) -> FiniteGroup:
    return FiniteGroup(list(map(str, range(len(rows)))), regular_table(rows), spec=spec)


_HOL_CACHE: dict[str, _HolData] = {}


def _hol_data(m_name: str) -> _HolData:
    if m_name not in _HOL_CACHE:
        _HOL_CACHE[m_name] = _HolData(m_name, catalog_group(m_name))
    return _HOL_CACHE[m_name]


# -- the enumeration ----------------------------------------------------------


def enumerate_hgs(group: FiniteGroup) -> list[HgsRecord]:
    """All Hopf-Galois structures on a Galois extension with group ``group``.

    Output is deterministic: records sorted by (model class in catalog order,
    element set).
    """
    names = catalog_names(group.order)
    if not names:
        raise UncoveredOrder(f"catalog does not cover order {group.order}")
    g_class = iso_class(group).name
    aut_g = np.array(all_isomorphisms(group, group), dtype=np.intp)
    return [rec for m_name in names for rec in _records_for_model(group, g_class, aut_g, m_name)]


def _records_for_model(group: FiniteGroup, g_class: str, aut_g: np.ndarray,
                       m_name: str) -> list[HgsRecord]:
    """The structures of class M: one record per distinct N, sorted by element set."""
    n = group.order
    hol = _hol_data(m_name)
    mul = np.array(hol.model.table, dtype=np.intp)
    aut_inv = np.argsort(aut_g, axis=1).astype(np.uint8)  # row a: alpha^-1
    # key -> (embedding id, beta rows, N's rows) of N's first embedding
    first: dict[bytes, tuple] = {}
    multiplicity: Counter[bytes] = Counter()
    emb_id = 0
    for v_rows, v_table in hol.isomorphic_to(g_class):
        beta0 = an_isomorphism(group, v_table)
        if beta0 is None:
            raise TheoremViolation(f"regular subgroup of Hol({m_name}) classed {g_class} "
                                   "is not isomorphic to G")
        # every isomorphism G -> V is beta0 o alpha for one alpha in Aut(G)
        isos = np.array(beta0)[aut_g]
        b0 = v_rows[list(beta0), 0].astype(np.intp)
        table0 = np.argsort(b0)[mul[:, b0]]  # row m: lambda(m) conjugated by b0
        rows0 = table0[np.argsort(table0[:, 0])].astype(np.uint8)  # N0, sorted by image of 0
        # row x of N_alpha = alpha^-1 N0 alpha is alpha^-1 o rows0[alpha(x)] o alpha
        n_rows = aut_inv[np.arange(len(aut_g))[:, None, None],
                         rows0[aut_g[:, :, None], aut_g[:, None, :]]]
        for a in np.lexsort(isos.T[::-1]).tolist():
            key = n_rows[a].tobytes()
            multiplicity[key] += 1
            if key not in first:
                first[key] = (emb_id, v_rows[isos[a]], n_rows[a].copy())
            emb_id += 1

    lam_table = np.array(group.table, dtype=np.intp)
    records = []
    for key in sorted(first):
        first_id, beta, rows = first[key]
        b = beta[:, 0].astype(np.intp)
        if len(set(b.tolist())) != n:
            raise TheoremViolation("embedding image is not regular: base map not bijective")
        b_inv = np.argsort(b)
        if not np.array_equal(b_inv[beta[:, b]], lam_table):
            raise TheoremViolation("transported embedding image differs from lambda(G)")
        # With column 0 a bijection c, row m1 (row m2 (0)) = row (m1 m2) (0) for all
        # m1, m2 forces row m = c lambda(m) c^-1: an injective homomorphism M -> N.
        table = b_inv[mul[:, b]]
        col0 = table[:, 0]
        if (len(set(col0.tolist())) != n or not np.array_equal(table[:, col0], col0[mul])
                or not np.array_equal(rows[col0], table)):
            raise TheoremViolation(
                f"transported subgroup is not the injective image of {m_name}")
        # the image of M is closed, so column 0 a bijection makes N regular
        if not np.array_equal(rows[:, 0], np.arange(n)):
            raise TheoremViolation("transported subgroup is not regular")
        conj = _lambda_conjugation(group, rows)
        if conj is None:
            raise TheoremViolation("transported subgroup is not normalized by lambda(G)")
        if multiplicity[key] != hol.aut_order:
            raise TheoremViolation(
                f"structure arose from {multiplicity[key]} embeddings, expected |Aut(M)| = {hol.aut_order}")
        records.append(HgsRecord(group, rows, GroupClassLabel(m_name, n), (m_name, first_id),
                                 conj, col0.astype(np.uint8)))
    return records


_SYM_REGULAR: dict[int, np.ndarray] = {}


def _sym_stabiliser_generators(n: int) -> np.ndarray:
    """(2 3) and (2 3 ... n-1), which generate the stabiliser of 0 and 1 in Sym(n).

    Both fix 0 and 1 and normalise Sym(n). Below degree 4 the stabiliser is
    trivial and the identity alone is returned.
    """
    ident = np.arange(n, dtype=np.uint8)
    if n < 4:
        return ident[None]
    swap, cycle = ident.copy(), ident.copy()
    swap[[2, 3]] = 3, 2
    cycle[2:] = np.roll(ident[2:], -1)
    return np.stack([swap, cycle])


def _sym_regular_subgroups(n: int) -> np.ndarray:
    """The regular subgroups of Sym(n), searched once per degree.

    Entry i is subgroup i in search order, its rows sorted, as one uint8 array.
    The search walks one root candidate per orbit of the stabiliser of 0 and 1.
    """
    if n not in _SYM_REGULAR:
        _SYM_REGULAR[n] = regsearch.regular_subgroups(
            map(bytes, itertools.permutations(range(n))), n, _sym_stabiliser_generators(n))
    return _SYM_REGULAR[n]


def direct_enumerate_oracle(group: FiniteGroup) -> list[PermGroup]:
    """Brute-force ground truth inside Perm(G), for |G| <= 8.

    Searches Sym(n) for its regular subgroups, once per degree and up to
    conjugation by the stabiliser of 0 and 1, then keeps, with one stack test,
    those that lambda of a generating sequence of G normalizes. Independent of
    the holomorph route.
    """
    n = group.order
    if n > ORACLE_DEGREE_CAP:
        raise EnumerationOverflow(f"direct oracle capped at degree {ORACLE_DEGREE_CAP}")
    lam_gens = np.array(group.table, dtype=np.uint8)[groups.generating_sequence(group)]
    subgroups = _sym_regular_subgroups(n)
    out = []
    for subgroup in subgroups[regsearch.normalized_by(subgroups, lam_gens)]:
        perms = [Permutation(row.tobytes()) for row in subgroup]
        out.append(PermGroup(n, generating_subset_of(perms), perms))
    out.sort(key=lambda pg: tuple(p.images for p in pg.elements))
    return out


def count_formula_report(group: FiniteGroup) -> list[dict]:
    """Both sides of the embedding count identity, per model class.

    (#N of class [M]) * |Aut(M)| = (#regular subgroups of Hol(M) isomorphic
    to G) * |Aut(G)|. |Aut(G)| is read from Hol(M_G), which the enumeration
    has already built for G's class M_G.
    """
    records = enumerate_hgs(group)
    g_class = iso_class(group).name
    aut_g = _hol_data(g_class).aut_order
    out = []
    for m_name in catalog_names(group.order):
        hol = _hol_data(m_name)
        n_count = sum(1 for r in records if r.n_class.name == m_name)
        v_count = len(hol.isomorphic_to(g_class))
        out.append(
            {
                "model": m_name,
                "n_count": n_count,
                "aut_m": hol.aut_order,
                "regular_in_hol": v_count,
                "aut_g": aut_g,
                "lhs": n_count * hol.aut_order,
                "rhs": v_count * aut_g,
            }
        )
    return out
