"""Census assembly and table emission (markdown, CSV, JSON)."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import model as m
from .catalog import catalog_group, catalog_names
from .correspond import CorrespondenceRow, correspondence_rows, psi_onto, stable_subgroups
from .enumeration import HgsRecord, enumerate_hgs, orbit_representatives
from .errors import GroupSpecError, TheoremViolation
from .fixture24 import FixtureReport, run_fixture
from .groups import FiniteGroup, generating_sequence, semiregular_group
from .groups import subgroups as subgroups_of
from .perm import Permutation

FORMATS = ("md", "csv", "json")

# the degree-42 classes whose display spelling differs from their canonical name
DISPLAY_42 = {"C7:C3 x C2": "C2 x (C7:C3)", "(C7:C3):C2": "(C7:C3) : C2"}


def _display(name: str) -> str:
    return DISPLAY_42.get(name, name)


@dataclass
class TableDocument:
    """A rendered table: deterministic rows plus one of the three formats."""

    rows: list[dict]
    format: str
    header: list[str]

    def render(self) -> str:
        if self.format == "json":
            return json.dumps(self.rows, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        if self.format == "csv":
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=self.header)
            writer.writeheader()
            writer.writerows(self.rows)
            return buf.getvalue()
        if self.format == "md":
            return self._render_md()
        raise GroupSpecError(f"unknown format {self.format!r}")

    def _render_md(self) -> str:
        cols = self.header
        cells = [[str(row.get(c, "")).replace("|", "\\|") for c in cols] for row in self.rows]
        widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
                  for i, c in enumerate(cols)]
        lines = [
            "| " + " | ".join(c.ljust(w) for c, w in zip(cols, widths)) + " |",
            "| " + " | ".join("-" * w for w in widths) + " |",
        ]
        for r in cells:
            lines.append("| " + " | ".join(v.ljust(w) for v, w in zip(r, widths)) + " |")
        return "\n".join(lines) + "\n"


# -- census ---------------------------------------------------------------------


@dataclass
class GroupCensus:
    """Everything the reports need for one Galois group G."""

    group: FiniteGroup
    records: list[HgsRecord]
    class_counts: dict[str, int]
    onto_counts: dict[str, int]
    rows: list[CorrespondenceRow]


def group_census(group: FiniteGroup) -> GroupCensus:
    """Enumerate, classify, and aggregate for one covered group, fully verified.

    This is the census behind both ``hgw correspond`` and ``hgw table42``.

    The stable subgroups, the onto test and the verified census run once per
    Aut(G)-orbit of structures, on its first record, and count for the whole
    orbit: N -> alpha N alpha^-1 carries each Psi(P) = J to alpha(J), which
    permutes G's subgroups and keeps every class, J's normality and |core|.
    """
    records = enumerate_hgs(group)
    class_counts = Counter(r.n_class.name for r in records)
    onto = Counter()
    stables = {}
    all_subgroup_sets = frozenset(h.members for h in subgroups_of(group))
    for record, weight in orbit_representatives(records):
        stab = stable_subgroups(record)
        stables[record.key] = stab
        if psi_onto(record, stab, all_subgroup_sets):
            onto[record.n_class.name] += weight
    rows = correspondence_rows(group, records, stables_by_record=stables)
    return GroupCensus(group, records, dict(class_counts), dict(onto), rows)


def emit_count_matrix_42(censuses: dict[str, GroupCensus], fmt: str) -> TableDocument:
    """The degree-42 matrix of structure counts with onto-braces, one row per census."""
    names = list(censuses)
    rows = []
    for g_name, census in censuses.items():
        row: dict = {"G": _display(g_name)}
        for m_name in names:
            count = census.class_counts.get(m_name, 0)
            braces = census.onto_counts.get(m_name, 0)
            row[_display(m_name)] = f"{count} {{{braces}}}" if count else "0"
        rows.append(row)
    header = ["G"] + [_display(m_name) for m_name in names]
    return TableDocument(rows, fmt, header)


def correspondence_table_doc(rows, fmt: str) -> TableDocument:
    """Render census rows; JSON carries exactly the six schema fields."""
    out = []
    for r in rows:
        row = {
            "count": r.count,
            "N_class": r.n_class,
            "P_class": r.p_class,
            "J_class": r.j_class,
            "J_normal": r.j_normal,
            "core_order": r.core_order,
        }
        if fmt != "json":
            row["status"] = "J normal in G" if r.j_normal else f"|I|={r.core_order}"
        out.append(row)
    header = ["count", "N_class", "P_class", "J_class", "J_normal", "core_order"]
    if fmt != "json":
        header.append("status")
    return TableDocument(out, fmt, header)


def emit_enum_table(group: FiniteGroup, fmt: str = "md") -> TableDocument:
    """One row per enumerated structure: class, order, provenance, generators.

    The generators are the greedy ``generating_sequence`` of N's table, or the
    identity for the trivial N.
    """
    records = enumerate_hgs(group)
    rows = []
    for i, record in enumerate(records):
        gens = generating_sequence(semiregular_group(record.rows)) or [0]
        rows.append(
            {
                "index": i,
                "N_class": record.n_class.name,
                "order": len(record.rows),
                "provenance": f"{record.provenance[0]}#{record.provenance[1]}",
                "generator_cycles": " ".join(
                    Permutation(record.rows[g]).cycle_string() for g in gens),
            }
        )
    header = ["index", "N_class", "order", "provenance", "generator_cycles"]
    return TableDocument(rows, fmt, header)


def run_fixture_paper24(fmt: str = "md") -> TableDocument:
    """Run the bundled degree-24 fixture and render its check rows."""
    report: FixtureReport = run_fixture()
    return TableDocument(report.rows, fmt, ["check", "status", "detail"])


def model_report(p: int = 11, n: int = 6, checks: Sequence[str] = ("fix", "rank", "exact", "fixedsum"),
                 fmt: str = "md") -> TableDocument:
    """Run the finite-field descent suite at F_{p^n} and render one row per check.

    Every row's computation raises TheoremViolation on failure, so a rendered
    report certifies that each listed check passed with the shown dimensions.
    """
    ext = m.make_extension(p, n)
    # C_n's structures and their stable P are enumerated once per degree, for every prime
    structures = m.degree_structures(n) if {"fix", "rank", "exact"} & set(checks) else ()
    rows: list[dict] = []

    def row(check: str, target: str, detail: str):
        rows.append({"check": check, "target": target, "status": "pass", "detail": detail})

    samples = np.vstack([np.eye(n, dtype=np.int64), (3 * np.arange(n) + 1) % p])
    for record, stables in structures:
        name = f"N~{record.n_class.name}#{record.provenance[1]}"
        # the model builds each ring and solves each K^(H_P) once: a stable P that
        # several N share is read back, not rebuilt
        h_n = ext.ring_of(record.rows)
        if "fix" in checks:
            m.act(h_n, h_n.basis, samples)  # asserts slice action == closed formula
            acts = h_n.dimension * len(samples)
            row("fix", name, f"dim H_N = {h_n.dimension} = |N|; act agreement x{acts}")
            for stable in stables:
                result = ext.field_of(stable.rows)
                row("fix", f"{name}, |P|={stable.order}",
                    f"K^(H_P) = K^J, dim {result.dimension}")
        if "rank" in checks:
            if not m.hopf_galois_rank(h_n):
                raise TheoremViolation("rank check failed")  # pragma: no cover
            row("rank", name, f"K#H -> End_k(K) bijective (rank {n * n})")
        if "exact" in checks:
            for stable in stables:
                if not stable.normal_in_n:
                    continue
                info = m.exact_sequence_check(h_n, ext.ring_of(stable.rows))
                row("exact", f"{name}, |P|={stable.order}",
                    f"kernel dim {info['kernel_dim']} = |N| - [N:P]; "
                    f"H_N.H_P+ span {info['product_span']}")
    if "fixedsum" in checks:
        subsets = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1  # row s: the bits of s
        count = 0
        for handle in subgroups_of(ext.group):
            pts = tuple(sorted(handle.members))
            result = m.FixedFieldResult(m.fixed_subfield_of_group(ext, pts), pts)
            if not m.fixedsum_check(ext, subsets, result).all():
                raise TheoremViolation("fixedsum counterexample")  # pragma: no cover
            count += len(subsets)
        row("fixedsum", f"all subsets of G, all subfields", f"{count} instances, no counterexample")
    return TableDocument(rows, fmt, ["check", "target", "status", "detail"])


def write_table42(out_dir, fmt: str = "md") -> list[str]:
    """Write the count matrix plus all six per-group tables; returns paths.

    Each census is built once and read by the matrix and by its own table. A
    table's file is named by its group's display spelling with spaces and
    parentheses dropped and ':' written as 's'.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    censuses = {name: group_census(catalog_group(name)) for name in catalog_names(42)}
    slug = str.maketrans(":", "s", " ()")
    docs = {"count_matrix_42": emit_count_matrix_42(censuses, fmt)}
    for g_name, census in censuses.items():
        stem = "table_" + _display(g_name).translate(slug)
        docs[stem] = correspondence_table_doc(census.rows, fmt)
    written = []
    for stem, doc in docs.items():
        path = out / f"{stem}.{fmt}"
        path.write_text(doc.render(), encoding="utf-8")
        written.append(str(path))
    return written
