"""Census assembly and table emission (markdown, CSV, JSON)."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .catalog import catalog_group, catalog_names
from .correspond import CorrespondenceRow, correspondence_rows, psi_onto, stable_subgroups
from .enumeration import HgsRecord, enumerate_hgs, regular_table
from .errors import GroupSpecError, TheoremViolation
from .fixture24 import FixtureReport, run_fixture
from .groups import FiniteGroup, generating_sequence
from .groups import subgroups as subgroups_of
from .perm import Permutation

FORMATS = ("md", "csv", "json")

# canonical class name -> display spelling for the degree-42 tables
DISPLAY_42 = {
    "C42": "C42",
    "C7 x D3": "C7 x D3",
    "C7:C3 x C2": "C2 x (C7:C3)",
    "C3 x D7": "C3 x D7",
    "D21": "D21",
    "(C7:C3):C2": "(C7:C3) : C2",
}

FILE_SLUGS = {
    "C42": "C42",
    "C7 x D3": "C7xD3",
    "C7:C3 x C2": "C2xC7sC3",
    "C3 x D7": "C3xD7",
    "D21": "D21",
    "(C7:C3):C2": "C7sC3sC2",
}


@dataclass
class TableDocument:
    """A rendered table: deterministic rows plus one of the three formats."""

    kind: str  # count-matrix-42 | per-g-table | fixture-report | model-report
    rows: list[dict]
    format: str
    header: list[str] = field(default_factory=list)

    def render(self) -> str:
        if self.format == "json":
            return json.dumps(self.rows, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        if self.format == "csv":
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=self.header or sorted(self.rows[0]))
            writer.writeheader()
            writer.writerows(self.rows)
            return buf.getvalue()
        if self.format == "md":
            return self._render_md()
        raise GroupSpecError(f"unknown format {self.format!r}")

    def _render_md(self) -> str:
        cols = self.header or sorted(self.rows[0])
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


# -- degree-42 census ------------------------------------------------------------


@dataclass
class GroupCensus:
    """Everything the reports need for one Galois group G."""

    g_name: str
    group: FiniteGroup
    records: list[HgsRecord]
    class_counts: dict[str, int]
    onto_counts: dict[str, int]
    rows: list[CorrespondenceRow]


_CENSUS_CACHE: dict[str, GroupCensus] = {}


def group_census(g_name: str) -> GroupCensus:
    """Enumerate, classify, and aggregate for one catalog group, fully verified (cached)."""
    if g_name in _CENSUS_CACHE:
        return _CENSUS_CACHE[g_name]
    group = catalog_group(g_name)
    records = enumerate_hgs(group)
    class_counts = Counter(r.n_class.name for r in records)
    onto = Counter()
    stables = {}
    all_subgroup_sets = frozenset(h.members for h in subgroups_of(group))
    for record in records:
        stab = stable_subgroups(record)
        stables[record.key] = stab
        if psi_onto(record, stab, all_subgroup_sets):
            onto[record.n_class.name] += 1
    rows = correspondence_rows(group, records, stables_by_record=stables)
    census = GroupCensus(g_name, group, records, dict(class_counts), dict(onto), rows)
    _CENSUS_CACHE[g_name] = census
    return census


def emit_count_matrix_42(fmt: str = "md") -> TableDocument:
    """The 6x6 degree-42 matrix of structure counts with onto-braces."""
    names = catalog_names(42)
    rows = []
    for g_name in names:
        census = group_census(g_name)
        row: dict = {"G": DISPLAY_42[g_name]}
        for m_name in names:
            count = census.class_counts.get(m_name, 0)
            braces = census.onto_counts.get(m_name, 0)
            row[DISPLAY_42[m_name]] = f"{count} {{{braces}}}" if count else "0"
        rows.append(row)
    header = ["G"] + [DISPLAY_42[m] for m in names]
    return TableDocument("count-matrix-42", rows, fmt, header)


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
    return TableDocument("per-g-table", out, fmt, header)


def emit_per_g_table(g_name: str, fmt: str = "md") -> TableDocument:
    """The correspondence census table for one order-42 group."""
    census = group_census(g_name)
    return correspondence_table_doc(census.rows, fmt)


def emit_enum_table(group: FiniteGroup, fmt: str = "md") -> TableDocument:
    """One row per enumerated structure: class, order, provenance, generators.

    The generators are the greedy ``generating_sequence`` of N's table, or the
    identity for the trivial N.
    """
    records = enumerate_hgs(group)
    rows = []
    for i, record in enumerate(records):
        n = len(record.rows)
        gens = generating_sequence(FiniteGroup(range(n), regular_table(record.rows))) or [0]
        rows.append(
            {
                "index": i,
                "N_class": record.n_class.name,
                "order": n,
                "provenance": f"{record.provenance[0]}#{record.provenance[1]}",
                "generator_cycles": " ".join(
                    Permutation(record.rows[g]).cycle_string() for g in gens),
            }
        )
    header = ["index", "N_class", "order", "provenance", "generator_cycles"]
    return TableDocument("enum-table", rows, fmt, header)


def run_fixture_paper24(fmt: str = "md") -> TableDocument:
    """Run the bundled degree-24 fixture and render its check rows."""
    report: FixtureReport = run_fixture()
    return TableDocument("fixture-report", report.rows, fmt, ["check", "status", "detail"])


def model_report(p: int = 11, n: int = 6, checks: Sequence[str] = ("fix", "rank", "exact", "fixedsum"),
                 fmt: str = "md") -> TableDocument:
    """Run the finite-field descent suite at F_{p^n} and render one row per check.

    Every row's computation raises TheoremViolation on failure, so a rendered
    report certifies that each listed check passed with the shown dimensions.
    """
    import itertools

    from . import model as m

    ext = m.make_extension(p, n)
    records = enumerate_hgs(ext.group) if {"fix", "rank", "exact"} & set(checks) else []
    rows: list[dict] = []

    def row(check: str, target: str, detail: str):
        rows.append({"check": check, "target": target, "status": "pass", "detail": detail})

    samples = np.vstack([np.eye(n, dtype=np.int64), (3 * np.arange(n) + 1) % p])
    for record in records:
        name = f"N~{record.n_class.name}#{record.provenance[1]}"
        # H_N once per record, H_P once per stable P that a check reads
        h_n = m.fixed_ring_basis(ext, record.rows)
        stables = [s for s in stable_subgroups(record)
                   if "fix" in checks or ("exact" in checks and s.normal_in_n)]
        h_ps = [m.fixed_ring_basis(ext, stable.rows) for stable in stables]
        if "fix" in checks:
            m.act(h_n, h_n.basis, samples)  # asserts slice action == closed formula
            acts = h_n.dimension * len(samples)
            row("fix", name, f"dim H_N = {h_n.dimension} = |N|; act agreement x{acts}")
            for stable, h_p in zip(stables, h_ps):
                result = m.fixed_field(h_p)
                row("fix", f"{name}, |P|={stable.order}",
                    f"K^(H_P) = K^J, dim {result.dimension}")
        if "rank" in checks:
            if not m.hopf_galois_rank(h_n):
                raise TheoremViolation("rank check failed")  # pragma: no cover
            row("rank", name, f"K#H -> End_k(K) bijective (rank {n * n})")
        if "exact" in checks:
            for stable, h_p in zip(stables, h_ps):
                if not stable.normal_in_n:
                    continue
                info = m.exact_sequence_check(h_n, h_p)
                row("exact", f"{name}, |P|={stable.order}",
                    f"kernel dim {info['kernel_dim']} = |N| - [N:P]; "
                    f"H_N.H_P+ span {info['product_span']}")
    if "fixedsum" in checks:
        count = 0
        for handle in subgroups_of(ext.group):
            pts = tuple(sorted(handle.members))
            result = m.FixedFieldResult(ext, m.fixed_subfield_of_group(ext, pts), pts)
            for r in range(n + 1):
                for subset in itertools.combinations(range(n), r):
                    if not m.fixedsum_check(ext, subset, result):
                        raise TheoremViolation("fixedsum counterexample")  # pragma: no cover
                    count += 1
        row("fixedsum", f"all subsets of G, all subfields", f"{count} instances, no counterexample")
    return TableDocument("model-report", rows, fmt, ["check", "target", "status", "detail"])


def write_table42(out_dir, fmt: str = "md") -> list[str]:
    """Write the count matrix plus all six per-group tables; returns paths."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    doc = emit_count_matrix_42(fmt)
    path = out / f"count_matrix_42.{fmt}"
    path.write_text(doc.render(), encoding="utf-8")
    written.append(str(path))
    for g_name in catalog_names(42):
        doc = emit_per_g_table(g_name, fmt)
        path = out / f"table_{FILE_SLUGS[g_name]}.{fmt}"
        path.write_text(doc.render(), encoding="utf-8")
        written.append(str(path))
    return written
