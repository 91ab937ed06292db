"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import time
from collections import Counter

from reference_data import BRACES_42, COUNTS_42, GROUPS_42, NORMAL, TABLE_ROW_COUNTS, TABLES_42

from hgw.catalog import catalog_group, catalog_names
from hgw.correspond import orbit_coset_check, psi, stable_subgroups
from hgw.enumeration import count_formula_report, direct_enumerate_oracle, enumerate_hgs
from hgw.fixture24 import run_fixture
from hgw.report import model_report


def _passline(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_count_matrix_42(census42):
    t0 = time.time()
    for g_name in GROUPS_42:
        census = census42[g_name]
        row = [census.class_counts.get(m, 0) for m in GROUPS_42]
        assert row == COUNTS_42[g_name], (g_name, row, COUNTS_42[g_name])
    elapsed = time.time() - t0
    assert elapsed < 3600  # well under the sixty-minute budget once cached
    _passline(1, "all 36 cells of the degree-42 count matrix reproduced exactly")


def test_criterion_2_onto_braces(census42):
    for g_name in GROUPS_42:
        census = census42[g_name]
        for m_name, expected in zip(GROUPS_42, BRACES_42[g_name]):
            count = census.class_counts.get(m_name, 0)
            onto = census.onto_counts.get(m_name, 0)
            if expected is None:
                assert count == 0 and onto == 0, (g_name, m_name)
            else:
                assert onto == expected, (g_name, m_name, onto, expected)
    _passline(2, "all 36 onto-brace counts reproduced exactly")


def test_criterion_3_per_group_tables(census42):
    for g_name in GROUPS_42:
        census = census42[g_name]
        actual = []
        for r in census.rows:
            status = NORMAL if r.j_normal else ("I", r.core_order)
            if r.j_normal:
                # reported core equals |J| exactly when J is normal
                assert r.core_order == catalog_group(r.j_class).order, r
            actual.append((r.count, r.n_class, r.p_class, r.j_class, status))
        expected = TABLES_42[g_name]
        assert len(actual) == TABLE_ROW_COUNTS[g_name], (g_name, len(actual))
        assert Counter(actual) == Counter(expected), (
            g_name,
            sorted(set(actual) - set(expected)),
            sorted(set(expected) - set(actual)),
        )
    _passline(3, "all six degree-42 census tables match as multisets "
                 "(17+24+24+24+24+17 rows)")


def test_criterion_3_text_table_discrepancy_resolves_to_table(census42):
    # for G = C42 and N of class C3 x D7 the census must contain the row
    # (2, C3 x D7, D7, C14) and no transposed (.., C14, D7, ..) variant
    rows = census42["C42"].rows
    match = [r for r in rows if r.n_class == "C3 x D7" and r.p_class == "D7"]
    assert len(match) == 1 and match[0].j_class == "C14" and match[0].count == 2
    assert not [r for r in rows if r.n_class == "C3 x D7" and r.p_class == "C14"]
    _passline(3, "known text/table transposition resolved in favor of the table")


def test_criterion_4_degree24_fixture():
    t0 = time.time()
    report = run_fixture()
    elapsed = time.time() - t0
    assert report.passed
    assert elapsed < 10, f"fixture took {elapsed:.1f}s"
    _passline(4, f"degree-24 fixture: all {len(report.rows)} checks pass "
                 f"in {elapsed:.2f}s")


def test_criterion_5_oracle_equivalence_and_count_formula(census42):
    # oracle equivalence for every catalog group of order <= 8
    small = [n for order in (1, 2, 3, 4, 6, 7, 8) for n in catalog_names(order)]
    for name in small:
        group = catalog_group(name)
        records = enumerate_hgs(group)
        oracle = direct_enumerate_oracle(group)
        ours = {frozenset(p.images for p in r.n_group.elements) for r in records}
        truth = {frozenset(p.images for p in g.elements) for g in oracle}
        assert ours == truth, name
    # count-formula consistency at orders 8, 24, 42 (all pairs each)
    for order in (8, 24, 42):
        for name in catalog_names(order):
            group = catalog_group(name)
            for row in count_formula_report(group):
                assert row["lhs"] == row["rhs"], (name, row)
    _passline(5, f"oracle equivalence for {len(small)} groups of order <= 8; "
                 "count formula consistent for every (G, M) at orders 8, 24, 42")


def test_criterion_6_model_suite():
    t0 = time.time()
    for n in (4, 6):
        for doc in (model_report(11, n, ("fix", "rank", "exact"), "json"),):
            assert all(row["status"] == "pass" for row in doc.rows)
    # exhaustive fixedsum at n = 6
    doc = model_report(11, 6, ("fixedsum",), "json")
    assert all(row["status"] == "pass" for row in doc.rows)
    elapsed = time.time() - t0
    assert elapsed < 300, f"model suite took {elapsed:.1f}s"
    _passline(6, f"model suite at p=11, n in {{4,6}} all pass in {elapsed:.1f}s "
                 "(dims, act agreement, rank, fixed fields, exact sequences, fixedsum)")


def test_criterion_7_property_suite(census42):
    from perm_tables import right_regular

    pairs = 0
    psi_checked = 0
    for g_name in GROUPS_42:
        census = census42[g_name]
        rho = frozenset(p.images for p in right_regular(census.group).elements)
        assert rho in {frozenset(p.images for p in r.n_group.elements)
                       for r in census.records}  # the classical structure is present
        for record in census.records:
            stables = stable_subgroups(record)
            images = []
            for stable in stables:
                result = psi(stable)  # asserts the common-orbit theorem
                psi_checked += 1
                assert result.j_handle.order == stable.order
                assert result.j_handle.order % result.core_order == 0
                assert orbit_coset_check(stable, result)
                images.append(result.j_handle.members)
                if stable.normal_in_n:
                    pairs += 1
            # injectivity of the correspondence on each N
            assert len(set(images)) == len(images), (g_name, record.n_class.name)
    # quotient-level assertions (block regularity, normalization, triviality
    # of the J-image when J is normal) ran for every normal pair during the
    # census construction; psi/orbit-coset above covers every stable pair.
    _passline(7, f"properties hold for 100% of {psi_checked} stable subgroups "
                 f"({pairs} normal pairs) across the degree-42 data")


# sha256 of each rendered per-group table, pinned from the census computed
# with Permutation products before the correspondence moved to index views
TABLE_SHA256_42 = {
    "C42": "91b000de623c0cf090ca8ea693ffbcadffafa320df5f03ac0da6ce6c9122eb33",
    "C7 x D3": "40c1861e6eef6c28ace4d92803806cf8f61c901e403a77f920d5278afb01c5d7",
    "C7:C3 x C2": "bf8776955988ef599c3d08ddde7e94deda5b776659f8ca8875e1ccf154406e56",
    "C3 x D7": "08eea3945737b8a8141cffb4cbb19b6c7baaf0b4bdaefb1e38003a6b9a9911eb",
    "D21": "835f17c977b13b61cbca2da0a6c5f61c2f74e85d98fcef514ab054f592a88164",
    "(C7:C3):C2": "f9c48aba5a0fca8b3329b7b572e4f5d812cb92ab86754da245df562eb2dd2d08",
}


def test_extra_per_group_tables_pinned(census42):
    import hashlib

    from hgw.report import correspondence_table_doc

    for g_name in GROUPS_42:
        text = correspondence_table_doc(census42[g_name].rows, "md").render()
        assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256_42[g_name], g_name


def test_extra_quotient_example_d21(census42):
    # G = D21, N of class C42, P of class C6: three blocks of size six collapse
    # to a regular C7 image, J of class D3 with core of order 3
    from hgw.catalog import iso_class
    from hgw.correspond import quotient_structure
    from hgw.perm import PermGroup, Permutation
    from perm_tables import as_finite_group

    def as_perm_group(rows):
        perms = [Permutation(row) for row in rows.tolist()]
        return PermGroup(rows.shape[1], perms, perms)

    census = census42["D21"]
    record = next(r for r in census.records if r.n_class.name == "C42")
    stable = next(s for s in stable_subgroups(record)
                  if s.normal_in_n and s.order == 6
                  and iso_class(as_finite_group(as_perm_group(s.rows))).name == "C6")
    result = psi(stable)
    assert result.j_class.name == "D3" and not result.normal_in_g
    assert result.core_order == 3
    quotient = quotient_structure(stable, result)
    nbar, gbar = as_perm_group(quotient.nbar), as_perm_group(result.gbar)
    assert iso_class(as_finite_group(nbar)).name == "C7" and nbar.is_regular()
    assert gbar.is_transitive() and not gbar.is_regular()
    _passline(7, "worked quotient example (D21, C42, C6) verified")


def test_extra_cli_table42_and_enum(census42, tmp_path):
    # the census cache is warm, so the CLI paths are cheap to exercise in-process
    import json

    from hgw.cli import main

    out_dir = tmp_path / "tables"
    assert main(["table42", "--format", "md", "--out", str(out_dir)]) == 0
    files = sorted(f.name for f in out_dir.iterdir())
    assert len(files) == 7 and "count_matrix_42.md" in files
    matrix = (out_dir / "count_matrix_42.md").read_text()
    assert "1 {1}" in matrix and "16 {1}" in matrix

    out = tmp_path / "d21.json"
    assert main(["enum", "--group", "D21", "--json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == sum(COUNTS_42["D21"]) == 45
    _passline(7, "CLI table42 wrote 7 files; enum D21 emitted 45 records")
