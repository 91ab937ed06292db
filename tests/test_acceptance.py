"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import time
from collections import Counter

import pytest

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
    from hgw.regsearch import is_regular
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
    assert iso_class(as_finite_group(as_perm_group(quotient.nbar))).name == "C7"
    assert is_regular(quotient.nbar)
    # the orbit of block 0 is the first column: every block, so Gbar is transitive
    assert len(set(result.gbar[:, 0].tolist())) == result.gbar.shape[1]
    assert not is_regular(result.gbar)
    _passline(7, "worked quotient example (D21, C42, C6) verified")


# hgw table42's files in printed order, with the sha256 of each per format
TABLE42_FILES = ["count_matrix_42", "table_C42", "table_C7xD3", "table_C2xC7sC3",
                 "table_C3xD7", "table_D21", "table_C7sC3sC2"]
TABLE42_SHA256 = {
    "md": {
        "count_matrix_42": "40b040342afc11baf8446ec74806ab7b9231d350434bccb1c83cbbdd9e55eafb",
        "table_C42": TABLE_SHA256_42["C42"],
        "table_C7xD3": TABLE_SHA256_42["C7 x D3"],
        "table_C2xC7sC3": TABLE_SHA256_42["C7:C3 x C2"],
        "table_C3xD7": TABLE_SHA256_42["C3 x D7"],
        "table_D21": TABLE_SHA256_42["D21"],
        "table_C7sC3sC2": TABLE_SHA256_42["(C7:C3):C2"],
    },
    "csv": {
        "count_matrix_42": "2f404bdaa444127229416d31f8dc4136efa5e5cb249015a393f25815dc80d35a",
        "table_C42": "32dfff19a64b105bf80ee28e9d0bc2cdc2a29e0620ac1f27d5d2b11c6c73cde0",
        "table_C7xD3": "450c2bd854140671b22d41e2073869e78ee941ad763fd41b9aa6f9bea14b911d",
        "table_C2xC7sC3": "28bc32fd07f03e149a77f6105f3f3bc51f1174b7fca555a021c321bc4140fe80",
        "table_C3xD7": "776bbef7245e4325f293b10360b473d14c5536aae79425a26aa0790eaa7bc4cb",
        "table_D21": "360030b3474a8de0c6b001997126ba3fde8f433e47be4cd049ed9e69384cf925",
        "table_C7sC3sC2": "8bb6d3f2c90879fa45fa6a7f77897d6f45a4967f7e0a08f723d6416c5f30c992",
    },
    "json": {
        "count_matrix_42": "093fd862b268793faac4c706e49af37c1fb442cb1425f7f71cc97c7cc5b2b382",
        "table_C42": "2a34cb4cda414f6a8534d0d5673784678012efab0fd164f83092f10e0e7f48fd",
        "table_C7xD3": "0a7493e39ac9693be2965f4589757e646b328978e498beeb93610488fa4f653e",
        "table_C2xC7sC3": "26d8ff4041489c960287094723076e2ed24cc84eacf221d7e2c372372d603aba",
        "table_C3xD7": "dc0c4716df4b90050de0073075691f7d290e8c5e559f2523449c377173a06c4e",
        "table_D21": "7213edd1f6053329b160292244be812b69f0d64da36dba4b79b9d335119c764a",
        "table_C7sC3sC2": "1fa5dd233e02d9d9d277ecb2023b94c03c4253f9685624e1b5edac8f87c492ec",
    },
}


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_extra_cli_table42_and_enum(fmt, tmp_path, capsys):
    # table42 builds its six censuses in-process, once per format
    import hashlib
    from pathlib import Path

    from hgw.cli import main

    out_dir = tmp_path / "tables"
    assert main(["table42", "--format", fmt, "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(out_dir / f"{stem}.{fmt}") for stem in TABLE42_FILES]
    assert sorted(f.name for f in out_dir.iterdir()) == sorted(Path(p).name for p in printed)
    digests = {stem: hashlib.sha256((out_dir / f"{stem}.{fmt}").read_bytes()).hexdigest()
               for stem in TABLE42_FILES}
    assert digests == TABLE42_SHA256[fmt]

    out = tmp_path / f"d21.{fmt}"
    assert main(["enum", "--group", "D21", "--format", fmt, "--out", str(out)]) == 0
    header_lines = {"md": 2, "csv": 1, "json": 0}[fmt]
    records = (len(json.loads(out.read_text())) if fmt == "json"
               else len(out.read_text().splitlines()) - header_lines)
    assert records == sum(COUNTS_42["D21"]) == 45
    _passline(7, f"CLI table42 wrote 7 files in {fmt}; enum D21 emitted 45 records")


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
@pytest.mark.parametrize("g_name", GROUPS_42)
def test_extra_cli_correspond_prints_the_table42_file(g_name, fmt, capsys):
    # hgw correspond and hgw table42 render the same group census
    import hashlib

    from hgw.cli import main

    assert main(["correspond", "--group", g_name, "--format", fmt]) == 0
    stem = TABLE42_FILES[1 + GROUPS_42.index(g_name)]  # table42 writes in catalog order
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
        == TABLE42_SHA256[fmt][stem]
