import hashlib
import json
import subprocess
import sys

import pytest

from hgw.cli import main
from hgw.dsl import build_group
from hgw.report import TableDocument, emit_enum_table, model_report, run_fixture_paper24


def test_markdown_rendering_alignment():
    doc = TableDocument([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], "md", ["a", "b"])
    text = doc.render()
    lines = text.splitlines()
    assert lines[0].startswith("| a") and len({len(l) for l in lines}) == 1


def test_csv_quoting():
    doc = TableDocument([{"a": 'he said "hi", twice', "b": 3}], "csv", ["a", "b"])
    text = doc.render()
    assert '"he said ""hi"", twice"' in text


def test_json_round_trip():
    group = build_group("C6")
    doc = emit_enum_table(group, "json")
    parsed = json.loads(doc.render())
    assert parsed == doc.rows


def test_fixture_report_document():
    doc = run_fixture_paper24("json")
    rows = json.loads(doc.render())
    assert all(row["status"] == "pass" for row in rows)


def test_model_report_small():
    doc = model_report(11, 4, ("rank",), "json")
    rows = json.loads(doc.render())
    assert rows and all(r["status"] == "pass" for r in rows)


def test_byte_identical_rendering_across_runs():
    group = build_group("C6")
    a = emit_enum_table(group, "md").render()
    b = emit_enum_table(group, "md").render()
    assert a == b


# Record order, provenance ids and generator cycles: every rendered table
# depends on them, so they must not move when the enumeration changes.
ENUM_D3_MD = (
    '| index | N_class | order | provenance | generator_cycles               |\n'
    '| ----- | ------- | ----- | ---------- | ------------------------------ |\n'
    '| 0     | C6      | 6     | C6#1       | (0,4,2,3,1,5)                  |\n'
    '| 1     | C6      | 6     | C6#0       | (0,3,1,4,2,5)                  |\n'
    '| 2     | C6      | 6     | C6#2       | (0,3,2,5,1,4)                  |\n'
    '| 3     | D3      | 6     | D3#0       | (0,1,2)(3,4,5) (0,3)(1,5)(2,4) |\n'
    '| 4     | D3      | 6     | D3#6       | (0,1,2)(3,5,4) (0,3)(1,4)(2,5) |\n'
)

ENUM_Q8_MD = (
    '| index | N_class | order | provenance | generator_cycles                                               |\n'
    '| ----- | ------- | ----- | ---------- | -------------------------------------------------------------- |\n'
    '| 0     | C8      | 8     | C8#4       | (0,4,1,5,2,6,3,7)                                              |\n'
    '| 1     | C8      | 8     | C8#5       | (0,4,3,7,2,6,1,5)                                              |\n'
    '| 2     | C8      | 8     | C8#0       | (0,1,4,7,2,3,6,5)                                              |\n'
    '| 3     | C8      | 8     | C8#1       | (0,1,5,4,2,3,7,6)                                              |\n'
    '| 4     | C8      | 8     | C8#2       | (0,1,6,5,2,3,4,7)                                              |\n'
    '| 5     | C8      | 8     | C8#3       | (0,1,7,6,2,3,5,4)                                              |\n'
    '| 6     | C4 x C2 | 8     | C4 x C2#0  | (0,4,2,6)(1,5,3,7) (0,5,2,7)(1,4,3,6)                          |\n'
    '| 7     | C4 x C2 | 8     | C4 x C2#1  | (0,4,2,6)(1,7,3,5) (0,5,2,7)(1,6,3,4)                          |\n'
    '| 8     | C4 x C2 | 8     | C4 x C2#8  | (0,1,2,3)(4,5,6,7) (0,5,2,7)(1,6,3,4)                          |\n'
    '| 9     | C4 x C2 | 8     | C4 x C2#9  | (0,1,2,3)(4,5,6,7) (0,4,2,6)(1,5,3,7)                          |\n'
    '| 10    | C4 x C2 | 8     | C4 x C2#4  | (0,1,2,3)(4,7,6,5) (0,5,2,7)(1,4,3,6)                          |\n'
    '| 11    | C4 x C2 | 8     | C4 x C2#5  | (0,1,2,3)(4,7,6,5) (0,4,2,6)(1,7,3,5)                          |\n'
    '| 12    | C2^3    | 8     | C2^3#0     | (0,1)(2,3)(4,5)(6,7) (0,2)(1,3)(4,6)(5,7) (0,4)(1,5)(2,6)(3,7) |\n'
    '| 13    | C2^3    | 8     | C2^3#2     | (0,1)(2,3)(4,7)(5,6) (0,2)(1,3)(4,6)(5,7) (0,4)(1,7)(2,6)(3,5) |\n'
    '| 14    | D4      | 8     | D4#34      | (0,5,2,7)(1,6,3,4) (0,1)(2,3)(4,5)(6,7)                        |\n'
    '| 15    | D4      | 8     | D4#8       | (0,4,2,6)(1,7,3,5) (0,1)(2,3)(4,5)(6,7)                        |\n'
    '| 16    | D4      | 8     | D4#10      | (0,5,2,7)(1,4,3,6) (0,1)(2,3)(4,7)(5,6)                        |\n'
    '| 17    | D4      | 8     | D4#32      | (0,4,2,6)(1,5,3,7) (0,1)(2,3)(4,7)(5,6)                        |\n'
    '| 18    | D4      | 8     | D4#0       | (0,1,2,3)(4,5,6,7) (0,4)(1,7)(2,6)(3,5)                        |\n'
    '| 19    | D4      | 8     | D4#24      | (0,1,2,3)(4,7,6,5) (0,4)(1,5)(2,6)(3,7)                        |\n'
    '| 20    | Q8      | 8     | Q8#0       | (0,1,2,3)(4,5,6,7) (0,4,2,6)(1,7,3,5)                          |\n'
    '| 21    | Q8      | 8     | Q8#24      | (0,1,2,3)(4,7,6,5) (0,4,2,6)(1,5,3,7)                          |\n'
)


@pytest.mark.parametrize("spec, expected", [("D3", ENUM_D3_MD), ("Q8", ENUM_Q8_MD)],
                         ids=["D3", "Q8"])
def test_enum_table_pinned(spec, expected):
    assert emit_enum_table(build_group(spec), "md").render() == expected


def test_cli_enum_json_in_process(tmp_path, capsys):
    out = tmp_path / "enum.json"
    code = main(["enum", "--group", "C6", "--json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 3
    assert {r["N_class"] for r in rows} == {"C6", "D3"}
    assert all(set(r) == {"index", "N_class", "order", "provenance", "generator_cycles"}
               for r in rows)


def test_cli_correspond_csv_in_process(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["correspond", "--group", "D3", "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "count,N_class,P_class,J_class,J_normal,core_order,status"


def test_cli_correspond_json_schema(tmp_path):
    out = tmp_path / "rows.json"
    assert main(["correspond", "--group", "D3", "--json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert rows
    for row in rows:
        assert set(row) == {"count", "N_class", "P_class", "J_class",
                            "J_normal", "core_order"}


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enum"])  # missing --group
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["enum", "--group", "NOPE"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2
    capsys.readouterr()
    # a constructor's range is checked before any table is built
    with pytest.raises(SystemExit) as err:
        main(["enum", "--group", "S6"])
    assert err.value.code == 2
    assert "--group: symmetric groups supported for 1 <= k <= 5" in capsys.readouterr().err


def test_cli_group_above_the_expression_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enum", "--group", "C257"])
    assert err.value.code == 2
    assert "--group: group expressions capped at order 256" in capsys.readouterr().err


COVERED = "(covered orders: 1, 2, 3, 4, 6, 7, 8, 12, 14, 21, 24, 42)"


@pytest.mark.parametrize("spec, message", [
    ("C5", "catalog does not cover order 5"),
    ("C50", "catalog does not cover order 50"),
    # Aut(C2^4) is listed and the order-32 group built; the catalog then refuses it
    ("sdp(C2 x C2 x C2 x C2, C2, 2)", "catalog does not cover order 32"),
    # listing Aut(C2^5) is refused by the isomorphism-search bound before any search
    ("sdp(C2 x C2 x C2 x C2 x C2, C2, 2)",
     "isomorphism search on order 32 would try 28629151 generator images, above the bound 100000"),
], ids=["C5", "C50", "sdp_C2^4", "sdp_C2^5"])
def test_cli_uncovered_order_is_usage_error(capsys, spec, message):
    assert main(["enum", "--group", spec]) == 2
    assert capsys.readouterr().err == f"usage error: {message} {COVERED}\n"


def test_cli_non_order_spec_error_has_no_coverage_suffix(capsys):
    assert main(["model", "--p", "4", "--n", "2"]) == 2
    assert capsys.readouterr().err == "usage error: 4 is not prime\n"


# sha256 of `hgw enum --group "sdp(Q8, C3, 3)" --format json` (the catalog's
# SL(2,3)), pinned from the full-backtrack enumeration: the embedding ids in
# the provenance column must not move.
ENUM_SL23_JSON_SHA256 = "5d823d8a700c834b1f78a3efcada31e7f3e959bcadd9b5e57f9c669486dc6a0f"
# sha256 of `hgw enum --group D21 --format json`, pinned from the search that walked
# every root candidate of each Hol(M): the embedding ids follow the order in which
# the regular subgroups of order 42 are found.
ENUM_D21_JSON_SHA256 = "d2d0955aa143dd0f0b9a9e664d590002f17693f27acdb0106f187e71f1aea357"


def test_enum_sl23_json_pinned(tmp_path):
    out = tmp_path / "sl23.json"
    assert main(["enum", "--group", "sdp(Q8, C3, 3)", "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ENUM_SL23_JSON_SHA256


def test_enum_d21_json_pinned(tmp_path):
    out = tmp_path / "d21.json"
    assert main(["enum", "--group", "D21", "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ENUM_D21_JSON_SHA256


@pytest.mark.parametrize("label", ["C2^2", "C2^3", "C6 x C2^2", "SL(2,3)", "C3:C8", "C3:D4"])
def test_cli_accepts_catalog_class_names(label):
    from hgw.catalog import iso_class
    from hgw.cli import _parse_group, build_parser

    assert iso_class(_parse_group(build_parser(), label)).name == label


def test_enum_by_catalog_name_matches_its_spec(tmp_path):
    out = tmp_path / "sl23.json"
    assert main(["enum", "--group", "SL(2,3)", "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ENUM_SL23_JSON_SHA256


@pytest.mark.parametrize("argv, target", [
    (["table42"], ""),  # the output directory is a regular file
    (["enum", "--group", "D3"], "/x.md"),  # the output file's parent is a regular file
], ids=["table42_dir", "enum_parent"])
def test_cli_unwritable_out_is_usage_error(tmp_path, capsys, argv, target):
    blocker = tmp_path / "regular"
    blocker.write_text("", encoding="utf-8")
    out = f"{blocker}{target}"
    assert main(argv + ["--out", out]) == 2
    assert capsys.readouterr().err == (
        f"usage error: cannot write {out}: [Errno 17] File exists: '{blocker}'\n")


def test_cli_check_failure_exits_1(monkeypatch, capsys):
    import hgw.enumeration as enumeration

    real = enumeration.all_isomorphisms
    monkeypatch.setattr(enumeration, "all_isomorphisms", lambda g, v: real(g, v)[:1])
    assert main(["enum", "--group", "D3"]) == 1
    assert capsys.readouterr().err == ("check failed: N of class C6 and provenance ('C6', 0) "
                                       "arose from 1 embeddings of its class's least V, "
                                       "expected |Aut(M)| / |class| = 2 / 1 "
                                       "(G = FiniteGroup(D3))\n")


def test_cli_verify_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "hgw.cli", "verify", "--fixture", "paper24"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0
    assert "fail" not in result.stdout


def test_cli_model_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "hgw.cli", "model", "--p", "11", "--n", "4",
         "--checks", "fix", "--json"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0
    rows = json.loads(result.stdout)
    assert rows and all(r["status"] == "pass" for r in rows)


# sha256 of `hgw verify --fixture paper24` and `hgw model --p 11 --n 4 --checks all
# --json`, pinned before the block layer and the model moved to uint8 rows: the
# fixture's detail strings ([Nbar]=C3, |Gbar|=6) and every model row must not move.
VERIFY_PAPER24_SHA256 = "ed1216b06b624d0f616eed55c817b9cd9b679e8aaf45fc9580dfcf701f1f48b8"
MODEL_11_4_ALL_JSON_SHA256 = "dea74231ef595fbf1672e2cda066c24bec56e6325d3c3cd6c7cca32fcf655acf"


@pytest.mark.parametrize("argv, expected", [
    (["verify", "--fixture", "paper24"], VERIFY_PAPER24_SHA256),
    (["model", "--p", "11", "--n", "4", "--checks", "all", "--json"], MODEL_11_4_ALL_JSON_SHA256),
], ids=["verify_paper24", "model_11_4_all"])
def test_cli_output_pinned(tmp_path, argv, expected):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


# sha256 of `model_report(p, n, all four checks, "md").render()`, pinned before the
# model moved to one matrix arithmetic. The rows name no p, so p = 11 and p = 13
# give the same table; both are run because their moduli and fields differ.
MODEL_REPORT_MD_SHA256 = {
    2: "5913c0ad4d9c63c79210bdad88d085089e9a77c98ccdfffbc0b15fa253b80b23",
    3: "135a91acc42d0d8c3b2047f81e9e42ab8f78fb07d46803764cf5764f77b2909f",
    4: "1663e05e7ecb27b3cfc728491a758185e75e5fb018c8378e1e0ba13b35469ea3",
    6: "b1ebc7e79a09db0d291ec7542ba842add7b8c61cd374dd579e66c018b3869e10",
    7: "541760765f9884da810cf4093b5d92da3ac964888b7bc8df5a444f041506a72e",
    8: "86625796b2d02810ab0675028302042f385768e8dd45a43eabca388e9784ace5",
}


@pytest.mark.parametrize("p", [11, 13])
@pytest.mark.parametrize("n", sorted(MODEL_REPORT_MD_SHA256))
def test_model_report_md_pinned(p, n):
    text = model_report(p, n, ("fix", "rank", "exact", "fixedsum"), "md").render()
    assert hashlib.sha256(text.encode()).hexdigest() == MODEL_REPORT_MD_SHA256[n]


def test_python_m_hgw_runs_the_cli():
    result = subprocess.run([sys.executable, "-m", "hgw", "verify", "--fixture", "paper24"],
                            capture_output=True, timeout=300)
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == VERIFY_PAPER24_SHA256


def test_census_and_model_report_leave_numpy_ma_unimported():
    # np.unique without a return_* flag imports numpy.ma (numpy 2.4), about 15 ms cold
    code = ("import sys; from hgw import report; report.group_census('D3'); "
            "report.model_report(11, 4); print(sorted(m for m in sys.modules "
            "if m == 'numpy.ma' or m.startswith('numpy.ma.')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_census_and_model_report_build_no_perm_group(monkeypatch):
    # N, P and their block images stay uint8 rows from enumeration to the last check
    # and the enum table;
    # the first run of each warms the catalog and holomorph caches
    import hgw.report as report
    from hgw.perm import PermGroup

    report.group_census("D21")
    model_report(11, 4)
    built = []
    real_init = PermGroup.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counted_init)
    census = report.group_census("D21")
    doc = model_report(11, 4)
    enum_doc = emit_enum_table(build_group("D21"))
    assert census.rows and doc.rows and enum_doc.rows
    assert built == []


def test_model_report_builds_each_ring_once(monkeypatch):
    # each (support, action) ring once per model and K^(H_P) once per distinct P: the 6
    # records of C8 have 24 stable P, all normal in N, but only 10 distinct P (each N is
    # one of them); of the 24 quotients, the 6 by P = 1 are H_N and 4 others are distinct
    import hgw.model as model_mod
    from hgw.correspond import stable_subgroups
    from hgw.enumeration import enumerate_hgs

    rings, fields = [], []
    original_ring, original_field = model_mod.fixed_ring_basis, model_mod.fixed_field

    def counted_ring(model, support_rows, gbar_rows=None):
        action = model.group.rows if gbar_rows is None else gbar_rows
        rings.append((support_rows.tobytes(), action.tobytes()))
        return original_ring(model, support_rows, gbar_rows)

    def counted_field(ring):
        fields.append(ring.rows.tobytes())
        return original_field(ring)

    monkeypatch.setattr(model_mod, "fixed_ring_basis", counted_ring)
    monkeypatch.setattr(model_mod, "fixed_field", counted_field)
    model_report(11, 8)
    records = enumerate_hgs(model_mod.make_extension(11, 8).group)
    stables = [s for record in records for s in stable_subgroups(record)]
    distinct_p = {s.rows.tobytes() for s in stables}
    assert (len(records), len(stables), sum(s.normal_in_n for s in stables)) == (6, 24, 24)
    assert {r.rows.tobytes() for r in records} <= distinct_p and len(distinct_p) == 10
    assert len(rings) == len(set(rings)) == 14
    assert sum(action != records[0].group.rows.tobytes() for _, action in rings) == 4
    assert sorted(fields) == sorted(distinct_p)


@pytest.mark.parametrize("check", ["fix", "rank", "exact", "fixedsum"])
def test_single_check_report_renders_its_rows_of_the_full_report(check):
    full = model_report(11, 6)
    rows = [row for row in full.rows if row["check"] == check]
    single = model_report(11, 6, (check,))
    assert rows and single.rows == rows
    assert single.render() == TableDocument(rows, full.format, full.header).render()
