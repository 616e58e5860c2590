import hashlib
import json
import subprocess
import sys

import pytest

from qcong.cli import (
    UsageError,
    build_grid,
    main,
    parse_range,
    resolve_jobs,
    resolve_variant,
)
from qcong.statements import REGISTRY, VerdictRecord


def test_parse_range_single_and_span():
    assert parse_range("5") == ([5], None)
    assert parse_range("3..7") == ([3, 4, 5, 6, 7], None)
    assert parse_range("-3..1") == ([-3, -2, -1, 0, 1], None)


def test_parse_range_parity_and_lists():
    assert parse_range("3..9:odd") == ([3, 5, 7, 9], None)
    assert parse_range("2..8:even") == ([2, 4, 6, 8], None)
    assert parse_range("1,4..6,10") == ([1, 4, 5, 6, 10], None)
    assert parse_range("even") == (None, "even")
    # bare parity composes with explicit values
    assert parse_range("1..6,odd") == ([1, 2, 3, 4, 5, 6], "odd")


def test_parse_range_rejects_garbage():
    for bad in ("", "a", "3..", "5..3", "1,,2"):
        with pytest.raises(UsageError):
            parse_range(bad)


def test_build_grid_default_matches_statement():
    stmt = REGISTRY["t1"]
    assert build_grid(stmt, {}) == stmt.default_grid()


def test_build_grid_override_filters_hypotheses():
    stmt = REGISTRY["t1"]
    cells = build_grid(stmt, {"n": ([4], None)})
    assert cells == []
    cells = build_grid(stmt, {"n": ([9], None), "alpha": (None, "even")})
    assert cells == [{"n": 9, "alpha": a} for a in (2, 4, 6, 8)]


def test_build_grid_override_can_reach_failing_region():
    # explicit k ranges may leave the safe default domain; that is the point
    stmt = REGISTRY["step_a4"]
    cells = build_grid(stmt, {"n": ([7], None), "alpha": ([2], None)})
    ks = [c["k"] for c in cells]
    assert 6 in ks and 5 not in ks  # k = n - alpha stays excluded


def test_resolve_variant():
    assert resolve_variant(REGISTRY["t1"], None) == "as_printed"
    assert resolve_variant(REGISTRY["pan2"], "canonical") == "corrected"
    assert (
        resolve_variant(REGISTRY["cor1a"], "corrected")
        == "standard_fermat_quotient"
    )
    with pytest.raises(UsageError):
        resolve_variant(REGISTRY["t1"], "corrected")
    with pytest.raises(UsageError):
        resolve_variant(REGISTRY["t1"], "nope")


def test_compute_examples(capsys):
    assert main(["compute", "cyclotomic", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == '["1","-1","1"]'

    assert main(["compute", "lehmer-euler", "--r", "2", "--alpha", "1",
                 "--count", "6"]) == 0
    assert capsys.readouterr().out.strip() == "1,0,-1,0,5,0,-61"

    assert main(["compute", "m-star", "--n", "1", "--alpha", "2"]) == 0
    assert capsys.readouterr().out.strip() == "5"

    assert main(["compute", "euler-numbers", "--count", "6"]) == 0
    assert capsys.readouterr().out.strip() == "1,0,-1,0,5,0,-61"

    assert main(["compute", "qbinomial", "--n", "4", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == '["1","1","2","1","1"]'


def test_compute_lehmer_csv(capsys):
    assert main(["compute", "lehmer-euler", "--r", "3", "--alpha", "1",
                 "--count", "3", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "r,alpha,n,numerator,denominator"
    assert rows[1] == "3,1,0,1,1"
    assert len(rows) == 5


def test_compute_usage_errors(capsys):
    assert main(["compute", "cyclotomic"]) == 2
    assert "requires --n" in capsys.readouterr().err
    assert main(["compute", "frobnicate", "--n", "3"]) == 2
    assert main(["compute", "m-star", "--n", "2", "--alpha", "0"]) == 2


def test_verify_empty_grid_is_usage_error(capsys):
    assert main(["verify", "--statement", "t1", "--n", "4..4"]) == 2
    assert "hypotheses" in capsys.readouterr().err


def test_verify_unknown_statement(capsys):
    assert main(["verify", "--statement", "bogus"]) == 2


def test_verify_inapplicable_param(capsys):
    assert main(["verify", "--statement", "pan1", "--alpha", "2"]) == 2
    assert "--alpha" in capsys.readouterr().err


def test_verify_printed_typo_exits_one_with_note(capsys):
    code = main(["verify", "--statement", "cor1a", "--variant", "as_printed",
                 "--p", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "fails" in out
    assert "note [cor1a]" in out


def test_verify_holds_exit_zero(capsys):
    code = main(["verify", "--statement", "lemma_a2", "--n", "3..9:odd"])
    assert code == 0
    assert "4 cells: 4 holds" in capsys.readouterr().out


def test_verify_json_round_trips(capsys):
    code = main(["verify", "--statement", "step_b6", "--variant",
                 "as_printed", "--n", "5", "--format", "json"])
    assert code == 1
    records = [VerdictRecord.from_dict(d)
               for d in json.loads(capsys.readouterr().out)]
    assert {r.verdict.status.value for r in records} == {"fails"}
    assert all(r.to_dict()["params"]["n"] == 5 for r in records)


def test_verify_csv_header(capsys):
    assert main(["verify", "--statement", "step_a9_0", "--t", "1",
                 "--n", "2..3", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "statement,variant,n,t,status,factors,note,elapsed_ms"
    assert len(rows) == 3


def test_verify_jobs_deterministic(capsys):
    argv = ["verify", "--statement", "cong_t0a", "--p", "3,5",
            "--format", "json"]
    assert main(argv) == 0
    one = json.loads(capsys.readouterr().out)
    assert main([*argv, "--jobs", "2"]) == 0
    two = json.loads(capsys.readouterr().out)
    scrub = lambda rs: [{k: v for k, v in r.items() if k != "elapsed_ms"}
                        for r in rs]
    assert scrub(one) == scrub(two)


def test_verify_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["verify", "--statement", "pan1", "--p", "3",
                 "--format", "json", "--output", str(path)]) == 0
    assert json.loads(path.read_text())[0]["statement"] == "pan1"
    assert main(["verify", "--statement", "pan1", "--p", "3",
                 "--output", str(tmp_path)]) == 2  # directory, not writable


def test_report_subset_text(capsys):
    code = main(["report", "--statement", "pan2,step_b6"])
    out = capsys.readouterr().out
    assert code == 0  # canonical variants all hold
    assert "corrected*" in out
    assert "as_printed " in out
    assert "note:" in out


def test_report_json_one_entry_per_statement(capsys):
    code = main(["report", "--statement", "lemma_a1,lemma_a2",
                 "--format", "json"])
    assert code == 0
    entries = json.loads(capsys.readouterr().out)
    assert [e["statement"] for e in entries] == ["lemma_a1", "lemma_a2"]
    info = entries[0]["variants"]["as_printed"]
    assert info["cells"] == info["holds"] == 12


def test_report_csv_flat_rows(capsys):
    assert main(["report", "--statement", "cong_t0a",
                 "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("statement,variant,alpha,p,")
    assert len(rows) == 1 + 34


def test_help_and_missing_command():
    assert main(["--help"]) == 0
    assert main([]) == 2
    assert main(["bogus"]) == 2


def test_console_module_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qcong.cli", "compute", "cyclotomic",
         "--n", "105"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    coeffs = json.loads(proc.stdout)
    assert coeffs[7] == "-2"


@pytest.mark.parametrize("argv", [
    ["compute", "cyclotomic", "--n", "abc"],
    ["compute", "cyclotomic", "--n", "0"],
    ["compute", "euler-numbers", "--count", "-1"],
    ["compute", "lehmer-euler", "--r", "0", "--alpha", "1", "--count", "3"],
    ["compute", "qbinomial", "--n", "4", "--k", "x"],
])
def test_compute_bad_arguments_exit_two(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_qcong_jobs_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("QCONG_JOBS", "abc")
    assert main(["verify", "--statement", "guguo", "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert err == "error: QCONG_JOBS must be an integer, got 'abc'\n"


def test_jobs_clamped_below_to_one(monkeypatch, capsys):
    monkeypatch.delenv("QCONG_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-4) == 1
    monkeypatch.setenv("QCONG_JOBS", "-2")
    assert resolve_jobs(None) == 1
    assert main(["verify", "--statement", "guguo", "--n", "5",
                 "--jobs", "-3"]) == 0


# sha256 of `qcong report --all --format json` with elapsed_ms removed,
# re-dumped with indent=2 plus the newline the CLI ends its output with:
# every verdict, margin and note of all 30 statements in both variants
REPORT_ALL_SHA256 = (
    "55d62daa609f2c679ec9e4b040d76a32fdd007fd12e82ff0265fe567d14fa557"
)


def test_report_all_json_is_unchanged(capsys):
    assert main(["report", "--all", "--format", "json", "--jobs", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    for entry in data:
        for info in entry["variants"].values():
            for record in info["records"]:
                del record["elapsed_ms"]
    text = json.dumps(data, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_ALL_SHA256
