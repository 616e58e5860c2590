import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest

import qcong
from qcong import cli, statements
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


_LEHMER_JSON = """\
[
  {
    "r": 2,
    "alpha": 3,
    "n": 0,
    "numerator": "1",
    "denominator": "1"
  },
  {
    "r": 2,
    "alpha": 3,
    "n": 1,
    "numerator": "0",
    "denominator": "1"
  },
  {
    "r": 2,
    "alpha": 3,
    "n": 2,
    "numerator": "-3",
    "denominator": "1"
  }
]
"""


@pytest.mark.parametrize("argv, text, json_out, csv_out", [
    (["cyclotomic", "--n", "12"],
     '["1","0","-1","0","1"]\n', '["1","0","-1","0","1"]\n',
     "1,0,-1,0,1\n"),
    (["qbinomial", "--n", "5", "--k", "2"],
     '["1","1","2","2","2","1","1"]\n', '["1","1","2","2","2","1","1"]\n',
     "1,1,2,2,2,1,1\n"),
    (["euler-numbers", "--count", "5"],
     "1,0,-1,0,5,0\n", '["1","0","-1","0","5","0"]\n', "1,0,-1,0,5,0\n"),
    (["lehmer-euler", "--r", "2", "--alpha", "3", "--count", "2"],
     "1,0,-3\n", _LEHMER_JSON,
     "r,alpha,n,numerator,denominator\n2,3,0,1,1\n2,3,1,0,1\n"
     "2,3,2,-3,1\n"),
    (["m-star", "--n", "3", "--alpha", "2"], "49\n", "49\n", "49\n"),
])
def test_compute_prints_every_format(argv, text, json_out, csv_out, capsys):
    for fmt, want in (("text", text), ("json", json_out), ("csv", csv_out)):
        assert main(["compute", *argv, "--format", fmt]) == 0
        assert capsys.readouterr().out == want, fmt


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


def test_negative_range_after_a_space(capsys):
    # argparse alone reads -3..4 as an option and stops with a usage error
    argv = ["verify", "--statement", "step_a9_0", "--n", "5", "--t"]
    assert main(argv + ["-3..4"]) == 0
    assert capsys.readouterr().out.endswith("8 cells: 8 holds\n")
    assert main(argv + ["-3,-1"]) == 0
    assert capsys.readouterr().out.endswith("2 cells: 2 holds\n")
    assert main(["verify", "--statement", "step_a9_0", "--t", "--n", "5"]) == 2


@pytest.mark.parametrize("argv, code", [
    (["verify", "--statement", "guguo"], 0),
    (["verify", "--statement", "pan2", "--variant", "as_printed"], 1),
])
def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(argv, code):
    # the reader is gone before the command writes, as with `| head -n 0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qcong.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd to count open descriptors")
def test_closed_stdout_leaks_no_descriptor_in_process(monkeypatch):
    # main sends the rest of its output to the null device when the
    # reader has gone; the descriptor it opens for that must not stay open
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(2):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["compute", "euler-numbers", "--count", "4"]) == 0
    assert len(os.listdir("/proc/self/fd")) == before


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


def _scrub(data):
    """Remove every elapsed_ms, the one field that may differ between runs."""
    if isinstance(data, list):
        return [_scrub(x) for x in data]
    if isinstance(data, dict):
        return {k: _scrub(v) for k, v in data.items() if k != "elapsed_ms"}
    return data


def _one_pool_same_json(argv, pools, capsys):
    assert main([*argv, "--jobs", "1"]) == 0
    one = json.loads(capsys.readouterr().out)
    assert pools == []
    assert main([*argv, "--jobs", "2"]) == 0
    two = json.loads(capsys.readouterr().out)
    assert pools == [2]  # one pool for every cell of the command
    assert _scrub(one) == _scrub(two)


def test_verify_jobs_deterministic(pools, capsys):
    _one_pool_same_json(["verify", "--statement", "pan2,step_b6",
                         "--format", "json"], pools, capsys)


def test_report_jobs_deterministic(pools, capsys):
    # both statements' as_printed rows fail; only canonical rows set the exit
    _one_pool_same_json(["report", "--statement", "pan2,step_b6",
                         "--format", "json"], pools, capsys)


def test_usage_errors_come_before_any_cell(monkeypatch, capsys):
    def no_cells(*args):
        raise AssertionError("a cell ran before the usage error")

    monkeypatch.setattr(statements, "run_cell", no_cells)
    assert main(["verify", "--statement", "guozeng_01,guguo,t1",
                 "--n", "40", "--jobs", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: no parameter cell satisfies the hypotheses of t1;"
        " check the ranges\n"
    )


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


def test_repeated_statement_tags_run_once_in_first_seen_order(capsys):
    assert main(["verify", "--statement", "t1,t1", "--n", "3"]) == 0
    assert "1 cells: 1 holds" in capsys.readouterr().out
    assert main(["report", "--statement", "lemma_a2,pan1,lemma_a2",
                 "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert [e["statement"] for e in entries] == ["lemma_a2", "pan1"]


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


def test_readme_python_example_runs():
    # the README's Python API snippet asserts its own claims
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


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


def test_jobs_clamped_to_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert resolve_jobs(8) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert resolve_jobs(8) == 3


# sha256 of `qcong report --all --format json` with elapsed_ms removed,
# re-dumped with indent=2 plus the newline the CLI ends its output with:
# every verdict, margin and note of all 30 statements in both variants
REPORT_ALL_SHA256 = (
    "55d62daa609f2c679ec9e4b040d76a32fdd007fd12e82ff0265fe567d14fa557"
)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_report_all_json_is_unchanged(jobs, pools, capsys):
    assert main(["report", "--all", "--format", "json", "--jobs", jobs]) == 0
    assert len(pools) == int(jobs) - 1
    data = json.loads(capsys.readouterr().out)
    for entry in data:
        for info in entry["variants"].values():
            for record in info["records"]:
                del record["elapsed_ms"]
    text = json.dumps(data, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_ALL_SHA256


def test_report_all_and_statement_conflict(monkeypatch, capsys):
    def no_cells(*args):
        raise AssertionError("a cell ran before the usage error")

    monkeypatch.setattr(statements, "run_cell", no_cells)
    assert main(["report", "--all", "--statement", "pan1"]) == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--statement", "step_a9_0", "--t", "1", "--n", "2..3"],
    ["report", "--statement", "cong_t0a"],
])
def test_record_csv_lines_end_in_newline_only(argv, capsys):
    assert main([*argv, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and "\r" not in out


def test_cli_process_loads_no_pool_or_dataclass_stack():
    # a fresh interpreter without site, so no .pth hook adds imports;
    # jobs=1 runs cells in process and loads not even forkmap, and the
    # forked workers of jobs=2 need neither multiprocessing nor
    # concurrent.futures. The runtime dependencies are the standard
    # library alone: every top-level module loaded is part of it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcong.__file__)))
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import qcong, qcong.cli\n"
        "heavy = ('multiprocessing', 'concurrent.futures', 'dataclasses')\n"
        "qcong.verify('lemma_a2', grid=[{'n': 3}])\n"
        "print(sorted(m for m in (*heavy, 'qcong.forkmap')"
        " if m in sys.modules))\n"
        "qcong.verify('guguo', jobs=2)\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "top = {m.partition('.')[0] for m in sys.modules}\n"
        "print(sorted(top - {*sys.stdlib_module_names, 'qcong', '__main__'}))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n[]\n"


def test_jobs_ignore_start_method_and_digit_limit():
    # forked workers run under the parent's state whatever start method
    # multiprocessing is set to, and their notes print every digit
    code = (
        "import multiprocessing, sys\n"
        "from qcong.cli import main\n"
        "multiprocessing.set_start_method('spawn')\n"
        "sys.exit(main(['verify', '--statement', 'guozeng_01',"
        " '--n', '451,453', '--jobs', '2']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "PYTHONINTMAXSTRDIGITS": "640"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_int_note_prints_every_digit_under_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        [record] = qcong.verify("guozeng_01", grid=[{"n": 451}])
        assert sys.get_int_max_str_digits() == 640
        assert record.verdict.status.value == "holds"
        assert main(["verify", "--statement", "guozeng_01", "--n", "451",
                     "--format", "json"]) == 0
    finally:
        sys.set_int_max_str_digits(limit)
    [printed] = json.loads(capsys.readouterr().out)
    assert len(printed["note"]) > 640
    assert record.verdict.note == printed["note"]


# Every output is written a batch at a time as it is encoded. These tests
# pin the bytes the writer must keep and the memory it may use.

@pytest.mark.parametrize("argv", [
    ["verify", "--statement", "cor1a,pan2,guozeng_01",
     "--variant", "as_printed"],
    ["report", "--statement", "pan2,cong_t0a"],
])
def test_json_output_is_json_dumps_with_indent_two(argv, capsys):
    main([*argv, "--jobs", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII and astral text
_JSON_CHARS = '"\\/\x00\x01\x1f\x7f\b\f\n\r\t aZ09éß€\u2028\ufeff\U0001f600'


class _Text(str):
    pass


class _Count(int):
    pass


class _Map(dict):
    pass


class _List(list):
    pass


def _random_json(rng, depth):
    """A seeded JSON value: str-keyed dicts, lists and tuples to depth,
    empty containers, awkward strings, negative and huge ints, floats."""
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return "".join(rng.choice(_JSON_CHARS)
                       for _ in range(rng.randrange(8)))
    if kind == 1:
        return rng.choice([0, -1, 7, -2**70, 10**4400 + 1, -(10**4301)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([0.0, -0.0, 0.1, -2.5e-300, 1e300,
                           float("inf"), float("-inf")])
    if kind == 4:
        return rng.choice(["", {}, [], ()])
    size = rng.randrange(1, 5)
    if kind in (5, 6):
        return {"".join(rng.choice(_JSON_CHARS)
                        for _ in range(rng.randrange(4))):
                _random_json(rng, depth - 1) for _ in range(size)}
    items = [_random_json(rng, depth - 1) for _ in range(size)]
    return tuple(items) if kind == 7 else items


def test_json_writer_is_json_dumps_with_indent_two(monkeypatch):
    # the CLI's writer against the stdlib on seeded values, encoded inside
    # main, whose lifted digit limit lets ints past 4300 digits print
    rng = random.Random(2029)
    docs = [_random_json(rng, 4) for _ in range(400)]
    docs += [[_random_json(rng, 3) for _ in range(300)], "", 0, [], {},
             [[]], [{}], {"": []}, ({"a": ()},), float("nan"),
             _Map(a=_List([_Text('"é'), _Count(-3), True])), _Text("\\")]
    seen = []

    def encode(args):
        for doc in docs:
            want = json.dumps(doc, indent=2)
            assert "".join(cli._json(doc)) == want, doc
            seen.append(max(map(len, re.findall(r"\d+", want)), default=0))
        return 0

    monkeypatch.setattr(cli, "cmd_compute", encode)
    assert main(["compute", "m-star"]) == 0
    assert len(seen) == len(docs) and max(seen) > 4300
    for bad in ([1, {"x": Fraction(1, 2)}], {"x": object()}, {1: 0}):
        with pytest.raises(TypeError):
            "".join(cli._json(bad))


def test_long_verify_json_is_written_in_batches_of_items(monkeypatch):
    # 10 000 records reach the writer as batches of whole items, no piece
    # near the whole text, and the stdlib's pure-Python encoder never runs
    record = statements.run_cell("step_b6", "as_printed",
                                 {"n": 5, "alpha": 2})
    records = [record] * 10_000
    want = json.dumps([r.to_dict() for r in records], indent=2)
    monkeypatch.setattr(cli, "verify", lambda runs, jobs: records)
    iterencode = []
    real = json.JSONEncoder.iterencode
    monkeypatch.setattr(json.JSONEncoder, "iterencode",
                        lambda *a, **k: iterencode.append(a) or real(*a, **k))
    pieces = []
    monkeypatch.setattr(cli, "_write_out",
                        lambda it, path: pieces.extend(it))
    assert main(["verify", "--statement", "step_b6", "--variant",
                 "as_printed", "--n", "5", "--format", "json"]) == 1
    text = "".join(pieces)
    assert text == want
    assert len(pieces) > 20 and max(map(len, pieces)) < len(text) / 20
    assert pieces[0] == "[\n  " and pieces[-1] == "\n]"
    assert all(p.startswith((",\n  {", "{")) and p.endswith("}")
               for p in pieces[1:-1] if len(p) > 4)
    assert iterencode == []


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv", [
    ["verify", "--statement", "cor1a,pan2", "--variant", "as_printed"],
    ["report", "--statement", "pan2,cong_t0a"],
    ["compute", "cyclotomic", "--n", "30030"],
    ["compute", "euler-numbers", "--count", "30"],
    ["compute", "lehmer-euler", "--r", "2", "--alpha", "3", "--count", "40"],
])
def test_stdout_and_output_file_get_the_same_bytes(argv, fmt, tmp_path,
                                                   monkeypatch, capsys):
    # every elapsed_ms reads 0, so that two runs print the same
    monkeypatch.setattr(statements, "time",
                        types.SimpleNamespace(perf_counter=lambda: 0.0))
    path = tmp_path / "out"
    code = main([*argv, "--format", fmt])
    out = capsys.readouterr().out
    assert main([*argv, "--format", fmt, "--output", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


def test_empty_number_list_prints_brackets_or_a_newline(capsys):
    for fmt, want in (("json", "[]\n"), ("text", "[]\n"), ("csv", "\n")):
        assert main(["compute", "qbinomial", "--n", "3", "--k", "5",
                     "--format", fmt]) == 0
        assert capsys.readouterr().out == want, fmt


@pytest.mark.parametrize("command", ["verify", "report"])
def test_a_cell_that_raises_leaves_no_output_file(command, monkeypatch,
                                                  tmp_path):
    run_cell = statements.run_cell
    calls = []

    def third_cell_raises(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("builder failed")
        return run_cell(*args)

    monkeypatch.setattr(statements, "run_cell", third_cell_raises)
    path = tmp_path / "out.json"
    with pytest.raises(RuntimeError, match="builder failed"):
        main([command, "--statement", "guozeng_01", "--jobs", "1",
              "--format", "json", "--output", str(path)])
    assert len(calls) == 3
    assert not path.exists()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("argv", [
    ["compute", "euler-numbers", "--count", "400"],
    ["verify", "--statement", "guozeng_01", "--n", "451", "--jobs", "1"],
])
def test_integers_past_the_str_digit_limit_print(argv, capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    out = capsys.readouterr().out
    assert max(map(len, re.findall(r"\d+", out))) > 640


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_main_restores_the_callers_str_digit_limit(tmp_path):
    path = tmp_path / "euler.txt"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["compute", "euler-numbers", "--count", "2000",
                     "--output", str(path)])
        after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert after == 640
    assert max(map(len, re.findall(r"\d+", path.read_text()))) == 5344


def _traced_peak(argv):
    """Bytes by which main(argv) raises the traced peak."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_report_json_memory_is_bounded_by_the_batch(tmp_path):
    path = tmp_path / "out"
    argv = ["report", "--statement", "identity_t0,cong_t0a,guozeng_01",
            "--jobs", "1", "--output", str(path)]
    assert main([*argv, "--format", "json"]) == 0  # warm the caches
    text = _traced_peak([*argv, "--format", "text"])
    encoded = _traced_peak([*argv, "--format", "json"])
    assert encoded - text < 2 * path.stat().st_size


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_number_list_memory_is_bounded_by_the_batch(fmt, tmp_path):
    path = tmp_path / "out"
    argv = ["compute", "cyclotomic", "--n", "200003", "--format", fmt,
            "--output", str(path)]
    assert main(argv) == 0  # Phi_200003 is cached from here on
    assert _traced_peak(argv) < 4 * path.stat().st_size


def test_one_parser_serves_every_call_and_commands_dispatch_by_name(
        monkeypatch, capsys):
    from qcong import cli

    assert main(["compute", "m-star", "--n", "3", "--alpha", "2"]) == 0
    misses = cli._parser.cache_info().misses
    assert main(["compute", "m-star", "--n", "4", "--alpha", "2"]) == 0
    assert main(["verify", "--statement", "step_a9_0", "--n", "3"]) == 0
    assert cli._parser.cache_info().misses == misses == 1
    capsys.readouterr()
    # a command patched after the parser was built still runs
    seen = []
    monkeypatch.setattr(cli, "cmd_compute",
                        lambda args: seen.append(args.object) or 7)
    assert main(["compute", "m-star"]) == 7 and seen == ["m-star"]
