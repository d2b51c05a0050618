"""Command-line surface: output shapes, exit codes, error paths."""

import contextlib
import gc
import io
import json

import pytest

from chaincodes import cli, enumeration, oracle
from chaincodes.chain import preset
from chaincodes.cli import main
from chaincodes.tables import GOLDEN_TABLES, GoldenTable, reproduce_table

from _util import run_child


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    return rc, json.loads(out), err


def test_ring_info_json(capsys):
    rc, doc, _ = run_json(capsys, "ring-info", "--preset", "R8,2")
    assert rc == 0
    assert doc["ring"].startswith("CR(2^3,2;3,2;")
    assert doc["depth"] == 8
    assert doc["kappa"] == 3
    assert doc["t"] == 2
    assert doc["residue_field_size"] == "4"
    assert doc["size"] == str(4**8)
    assert doc["chain_members"] == 4
    assert doc["two_as_u_adic"] == ["0", "0", "0", "1", "0", "0", "1", "0"]
    assert [st["level"] for st in doc["stage_plan"]] == [2, 4, 6, 8]


def test_ring_info_csv(capsys):
    rc, out, _ = run(capsys, "ring-info", "--preset", "R4,1", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    assert "depth,4" in lines
    assert "kappa,3" in lines


def test_ring_info_custom_ring_string(capsys):
    rc, doc, _ = run_json(capsys, "ring-info", "--ring", "CR(2^2,1;3,1;1)")
    assert rc == 0
    assert doc["depth"] == 4


def test_count_closed_form(capsys):
    rc, doc, _ = run_json(
        capsys, "count", "--preset", "R4,1", "--n", "3", "--type", "0,1,0,0"
    )
    assert rc == 0
    assert doc["closed_form"] == "48"
    assert doc["oracle"] is None
    assert doc["match"] is None
    assert "so" in doc["query"]


def test_count_self_dual(capsys):
    rc, doc, _ = run_json(
        capsys,
        "count", "--preset", "R4,1", "--n", "3", "--type", "0,1,0,0", "--self-dual",
    )
    assert rc == 0
    assert doc["closed_form"] == "0"


def test_count_with_oracle(capsys):
    rc, doc, _ = run_json(
        capsys,
        "count", "--preset", "R4,1", "--n", "3", "--type", "0,1,0,0", "--oracle",
    )
    assert rc == 0
    assert doc["oracle"] == "48"
    assert doc["match"] is True


def test_count_csv(capsys):
    rc, out, _ = run(
        capsys,
        "count", "--preset", "R4,1", "--n", "3", "--type", "0,1,0,0",
        "--format", "csv",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "type,count,oracle,match"
    assert lines[1].startswith('"0,1,0,0",48')


def test_table_csv_default(capsys):
    rc, out, _ = run(capsys, "table", "--table", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "type,count"
    assert len(lines) == 1 + len(GOLDEN_TABLES[1].rows)


def test_table_json_matches_frozen_rows(capsys):
    rc, doc, _ = run_json(capsys, "table", "--table", "1", "--format", "json")
    assert rc == 0
    assert doc["n"] == 3
    got = [(tuple(row["type"]), int(row["count"])) for row in doc["rows"]]
    assert got == list(GOLDEN_TABLES[1].rows)


def test_total(capsys):
    rc, doc, _ = run_json(capsys, "total", "--preset", "R4,1", "--n", "3")
    assert rc == 0
    assert doc["self_orthogonal"] == "291"
    assert doc["self_dual"] == "7"


CHAIN_0111 = {
    "preset": "R4,1",
    "n": 3,
    "type": [0, 1, 1, 1],
    "members": [[], [["1", "1", "0"]]],
}


def test_lift_valid_chain(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_0111))
    rc, doc, _ = run_json(capsys, "lift", "--chain", str(path))
    assert rc == 0
    assert [st["count"] for st in doc["stages"]] == ["2", "1"]
    gen = doc["generator"]
    assert gen["type"] == [0, 1, 1, 1]
    assert gen["size"] == "64"
    assert [len(block["rows"]) for block in gen["blocks"]] == [0, 1, 1, 1]
    assert [block["u_power"] for block in gen["blocks"]] == [0, 1, 2, 3]


def test_lift_generator_is_pinned(capsys, tmp_path):
    # the first lift found is user-visible, so the search order is pinned
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_0111))
    rc, doc, _ = run_json(capsys, "lift", "--chain", str(path))
    assert rc == 0
    assert doc["generator"] == {
        "level": 4,
        "n": 3,
        "type": [0, 1, 1, 1],
        "size": "64",
        "blocks": [
            {"u_power": 0, "pivots": [], "rows": []},
            {
                "u_power": 1,
                "pivots": [0],
                "rows": [[["1", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]]],
            },
            {"u_power": 2, "pivots": [2], "rows": [[["0", "0"], ["0", "0"], ["1", "0"]]]},
            {"u_power": 3, "pivots": [1], "rows": [[["0"], ["1"], ["0"]]]},
        ],
    }


def test_lift_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CHAIN_0111)))
    rc, doc, _ = run_json(capsys, "lift", "--chain", "-")
    assert rc == 0
    assert doc["generator"]["size"] == "64"


def test_lift_invalid_chain(capsys, tmp_path):
    bad = dict(CHAIN_0111, members=[[], [["1", "0", "0"]]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc, doc, _ = run_json(capsys, "lift", "--chain", str(path))
    assert rc == 1
    assert doc["error"] == "invalid chain"
    assert doc["problems"]


def test_lift_integer_member_rows(capsys, tmp_path):
    doc_in = dict(CHAIN_0111, members=[[], [[1, 1, 0]]])
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc_in))
    rc, doc, _ = run_json(capsys, "lift", "--chain", str(path))
    assert rc == 0
    assert doc["generator"]["size"] == "64"


@pytest.mark.parametrize("entry", [3, 2, -1, True, None, 1.0])
def test_lift_rejects_entries_outside_the_residue_field(capsys, tmp_path, entry):
    # R4,1 has the residue field F_2: only 0 and 1 (or "0", "1") are entries
    doc_in = dict(CHAIN_0111, members=[[], [[entry, 1, 0]]])
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(doc_in))
    rc, out, err = run(capsys, "lift", "--chain", str(path))
    assert rc == 2
    assert out == ""
    assert f"chain member entry {entry!r} " in err
    assert "Traceback" not in err


def test_lift_takes_no_format(capsys, tmp_path):
    # lift prints JSON only, so --format csv is refused rather than ignored
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_0111))
    rc, out, err = run(capsys, "lift", "--chain", str(path), "--format", "csv")
    assert rc == 2
    assert out == ""
    assert "--format" in err


def test_lift_malformed_member_row_exits_two(capsys, tmp_path):
    doc_in = dict(CHAIN_0111, members=[[], [6]])
    path = tmp_path / "mask.json"
    path.write_text(json.dumps(doc_in))
    rc, _, err = run(capsys, "lift", "--chain", str(path))
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "changes",
    [
        {"members": 5},
        {"members": [5]},
        {"preset": 5},
        {"ring": 7},
        # n and type get the checks count gives --n and --type
        {"n": 3.5},
        {"n": "3"},
        {"n": True},
        {"n": -1},
        {"type": [0, 1, 1, -1]},
        {"type": [0, 1, 1, "1"]},
        {"type": [0, 1, 1, 1.0]},
    ],
)
def test_lift_malformed_shapes_exit_two(capsys, tmp_path, changes):
    doc_in = dict(CHAIN_0111, **changes)
    if "ring" in changes:
        del doc_in["preset"]
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc_in))
    rc, out, err = run(capsys, "lift", "--chain", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error:")
    field = {"n": "code length", "type": "'type'"}.get(next(iter(changes)), "")
    assert field in err


def lift_in_child(tmp_path, entry):
    # an entry that never parses must fail the test, not hang the suite
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(dict(CHAIN_0111, members=[[], [[entry, "1", "0"]]])))
    return run_child("-m", "chaincodes.cli", "lift", "--chain", str(path))


@pytest.mark.parametrize("entry", ["ξ^-1", "x^-1", "ξ^+1", "x^1_0", "ξ^abc", "²"])
def test_lift_rejects_bad_exponents(tmp_path, entry):
    proc = lift_in_child(tmp_path, entry)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot parse field element term")


def test_lift_takes_large_exponents(tmp_path):
    # over F_2 (modulus x) the generator is 0, so this entry is 1
    proc = lift_in_child(tmp_path, "x^99999999999999999999+1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["generator"]["size"] == "64"


def test_verify_table_json(capsys):
    rc, doc, _ = run_json(capsys, "verify", "--table", "1", "--format", "json")
    assert rc == 0
    assert doc["all_match"] is True
    assert len(doc["rows"]) == len(GOLDEN_TABLES[1].rows)
    assert all(row["row_ok"] for row in doc["rows"])


def test_verify_table_respects_max_oracle(capsys):
    rc, doc, _ = run_json(
        capsys,
        "verify", "--table", "1", "--max-oracle", "10", "--format", "json",
    )
    assert rc == 0
    skipped = [row for row in doc["rows"] if row["brute_force"] is None]
    assert skipped
    assert all(row["row_ok"] for row in doc["rows"])


def test_verify_table_no_oracle(capsys):
    rc, doc, _ = run_json(
        capsys, "verify", "--table", "1", "--no-oracle", "--format", "json"
    )
    assert rc == 0
    assert all(row["brute_force"] is None for row in doc["rows"])


def test_oracle_compare_single_type(capsys):
    rc, docs, _ = run_json(
        capsys,
        "oracle-compare", "--preset", "R4,1", "--n", "2", "--type", "0,1,0,0",
    )
    assert rc == 0
    assert len(docs) == 1
    assert docs[0]["match"] is True
    assert docs[0]["closed_form"] == docs[0]["brute_force"]


def test_oracle_compare_sample(capsys):
    rc, docs, _ = run_json(
        capsys,
        "oracle-compare", "--preset", "R4,1", "--n", "2",
        "--sample", "3", "--seed", "1",
    )
    assert rc == 0
    assert len(docs) == 3
    assert all(doc["match"] is not False for doc in docs)


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--preset", "R4,1", "--n", "3"),
        ("count", "--preset", "R9,9", "--n", "3", "--type", "0,1,0,0"),
        ("table", "--table", "9"),
        ("nonsense",),
        (),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    rc, _, _ = run(capsys, *argv)
    assert rc == 2


def test_malformed_type_exits_two(capsys):
    rc, _, err = run(
        capsys, "count", "--preset", "R4,1", "--n", "3", "--type", "0,1"
    )
    assert rc == 2
    assert "error:" in err


def test_negative_length_exits_two(capsys):
    for argv in (("total",), ("oracle-compare",), ("oracle-compare", "--type", "0,1,0,0")):
        rc, out, err = run(capsys, *argv, "--preset", "R4,1", "--n", "-2")
        assert rc == 2, argv
        assert out == ""
        assert "error:" in err and "-2" in err


def test_missing_chain_file_exits_two(capsys):
    rc, _, err = run(capsys, "lift", "--chain", "/nonexistent/chain.json")
    assert rc == 2
    assert "error:" in err


def test_budget_refusal_exits_two(capsys):
    rc, _, err = run(
        capsys,
        "oracle-compare", "--preset", "R8,2", "--n", "2",
        "--type", "1,0,0,0,0,0,0,0",
    )
    assert rc == 2
    assert "budget:" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("oracle-compare", "--preset", "R4,1", "--n", "2", "--budget", "-5"), "--budget"),
        (("count", "--preset", "R4,1", "--n", "2", "--type", "0,1,0,1", "--oracle",
          "--budget", "-1"), "--budget"),
        (("verify", "--table", "1", "--max-oracle", "-1"), "--max-oracle"),
        (("oracle-compare", "--preset", "R4,1", "--n", "2", "--sample", "-1"), "--sample"),
    ],
)
def test_negative_ceilings_and_samples_exit_two(capsys, argv, name):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("raw", ["-5", "abc", "1.5", "²"])
def test_malformed_budget_variable_exits_two(capsys, monkeypatch, raw):
    monkeypatch.setenv("CHAINCODES_BUDGET", raw)
    rc, out, err = run(
        capsys, "count", "--preset", "R4,1", "--n", "2", "--type", "0,1,0,1", "--oracle"
    )
    assert (rc, out) == (2, "")
    assert err.startswith("error: CHAINCODES_BUDGET ")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--preset", "R4,1", "--n", "2", "--type", "0,1,0,1"),
        ("verify", "--table", "1", "--no-oracle"),
        ("oracle-compare", "--preset", "R4,1", "--n", "2"),
    ],
)
def test_malformed_budget_variable_is_refused_without_a_recount(capsys, monkeypatch, argv):
    # the variable is read before any work, not only when the oracle runs
    monkeypatch.setenv("CHAINCODES_BUDGET", "abc")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: CHAINCODES_BUDGET ")


def test_budget_flag_overrides_a_malformed_variable(capsys, monkeypatch):
    monkeypatch.setenv("CHAINCODES_BUDGET", "abc")
    rc, doc, _ = run_json(
        capsys, "count", "--preset", "R4,1", "--n", "2", "--type", "0,1,0,1", "--budget", "5"
    )
    assert (rc, doc["oracle"]) == (0, None)
    rc, _, err = run(
        capsys, "count", "--preset", "R4,1", "--n", "2", "--type", "0,1,0,1", "--oracle",
        "--budget", "5",
    )
    # the flag's ceiling, not the variable, refuses the 8-candidate recount
    assert rc == 2 and err.startswith("budget: ") and "ceiling 5" in err
    rc, _, _ = run(capsys, "verify", "--table", "1", "--no-oracle", "--budget", "5")
    assert rc == 0


def test_table_ignores_the_budget_variable(capsys, monkeypatch):
    # table never recounts and takes no --budget
    monkeypatch.setenv("CHAINCODES_BUDGET", "abc")
    rc, out, _ = run(capsys, "table", "--table", "1")
    assert rc == 0 and out


def test_budget_override_admits_longer_lengths(capsys):
    rc, doc, _ = run_json(
        capsys,
        "count", "--preset", "R4,1", "--n", "6", "--type", "0,0,0,1",
        "--oracle", "--budget", "1000000",
    )
    assert rc == 0
    assert doc["closed_form"] == "63"
    assert doc["match"] is True


@pytest.mark.parametrize(
    "n, type_text, kind",
    [(3, "0,1,0,0", "so"), (2, "0,1,0,1", "sd"), (6, "0,0,0,1", "so")],
)
def test_comparison_commands_agree(capsys, monkeypatch, n, type_text, kind):
    # count --oracle, oracle-compare (one type, and the sweep) and
    # reproduce_table report one closed form, recount and match.  Past the
    # default length ceiling of 5, the one-type commands refuse with exit 2
    # while the sweep and the table report an empty recount.
    flags = ["--preset", "R4,1", "--n", str(n)] + (["--self-dual"] if kind == "sd" else [])
    lambdas = tuple(int(x) for x in type_text.split(","))
    refused = n > oracle.OracleBudget().max_length
    seen = []
    for argv in (
        ["count", *flags, "--type", type_text, "--oracle"],
        ["oracle-compare", *flags, "--type", type_text],
    ):
        rc, out, err = run(capsys, *argv)
        if refused:
            assert (rc, out) == (2, "") and err.startswith("budget:")
            continue
        assert rc == 0
        doc = json.loads(out)
        doc = doc[0] if argv[0] == "oracle-compare" else dict(doc, brute_force=doc["oracle"])
        seen.append((doc["closed_form"], doc["brute_force"], doc["match"]))
    rc, sweep, _ = run_json(capsys, "oracle-compare", *flags)
    assert rc == 0
    (row,) = [r for r in sweep if r["query"].endswith(f" type={type_text} {kind}")]
    seen.append((row["closed_form"], row["brute_force"], row["match"]))
    if kind == "so":
        monkeypatch.setitem(GOLDEN_TABLES, 0, GoldenTable(0, "R4,1", n, ((lambdas, 0),)))
        (report,) = reproduce_table(0)
        brute = None if report.brute_force is None else str(report.brute_force)
        seen.append((str(report.closed_form), brute, report.match))
    counter = enumeration.count_sd_type if kind == "sd" else enumeration.count_so_type
    closed = str(counter(preset("R4,1"), n, lambdas))
    expected = (closed, None, None) if refused else (closed, closed, True)
    assert seen == [expected] * len(seen)


def test_comparison_looks_up_counters_at_call_time(capsys, monkeypatch):
    # perfbench/tracer.py rebinds the counters on their modules, so every
    # comparison command must call through those attributes
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(enumeration, "count_so_type")
    counting(enumeration, "count_sd_type")
    counting(oracle, "brute_force_code_count")
    flags = ["--preset", "R4,1", "--n", "2", "--type", "0,1,0,1"]
    run(capsys, "count", *flags, "--oracle")
    run(capsys, "oracle-compare", *flags, "--self-dual")
    run(capsys, "table", "--table", "3")
    assert calls == (
        ["count_so_type", "brute_force_code_count", "count_sd_type", "brute_force_code_count"]
        + ["count_so_type"] * len(GOLDEN_TABLES[3].rows)
    )


def test_parser_is_built_once(capsys):
    cli._build_parser.cache_clear()
    try:
        for _ in range(3):
            run(capsys, "count", "--preset", "R4,1", "--n", "3", "--type", "0,1,0,0")
        run(capsys, "total", "--preset", "R4,1", "--n", "2")
        run(capsys, "nonsense")
        assert cli._build_parser.cache_info().misses == 1
    finally:
        cli._build_parser.cache_clear()


_REUSE_SEQUENCE = [
    ("count", "--preset", "R4,1", "--n", "3", "--type", "0,1,0,0", "--format", "csv"),
    ("count", "--preset", "R4,1", "--n", "3"),
    ("count", "--preset", "R4,1", "--n", "3", "--type", "0,1,0,0"),
    ("ring-info", "--preset", "R5,1", "--format", "csv"),
    ("count", "--preset", "R4,1", "--n", "2", "--type", "0,1,0,1", "--self-dual"),
]


def test_reused_parser_answers_like_fresh_ones(capsys):
    def outputs(fresh):
        got = []
        for argv in _REUSE_SEQUENCE:
            if fresh:
                cli._build_parser.cache_clear()
            got.append(run(capsys, *argv))
        return got

    try:
        fresh = outputs(fresh=True)
        cli._build_parser.cache_clear()
        reused = outputs(fresh=False)
    finally:
        cli._build_parser.cache_clear()
    assert reused == fresh
    assert [rc for rc, _, _ in reused] == [0, 2, 0, 0, 0]
    assert fresh[1][2].startswith("usage: chaincodes count")


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"query": "CR(2^2,1;4,1;1) n=3", "closed_form": "12", "oracle": None, "match": None},
        {"table": 1, "all_match": True, "rows": [{"type": [0, 1], "count": 3}, {"type": (), "x": {}}]},
        [[1, [2.5, [float("nan"), -float("inf")]]], {"é\n\"": "ü\t"}, 10**40, False],
        {1: "int key", "2": {3: [4]}},
    ],
)
def test_json_text_matches_json_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, ensure_ascii=False, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--preset", "R6,2", "--n", "3", "--type", "1,0,0,0,1,0"],
        ["count", "--preset", "R4,1", "--n", "2", "--type", "0,1,0,1", "--self-dual"],
        ["ring-info", "--preset", "R8,2"],
    ],
)
def test_queries_leave_no_cyclic_garbage(argv):
    # a cycle per query makes the cyclic collector run every few dozen
    # queries, and its full passes land inside queries (total_counts still
    # leaves its recursive closures to the collector)
    def query():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0

    query()  # parser and caches
    gc.collect()
    gc.disable()
    try:
        query()
        assert gc.collect() == 0
    finally:
        gc.enable()
