"""Checks that the benchmark's correctness gates catch wrong answers.

    python3 -m pytest -q perfbench/test_gates.py

Each gate is fed a deliberately wrong reference and must report a
mismatch; with the true reference it must report none.  The file also
pins BENCHMARK.json to the metrics the code prints.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import ClosedForm, Gate, LiftResult, LiftWalk, OracleVerify  # noqa: E402


def make(cls, seed=3, **refs):
    pkg, specs, _ = run.set_up(cls)
    return cls(pkg, specs, random.Random(seed), **refs)


def off_by_one(answers):
    out = {}
    for key, value in answers.items():
        if isinstance(value, int):
            out[key] = value + 1
        elif isinstance(value, list):
            out[key] = [v + 1 for v in value]
        else:
            out[key] = value
    return out


@pytest.fixture(scope="module")
def closed_form_runs():
    true_run = run.measure(make(ClosedForm), 1.5, None)
    wrong = make(ClosedForm)
    wrong.snapshot = off_by_one(wrong.snapshot)
    return true_run, run.measure(wrong, 1.5, None)


def test_closed_form_snapshot_gate(closed_form_runs):
    true_run, wrong_run = closed_form_runs
    assert true_run["gate"].checked > 0
    assert true_run["gate"].mismatches == []
    assert any("vs snapshot" in m for m in wrong_run["gate"].mismatches)


def test_closed_form_probes_seed_failures(closed_form_runs):
    true_run, _ = closed_form_runs
    assert true_run["failures"] == [], "the timed stream holds only queries that succeed at the seed"
    wl = make(ClosedForm)
    probe = run.probe_seed_failures(wl, Gate())
    assert probe["attempted"] == len(wl.seed_failures) > 0
    failures = probe["failures"]
    assert {f["error"] for f in failures} == {"ArithmeticError", "ValueError"}
    assert all(f["known_at_seed"] for f in failures)


def test_closed_form_golden_and_total_gates():
    wl = make(ClosedForm)
    gate = Gate()
    golden_key = ("R4,1", 3, (0, 1, 0, 0))
    wl.golden = {golden_key: 49}  # the true count is 48
    op = wl._op("count-so", "R4,1", 3, golden_key[2])
    wl.check(op, wl.execute(op), gate)
    assert any("golden" in m for m in gate.mismatches)

    gate = Gate()
    wl._type_sums[("R4,1", 3)] = (292, 7)  # the true totals are (291, 7)
    op = wl._op("total", "R4,1", 3, None)
    wl.check(op, wl.execute(op), gate)
    assert any("per-type sums" in m for m in gate.mismatches)


def test_oracle_gate_rejects_wrong_golden():
    true_wl = make(OracleVerify)
    golden = {key: value + 1 for key, value in true_wl.golden.items()}
    wrong_wl = make(OracleVerify, golden=golden)
    true_run = run.measure(true_wl, 1.0, None)
    wrong_run = run.measure(wrong_wl, 1.0, None)
    assert true_run["gate"].mismatches == []
    assert any("golden" in m for m in wrong_run["gate"].mismatches)


class TinyLiftWalk(LiftWalk):
    UNITS = (("R4,1", 2),)
    rings = ("R4,1",)


def test_lift_unit_total_gate():
    true_wl = make(TinyLiftWalk)
    true_run = run.measure(true_wl, 0.3, None)
    assert true_wl.units_checked > 0
    assert true_run["gate"].mismatches == []
    wrong_wl = make(TinyLiftWalk, unit_totals={("R4,1", 2): 22})  # the true total is 21
    wrong_run = run.measure(wrong_wl, 0.3, None)
    assert any("vs total_counts" in m for m in wrong_run["gate"].mismatches)


def test_lift_stage_and_round_trip_gates():
    wl = make(TinyLiftWalk)
    op = next(wl.stream(run.Meter(None)))
    result = wl.execute(op)
    gate = Gate()
    wl.check(op, result, gate)
    assert gate.mismatches == []

    bad_yields = [list(y) for y in result.stage_yields]
    bad_yields[0][0] += 1
    gate = Gate()
    wl._open[op.args[0]] = [2, 0]  # keep the unit open: only the per-op gates run
    wl.check(op, LiftResult(result.codes, bad_yields, SimpleNamespace(codes=())), gate)
    assert any("lifts per code" in m for m in gate.mismatches)
    assert any("round trip" in m for m in gate.mismatches)


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wl = make(TinyLiftWalk)
    short = run.measure(wl, 0.2, None)
    e2e = run.end_to_end(short, 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layer = {k: u for k, (_, u) in run.per_layer(tracing.Tracer(), wl.pkg, wl, 1.0).items()}
    layer[run.PROBE_METRIC] = "count"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
