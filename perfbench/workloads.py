"""The three seeded workloads and their correctness gates.

Every workload is a closed loop with a single client.  It turns the run
seed into a stream of operations, executes one operation at a time through
the package's public API, and checks each answer against references that
are computed outside the timed region.

All three are built from rounds.  A round has the same make-up for every
seed; the seed only picks the order and the inputs inside each part of
the round.  That keeps the cost of a run nearly independent of the seed,
so runs with different seeds measure the same thing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SNAPSHOT_PATH = HERE / "snapshot.json"

# The ring of criterion 10: residue field of size 8, which no CLI flag can name.
M3_RING = "CR(2^3,3;3,2;1)+x^3+x+1"


def build_ring(pkg, label: str):
    """Ring for a label: a preset name, a CR(...) spec, or M3_RING."""
    if label == M3_RING:
        return pkg.chain.make_ring(3, 3, 3, 2, modulus=(1, 1, 0, 1))
    if label.startswith("CR("):
        return pkg.chain.parse_ring_spec(label)
    return pkg.chain.preset(label)


def all_types(e: int, n: int) -> List[Tuple[int, ...]]:
    """Every type of depth e with at most n rows, in lexicographic order."""
    out: List[Tuple[int, ...]] = []

    def grow(prefix: List[int], remaining: int) -> None:
        if len(prefix) == e:
            out.append(tuple(prefix))
            return
        for x in range(remaining + 1):
            prefix.append(x)
            grow(prefix, remaining - x)
            prefix.pop()

    grow([], n)
    return out


def type_str(lambdas: Sequence[int]) -> str:
    return ",".join(str(x) for x in lambdas)


def zipf_picker(rng: random.Random, items: Sequence[Any], s: float = 1.0) -> Callable[[], Any]:
    """Draw from items with Zipf weights over a seeded ranking."""
    ranked = list(items)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** s for rank in range(len(ranked))]
    return lambda: rng.choices(ranked, weights)[0]


class Gate:
    """Collects every answer that disagrees with a reference."""

    def __init__(self) -> None:
        self.checked = 0
        self.mismatches: List[str] = []

    def expect(self, what: str, got: Any, want: Any) -> None:
        self.checked += 1
        if got != want:
            self.mismatches.append(f"{what}: got {got!r}, want {want!r}")


@dataclass
class Op:
    key: str
    kind: str
    args: tuple


class CliExit(Exception):
    """The command line returned a nonzero exit status."""

    def __init__(self, code: int, stderr: str) -> None:
        super().__init__(f"exit status {code}: {stderr.strip()[:200]}")
        self.code = code


# ---------------------------------------------------------------------------
# closed_form: count / count --self-dual / total queries through the CLI
# ---------------------------------------------------------------------------


class ClosedForm:
    """A query stream against the closed forms, sent through cli.main.

    One round holds one query per cell: for every CLI-nameable ring and
    every length up to 8 (q = 2) or 6 (q = 4), a count, a self-dual count
    and a total.  The m = 3 ring gets count and total cells answered by
    count_so_type / total_counts directly.  Count cells draw their type
    with Zipf skew from a fixed catalog of at most CATALOG_TYPES types, so
    hot queries repeat; the package's caches live for the whole run.

    Queries that fail at the snapshot's commit are kept out of the timed
    stream, so that every run attempts the same mix of operations whatever
    its length; they are listed in seed_failures and run once, untimed,
    after the stream (see run.probe_seed_failures).
    """

    name = "closed_form"
    item_unit = "types evaluated (computed: 1 per count query, C(n+e, e) per total)"
    CLI_RINGS = (
        "R4,1",
        "R5,1",
        "R6,2",
        "R8,2",
        "CR(2^2,1;5,2;1)",
        "CR(2^3,1;3,3;3)",
        "CR(2^2,2;3,1;1)",
    )
    M3_LENGTHS = (2, 3, 4, 5)
    CATALOG_TYPES = 24
    rings = CLI_RINGS + (M3_RING,)

    def __init__(self, pkg, specs: Dict[str, Any], rng: random.Random,
                 snapshot: Optional[Dict[str, Any]] = None, golden=None) -> None:
        self.pkg = pkg
        self.specs = specs
        self.rng = rng
        self.snapshot = load_snapshot() if snapshot is None else snapshot
        self.golden = golden_rows(pkg) if golden is None else golden
        # reference functions are bound now, before any tracing hook
        self._ref_so = pkg.enumeration.count_so_type
        self._ref_sd = pkg.enumeration.count_sd_type
        self._type_sums: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self.cells = catalog(specs, self.golden)
        self.seed_failures = [op for op in self.catalog_ops() if self._failed_at_seed(op.key)]
        self.stream_cells = []
        for kind, label, n, types in self.cells:
            kept = tuple(
                lam for lam in types or (None,)
                if not self._failed_at_seed(self._op(kind, label, n, lam).key)
            )
            if kept:
                self.stream_cells.append((kind, label, n, kept))

    def _failed_at_seed(self, key: str) -> bool:
        return isinstance(self.snapshot.get(key), dict)

    @staticmethod
    def _op(kind: str, label: str, n: int, lam) -> Op:
        if lam is None:
            return Op(f"{kind}|{label}|n={n}", kind, (label, n, None))
        return Op(f"{kind}|{label}|n={n}|{type_str(lam)}", kind, (label, n, lam))

    def catalog_ops(self) -> Iterator[Op]:
        """Every catalog query, including those that fail at the snapshot's commit."""
        for kind, label, n, types in self.cells:
            for lam in types or (None,):
                yield self._op(kind, label, n, lam)

    def stream(self, meter) -> Iterator[Op]:
        pickers = [zipf_picker(self.rng, types) for _, _, _, types in self.stream_cells]
        order = list(range(len(self.stream_cells)))
        while True:
            self.rng.shuffle(order)
            for i in order:
                kind, label, n, _ = self.stream_cells[i]
                yield self._op(kind, label, n, pickers[i]())

    def execute(self, op: Op) -> Any:
        label, n, lam = op.args
        if op.kind == "api-so":
            return self.pkg.enumeration.count_so_type(self.specs[label], n, lam)
        if op.kind == "api-total":
            return self.pkg.enumeration.total_counts(self.specs[label], n)
        ring = ["--preset", label] if not label.startswith("CR(") else ["--ring", label]
        if op.kind == "total":
            argv = ["total", *ring, "--n", str(n)]
        else:
            argv = ["count", *ring, "--n", str(n), "--type", type_str(lam)]
            if op.kind == "count-sd":
                argv.append("--self-dual")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(argv)
        if code != 0:
            raise CliExit(code, err.getvalue())
        payload = json.loads(out.getvalue())
        if op.kind == "total":
            return int(payload["self_orthogonal"]), int(payload["self_dual"])
        return int(payload["closed_form"])

    def items(self, op: Op, result: Any) -> int:
        label, n, _ = op.args
        if op.kind in ("total", "api-total"):
            return math.comb(n + self.specs[label].e, n)
        return 1

    def check(self, op: Op, result: Any, gate: Gate) -> None:
        label, n, lam = op.args
        if op.key not in self.snapshot:
            gate.expect(f"{op.key} has a snapshot entry", False, True)
        else:
            seed_answer = self.snapshot[op.key]
            if not isinstance(seed_answer, dict):
                want = tuple(seed_answer) if isinstance(seed_answer, list) else seed_answer
                gate.expect(f"{op.key} vs snapshot", result, want)
        if op.kind in ("count-so", "api-so") and (label, n, lam) in self.golden:
            gate.expect(f"{op.key} vs golden table", result, self.golden[(label, n, lam)])
        if op.kind in ("total", "api-total"):
            gate.expect(f"{op.key} vs per-type sums", result, self._sums(label, n))

    def _sums(self, label: str, n: int) -> Tuple[int, int]:
        if (label, n) not in self._type_sums:
            spec = self.specs[label]
            types = all_types(spec.e, n)
            self._type_sums[(label, n)] = (
                sum(self._ref_so(spec, n, lam) for lam in types),
                sum(self._ref_sd(spec, n, lam) for lam in types),
            )
        return self._type_sums[(label, n)]

    def known_failure(self, op: Op, error: str) -> bool:
        seed_answer = self.snapshot.get(op.key)
        return isinstance(seed_answer, dict) and seed_answer.get("error") == error


def catalog(specs: Dict[str, Any], golden) -> List[Tuple[str, str, int, tuple]]:
    """Fixed query cells: (kind, ring label, length, catalog types)."""
    cells = []
    for label in ClosedForm.CLI_RINGS:
        spec = specs[label]
        for n in range(1, (8 if spec.q == 2 else 6) + 1):
            types = catalog_types(spec.e, n, [lam for (g, gn, lam) in golden if (g, gn) == (label, n)])
            cells.append(("count-so", label, n, types))
            cells.append(("count-sd", label, n, types))
            cells.append(("total", label, n, ()))
    spec = specs[M3_RING]
    for n in ClosedForm.M3_LENGTHS:
        cells.append(("api-so", M3_RING, n, catalog_types(spec.e, n, [])))
        cells.append(("api-total", M3_RING, n, ()))
    return cells


def catalog_types(e: int, n: int, pinned: Sequence[Tuple[int, ...]]) -> tuple:
    """At most CATALOG_TYPES types, evenly strided, plus the pinned ones."""
    types = all_types(e, n)
    k = ClosedForm.CATALOG_TYPES
    if len(types) > k:
        types = [types[i * len(types) // k] for i in range(k)]
    return tuple(dict.fromkeys([*types, *pinned]))


def golden_rows(pkg) -> Dict[Tuple[str, int, Tuple[int, ...]], int]:
    """(preset, length, type) -> frozen self-orthogonal count."""
    return {
        (t.preset, t.n, tuple(lam)): count
        for t in pkg.tables.GOLDEN_TABLES.values()
        for lam, count in t.rows
    }


def load_snapshot() -> Dict[str, Any]:
    with open(SNAPSHOT_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["answers"]


# ---------------------------------------------------------------------------
# oracle_verify: exhaustive recounts against the closed forms
# ---------------------------------------------------------------------------


def candidate_count(profile: Sequence[int], n: int, q: int) -> int:
    """Candidate matrices the exhaustive walk visits for a full-depth type.

    Pivot placements times q to the number of free digit slots; block h
    carries scale u^(h-1), so its rows keep e - h + 1 digits per entry.
    """
    e = len(profile)
    free_cols = n - sum(profile)
    slots = 0
    for h, rows in enumerate(profile, start=1):
        prec = e - h + 1
        per_row = free_cols * prec
        for h2 in range(h + 1, e + 1):
            per_row += profile[h2 - 1] * min(prec, h2 - h)
        slots += rows * per_row
    placements = 1
    remaining = n
    for rows in profile:
        placements *= math.comb(remaining, rows)
        remaining -= rows
    return placements * q**slots


def code_size(profile: Sequence[int], q: int) -> int:
    """Codewords in a full-depth code of the given type."""
    e = len(profile)
    return q ** sum(rows * (e - h) for h, rows in enumerate(profile))


class OracleVerify:
    """Exhaustive recounts of single types, checked against the closed forms.

    One round recounts every golden-table row, once as "so" and once as
    "sd", plus DRAWS_PER_STRATUM seeded (type, predicate) draws from each
    (ring, length) stratum below.  Only recounts whose estimated work stays
    under WALK_CAP are admitted: candidate matrices walked plus the
    codewords of the codes found (code_signature hashes every codeword of
    every survivor), with the closed-form count standing in for the number
    of codes found.  All of them sit well inside the default OracleBudget
    (length <= 5, ring <= 2^13), so a round takes a few seconds.
    """

    name = "oracle_verify"
    item_unit = "candidate matrices walked (computed: pivot placements x q^free-digit-slots)"
    WALK_CAP = 1600
    STRATA = (
        ("R4,1", 2), ("R4,1", 3), ("R4,1", 4), ("R5,1", 2), ("R5,1", 3),
        ("R6,2", 1), ("R6,2", 2), ("CR(2^2,2;3,1;1)", 2), ("CR(2^2,1;5,2;1)", 2),
    )
    DRAWS_PER_STRATUM = 1
    rings = ("R4,1", "R5,1", "R6,2", "CR(2^2,2;3,1;1)", "CR(2^2,1;5,2;1)")

    def __init__(self, pkg, specs, rng, golden=None) -> None:
        self.pkg = pkg
        self.specs = specs
        self.rng = rng
        self.golden = golden_rows(pkg) if golden is None else golden
        self._ref = {"so": pkg.enumeration.count_so_type, "sd": pkg.enumeration.count_sd_type}
        self.candidates = 0  # over successful recounts
        self.codes = 0
        self.fixed = [
            (label, n, lam, pred)
            for (label, n, lam) in self.golden
            for pred in ("so", "sd")
            if self._admitted(label, n, lam, pred)
        ]
        self.strata = {
            (label, n): [
                (lam, pred)
                for lam in all_types(specs[label].e, n)
                for pred in ("so", "sd")
                if self._admitted(label, n, lam, pred)
            ]
            for label, n in self.STRATA
        }

    def _admitted(self, label: str, n: int, lam, pred: str) -> bool:
        spec = self.specs[label]
        if sum(lam) > n:
            return False
        found = self._ref[pred](spec, n, lam)
        return candidate_count(lam, n, spec.q) + found * code_size(lam, spec.q) <= self.WALK_CAP

    def stream(self, meter) -> Iterator[Op]:
        while True:
            round_ops = list(self.fixed)
            for (label, n), choices in self.strata.items():
                for lam, pred in self.rng.sample(choices, self.DRAWS_PER_STRATUM):
                    round_ops.append((label, n, lam, pred))
            self.rng.shuffle(round_ops)
            for label, n, lam, pred in round_ops:
                yield Op(f"{pred}|{label}|n={n}|{type_str(lam)}", pred, (label, n, lam))

    def execute(self, op: Op) -> int:
        label, n, lam = op.args
        return self.pkg.oracle.brute_force_code_count(self.specs[label], n, lam, op.kind)

    def items(self, op: Op, result: int) -> int:
        label, n, lam = op.args
        walked = candidate_count(lam, n, self.specs[label].q)
        self.candidates += walked
        self.codes += result
        return walked

    def check(self, op: Op, result: int, gate: Gate) -> None:
        label, n, lam = op.args
        gate.expect(f"{op.key} vs closed form", result, self._ref[op.kind](self.specs[label], n, lam))
        if op.kind == "so" and (label, n, lam) in self.golden:
            gate.expect(f"{op.key} vs golden table", result, self.golden[(label, n, lam)])

    def known_failure(self, op: Op, error: str) -> bool:
        return False


# ---------------------------------------------------------------------------
# lift_walk: every chain lifted stage by stage to full depth
# ---------------------------------------------------------------------------


@dataclass
class LiftResult:
    codes: int
    stage_yields: List[List[int]]
    round_trip: Optional[Any]


class LiftWalk:
    """Stage-by-stage lifting of every valid chain of a set of (ring, length) units.

    One round plans every unit (enumerate_so_chains plus validate_chain for
    each chain head; timed as program work, not as an operation) and then
    lifts every (type, chain) pair of every unit in a seeded order.  An
    operation is one chain lifted through base_lift and every lift_once
    stage, followed by construct_self_orthogonal and extract_chain.
    """

    name = "lift_walk"
    item_unit = "full-depth codes produced"
    UNITS = (
        ("R4,1", 3), ("R4,1", 4), ("R5,1", 3), ("R6,2", 2),
        ("R8,2", 2), ("CR(2^2,2;3,1;1)", 3), ("CR(2^2,1;5,2;1)", 3),
    )
    rings = tuple(dict.fromkeys(label for label, _ in UNITS))

    def __init__(self, pkg, specs, rng, unit_totals=None) -> None:
        self.pkg = pkg
        self.specs = specs
        self.rng = rng
        lifting = pkg.lifting
        self.plans = {label: lifting.stage_plan(specs[label]) for label in self.rings}
        self._formula = lifting.stage_count_formula
        self.unit_totals = unit_totals or {
            (label, n): pkg.enumeration.total_counts(specs[label], n)[0]
            for label, n in self.UNITS
        }
        self._open: Dict[Tuple[int, Tuple[str, int]], List[int]] = {}
        self.units_checked = 0

    def stream(self, meter) -> Iterator[Op]:
        lifting = self.pkg.lifting
        round_no = 0
        while True:
            round_no += 1
            round_ops = []
            for label, n in self.UNITS:
                spec = self.specs[label]
                half = spec.e // 2 + spec.e % 2
                types = all_types(spec.e, n)
                ops = []
                with meter.program("bench.plan"):
                    for head in dict.fromkeys(lam[:half] for lam in types):
                        chains = [
                            c for c in lifting.enumerate_so_chains(spec, n, head)
                            if not lifting.validate_chain(c)
                        ]
                        for lam in types:
                            if lam[:half] == head:
                                ops.extend((lam, c) for c in chains)
                unit = (round_no, (label, n))
                self._open[unit] = [len(ops), 0]
                round_ops.extend(
                    Op(f"lift|{label}|n={n}|{type_str(lam)}|chain", "lift", (unit, lam, c))
                    for lam, c in ops
                )
            self.rng.shuffle(round_ops)
            yield from round_ops

    def execute(self, op: Op) -> LiftResult:
        lifting = self.pkg.lifting
        unit, lam, chain = op.args
        half = len(chain.codes)
        plan = self.plans[unit[1][0]]
        jets = list(lifting.base_lift(chain, lam[half]))
        yields = [[len(jets)]]
        for k in range(1, len(plan)):
            per_code, nxt = [], []
            for jet in jets:
                lifted = list(lifting.lift_once(jet, chain, lam[half + k]))
                per_code.append(len(lifted))
                nxt.extend(lifted)
            yields.append(per_code)
            jets = nxt
        try:
            code = lifting.construct_self_orthogonal(chain, lam)
        except ValueError:
            if jets:
                raise
            return LiftResult(0, yields, None)  # a dead end the walk confirmed
        return LiftResult(len(jets), yields, lifting.extract_chain(code))

    def items(self, op: Op, result: LiftResult) -> int:
        return result.codes

    def check(self, op: Op, result: LiftResult, gate: Gate) -> None:
        unit, lam, chain = op.args
        label, n = unit[1]
        spec = self.specs[label]
        for (level, _tag), got in zip(self.plans[label], result.stage_yields):
            want = self._formula(spec, n, lam, chain.contains_one, level)
            gate.expect(f"{op.key} level {level} lifts per code", set(got) or {want}, {want})
        if result.round_trip is not None:
            gate.expect(f"{op.key} extract_chain round trip", result.round_trip.codes, chain.codes)
        tally = self._open[unit]
        tally[0] -= 1
        tally[1] += result.codes
        if tally[0] == 0:
            del self._open[unit]
            self.units_checked += 1
            gate.expect(f"{label} n={n} codes lifted vs total_counts", tally[1], self.unit_totals[unit[1]])

    def known_failure(self, op: Op, error: str) -> bool:
        return False


WORKLOADS = {w.name: w for w in (ClosedForm, OracleVerify, LiftWalk)}
