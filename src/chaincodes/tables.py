"""Frozen reference counts of self-orthogonal codes at desk scale, and the
one comparison of a closed form against its exhaustive recount.

Each table fixes one preset ring and one length and lists the number of
self-orthogonal codes per type.  The values are pinned here so the closed
forms and the exhaustive search can both be checked against them; they
were cross-verified by exhaustive enumeration at these parameters.
compare_count sets one closed-form count (enumeration) beside the oracle's
recount in a CountReport; the CLI's count --oracle, oracle-compare, table
and verify, and reproduce_table here, all go through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import enumeration, oracle
from .chain import ChainRingSpec, preset

__all__ = ["GoldenTable", "GOLDEN_TABLES", "CountReport", "compare_count", "reproduce_table"]


@dataclass(frozen=True)
class GoldenTable:
    index: int
    preset: str
    n: int
    rows: Tuple[Tuple[Tuple[int, ...], int], ...]


GOLDEN_TABLES: Dict[int, GoldenTable] = {
    1: GoldenTable(
        index=1,
        preset="R4,1",
        n=3,
        rows=(
            ((0, 0, 0, 1), 7),
            ((0, 0, 0, 2), 7),
            ((0, 0, 0, 3), 1),
            ((0, 0, 1, 0), 28),
            ((0, 0, 1, 1), 42),
            ((0, 0, 1, 2), 7),
            ((0, 0, 2, 0), 28),
            ((0, 0, 2, 1), 7),
            ((0, 0, 3, 0), 1),
            ((0, 1, 0, 0), 48),
            ((0, 1, 0, 1), 72),
            ((0, 1, 0, 2), 12),
            ((0, 1, 1, 0), 24),
            ((0, 1, 1, 1), 6),
            ((1, 0, 0, 0), 0),
            ((1, 0, 0, 1), 0),
            ((1, 0, 1, 0), 0),
        ),
    ),
    2: GoldenTable(
        index=2,
        preset="R5,1",
        n=3,
        rows=(
            ((0, 0, 0, 0, 1), 7),
            ((0, 0, 0, 0, 2), 7),
            ((0, 0, 0, 0, 3), 1),
            ((0, 0, 0, 1, 0), 28),
            ((0, 0, 0, 1, 1), 42),
            ((0, 0, 0, 1, 2), 7),
            ((0, 0, 0, 2, 0), 28),
            ((0, 0, 0, 2, 1), 7),
            ((0, 0, 0, 3, 0), 1),
            ((0, 0, 1, 0, 0), 48),
            ((0, 0, 1, 0, 1), 72),
            ((0, 0, 1, 0, 2), 12),
            ((0, 0, 1, 1, 0), 72),
            ((0, 0, 1, 1, 1), 18),
            ((0, 0, 1, 2, 0), 3),
            ((0, 1, 0, 0, 0), 96),
            ((0, 1, 0, 0, 1), 144),
            ((0, 1, 0, 0, 2), 24),
            ((0, 1, 0, 1, 0), 48),
            ((0, 1, 0, 1, 1), 12),
            ((1, 0, 0, 0, 0), 0),
            ((1, 0, 0, 0, 1), 0),
            ((1, 0, 0, 1, 0), 0),
        ),
    ),
    3: GoldenTable(
        index=3,
        preset="R6,2",
        n=2,
        rows=(
            ((0, 0, 0, 0, 0, 1), 5),
            ((0, 0, 0, 0, 0, 2), 1),
            ((0, 0, 0, 0, 1, 0), 20),
            ((0, 0, 0, 0, 1, 1), 5),
            ((0, 0, 0, 0, 2, 0), 1),
            ((0, 0, 0, 1, 0, 0), 80),
            ((0, 0, 0, 1, 0, 1), 20),
            ((0, 0, 0, 1, 1, 0), 5),
            ((0, 0, 0, 2, 0, 0), 1),
            ((0, 0, 1, 0, 0, 0), 64),
            ((0, 0, 1, 0, 0, 1), 16),
            ((0, 0, 1, 0, 1, 0), 4),
            ((0, 1, 0, 0, 0, 0), 0),
            ((0, 1, 0, 0, 0, 1), 0),
            ((1, 0, 0, 0, 0, 0), 0),
        ),
    ),
    4: GoldenTable(
        index=4,
        preset="R4,1",
        n=4,
        rows=(
            ((0, 0, 0, 1), 15),
            ((0, 0, 0, 2), 35),
            ((0, 0, 0, 3), 15),
            ((0, 0, 0, 4), 1),
            ((0, 0, 1, 0), 120),
            ((0, 0, 1, 1), 420),
            ((0, 0, 1, 2), 210),
            ((0, 0, 1, 3), 15),
            ((0, 0, 2, 0), 560),
            ((0, 0, 2, 1), 420),
            ((0, 0, 2, 2), 35),
            ((0, 0, 3, 0), 120),
            ((0, 0, 3, 1), 15),
            ((0, 0, 4, 0), 1),
            ((0, 1, 0, 0), 448),
            ((0, 1, 0, 1), 1568),
            ((0, 1, 0, 2), 784),
            ((0, 1, 0, 3), 56),
            ((0, 1, 1, 0), 1344),
            ((0, 1, 1, 1), 1008),
            ((0, 1, 1, 2), 84),
            ((0, 1, 2, 0), 112),
            ((0, 1, 2, 1), 14),
            ((0, 2, 0, 0), 384),
            ((0, 2, 0, 1), 288),
            ((0, 2, 0, 2), 24),
            ((1, 0, 0, 0), 256),
            ((1, 0, 0, 1), 384),
            ((1, 0, 0, 2), 64),
            ((1, 0, 1, 0), 384),
            ((1, 0, 1, 1), 96),
            ((1, 0, 2, 0), 16),
            ((1, 1, 0, 0), 384),
            ((1, 1, 0, 1), 96),
            ((2, 0, 0, 0), 0),
        ),
    ),
}


@dataclass(frozen=True)
class CountReport:
    query: str
    closed_form: int
    brute_force: Optional[int]
    elapsed: float
    match: Optional[bool]


def compare_count(
    query: str,
    spec: ChainRingSpec,
    n: int,
    lambdas: Sequence[int],
    kind: str = "so",
    recount: bool = True,
    cap: Optional[int] = None,
    budget: Optional[oracle.OracleBudget] = None,
    strict: bool = True,
) -> CountReport:
    """The closed-form count of one type, beside its exhaustive recount.

    kind "so" counts self-orthogonal codes, "sd" self-dual ones.  The
    recount runs when recount is set and the closed form is at most cap
    (if given).  A BudgetError from the recount propagates when strict is
    set and otherwise leaves brute_force None; errors of the closed form
    always propagate.  The counters are looked up through their modules
    at every call, so a counter rebound there is the one that runs.
    """
    started = time.monotonic()
    counter = enumeration.count_sd_type if kind == "sd" else enumeration.count_so_type
    closed = counter(spec, n, lambdas)
    brute: Optional[int] = None
    if recount and (cap is None or closed <= cap):
        try:
            brute = oracle.brute_force_code_count(spec, n, lambdas, kind, budget=budget)
        except oracle.BudgetError:
            if strict:
                raise
    match = None if brute is None else brute == closed
    return CountReport(query, closed, brute, time.monotonic() - started, match)


def reproduce_table(
    index: int,
    with_oracle: bool = True,
    max_oracle_count: Optional[int] = None,
    budget: Optional[oracle.OracleBudget] = None,
) -> List[CountReport]:
    """Recompute one frozen reference table row by row.

    Each report carries the closed-form value and, when the oracle ran,
    the exhaustive recount plus whether the two agree.  Rows whose
    closed-form value exceeds max_oracle_count, or whose recount the
    budget refuses, skip the oracle.
    """
    table = GOLDEN_TABLES[index]
    spec = preset(table.preset)
    return [
        compare_count(
            f"{table.preset} n={table.n} type={','.join(map(str, lambdas))}", spec, table.n,
            lambdas, recount=with_oracle, cap=max_oracle_count, budget=budget, strict=False,
        )
        for lambdas, _expected in table.rows
    ]
