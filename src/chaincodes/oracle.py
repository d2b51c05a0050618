"""Exhaustive cross-checks for the closed-form counts.

Everything here recounts from first principles: candidate generator
matrices are enumerated directly, whole codeword sets
(ringcodes.code_signature) settle duplicates, and doubly even means every
single codeword passes, not just a basis.  The searches are deliberately
naive so they can arbitrate the fast paths; budget guards keep them at
desk scale unless explicitly raised.  Setting a recount beside its closed
form (CountReport, compare_count, reproduce_table) is the business of
tables, so nothing here reads the closed forms.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import fieldcodes
from .chain import ChainRingSpec
from .enumeration import _check_length
from .fieldcodes import (
    codewords,
    contains_all_one,
    elementary_symmetric_2,
    enumerate_subspaces,
    vec_dot,
)
from .galois import make_galois_ring
from .ringcodes import (
    RingCode,
    code_signature,
    fill_candidates,
    fill_plan,
    is_self_dual_ring,
    is_self_orthogonal_ring,
    satisfies_deep_orthogonality,
    torsion_code,
    truncate_code,
)

__all__ = [
    "BudgetError",
    "OracleBudget",
    "default_budget",
    "enumerate_codes_of_type",
    "brute_force_code_count",
    "brute_force_lift_count",
    "brute_force_doubly_even_count",
]


class BudgetError(RuntimeError):
    """The requested exhaustive search exceeds the configured budget."""


@dataclass(frozen=True)
class OracleBudget:
    """Ceilings for the exhaustive searches.

    max_candidates bounds the number of candidate matrices one call may
    walk.  max_length and max_ring_bits pin the searches to desk scale;
    setting the CHAINCODES_BUDGET environment variable to a candidate
    count lifts those two and uses that count as the ceiling.
    """

    max_candidates: int = 4_000_000
    max_length: int = 5
    max_ring_bits: int = 13

    @classmethod
    def lifted(cls, max_candidates: int) -> OracleBudget:
        """A candidate ceiling alone, the desk-scale guards lifted."""
        return cls(max_candidates, max_length=10**9, max_ring_bits=10**9)


_DESK_BUDGET = OracleBudget()


def default_budget() -> OracleBudget:
    """The budget CHAINCODES_BUDGET sets, read on every call; unset, the
    desk-scale default, one shared frozen instance."""
    raw = os.environ.get("CHAINCODES_BUDGET")
    if not raw:
        return _DESK_BUDGET
    if not raw.strip().isdecimal():
        raise ValueError(f"CHAINCODES_BUDGET must be a nonnegative integer, got {raw!r}")
    return OracleBudget.lifted(int(raw))


def _check_budget(
    spec: ChainRingSpec, n: int, estimate: int, budget: Optional[OracleBudget]
) -> None:
    budget = budget or default_budget()
    if n > budget.max_length:
        raise BudgetError(
            f"length {n} exceeds the oracle ceiling {budget.max_length}; "
            "set CHAINCODES_BUDGET to raise it"
        )
    ring_bits = spec.size().bit_length() - 1
    if ring_bits > budget.max_ring_bits:
        raise BudgetError(
            f"ring of size 2^{ring_bits} exceeds the oracle ceiling "
            f"2^{budget.max_ring_bits}; set CHAINCODES_BUDGET to raise it"
        )
    if estimate > budget.max_candidates:
        raise BudgetError(
            f"search needs {estimate} candidate matrices, over the ceiling "
            f"{budget.max_candidates}; set CHAINCODES_BUDGET to raise it"
        )


# ---------------------------------------------------------------------------
# direct enumeration of codes of a given type
# ---------------------------------------------------------------------------


def _pivot_placements(
    profile: Sequence[int], n: int
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    def grow(
        idx: int, remaining: Tuple[int, ...], acc: List[Tuple[int, ...]]
    ) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if idx == len(profile):
            yield tuple(acc)
            return
        for piv in itertools.combinations(remaining, profile[idx]):
            rest = tuple(c for c in remaining if c not in piv)
            yield from grow(idx + 1, rest, acc + [piv])

    yield from grow(0, tuple(range(n)), [])


def _type_rows(
    n: int, profile: Sequence[int], level: int, pivots: Tuple[Tuple[int, ...], ...]
) -> List[Tuple[int, int, List[Tuple[int, int]]]]:
    """The written rows of one pivot placement, as fill_plan takes them:
    every digit of a row's precision at the free columns, and below the
    scale gap at the pivots of later blocks.  Every placement of a
    profile leaves the same number of writes."""
    gamma = len(profile) - level
    taken = {c for piv in pivots for c in piv}
    free = [c for c in range(n) if c not in taken]
    out = []
    for h, rows in enumerate(profile, start=1):
        if not rows:
            continue
        prec = level - max(0, h - gamma - 1)
        writes = [(c, mu) for c in free for mu in range(prec)] + [
            (c, mu) for h2 in range(h + 1, len(profile) + 1)
            for c in pivots[h2 - 1] for mu in range(min(prec, h2 - h))
        ]
        out += [(h, r, writes) for r in range(rows)]
    return out


def _walk_size(spec: ChainRingSpec, n: int, profile: Sequence[int], level: int) -> int:
    """The number of matrices _matrix_candidates writes: pivot placements
    times q to the writes of one placement, any one."""
    placements, left = 1, n
    for rows in profile:
        placements *= math.comb(left, rows)
        left -= rows
    cols = iter(range(n))
    some = tuple(tuple(itertools.islice(cols, rows)) for rows in profile)
    writes = sum(len(w) for _, _, w in _type_rows(n, profile, level, some))
    return placements * spec.q ** writes


def _matrix_candidates(
    spec: ChainRingSpec, n: int, profile: Sequence[int], level: int
) -> Iterator[RingCode]:
    """Every standard-form-shaped matrix of the given type, one code each
    up to duplicate pivot placements (callers dedup by codeword set)."""
    for pivots in _pivot_placements(profile, n):
        # every entry zero except a 1 at each row's pivot
        base = [[[int(c == p) for c in range(n)] for p in piv] for piv in pivots]
        plan = fill_plan(spec, level, n, profile, _type_rows(n, profile, level, pivots))
        yield from fill_candidates(plan, pivots, base)


def enumerate_codes_of_type(
    spec: ChainRingSpec,
    n: int,
    profile: Sequence[int],
    predicate: Optional[Callable[[RingCode], bool]] = None,
    budget: Optional[OracleBudget] = None,
) -> Iterator[RingCode]:
    """All distinct codes of the given type, one representative each.

    The predicate, if any, runs before the codeword-set deduplication, so
    cheap filters keep the walk cheap.  Raises BudgetError when the raw
    candidate count exceeds the budget.
    """
    _check_length(n)
    if len(profile) < spec.e:
        raise ValueError(f"profile {tuple(profile)} is shorter than the depth {spec.e}")
    if sum(profile) > n:
        return
    _check_budget(spec, n, _walk_size(spec, n, profile, spec.e), budget)
    seen = set()
    for cand in _matrix_candidates(spec, n, profile, spec.e):
        if predicate is not None and not predicate(cand):
            continue
        sig = code_signature(cand)
        if sig in seen:
            continue
        seen.add(sig)
        yield cand


def brute_force_code_count(
    spec: ChainRingSpec,
    n: int,
    lambdas: Sequence[int],
    predicate: str = "so",
    budget: Optional[OracleBudget] = None,
) -> int:
    """Count codes of the given full-depth type by exhaustive search.

    predicate "so" counts self-orthogonal codes, "sd" self-dual ones.
    """
    if predicate == "so":
        pred = is_self_orthogonal_ring
    elif predicate == "sd":
        pred = is_self_dual_ring
    else:
        raise ValueError(f"unknown predicate {predicate!r}")
    return sum(
        1
        for _ in enumerate_codes_of_type(
            spec, n, lambdas, predicate=pred, budget=budget
        )
    )


# ---------------------------------------------------------------------------
# naive stage-lift recount
# ---------------------------------------------------------------------------


def brute_force_lift_count(
    prev: RingCode,
    chain_codes: Sequence,
    new_count: int,
    budget: Optional[OracleBudget] = None,
) -> int:
    """Recount the lifts of one code with no column-support shortcuts.

    Every carried row keeps prev's digits verbatim and gains its fresh
    digits at EVERY column, the new bottom block runs over all subspaces
    of the free columns, and the defining filters do all the work:
    self-orthogonality, the diagonal conditions, the innermost torsion
    code matching the right chain member (chain_codes, innermost first),
    and truncation reproducing prev.  Surviving matrices with equal
    codeword sets count once.  Because prev's own digits are never touched, the recount
    stays within prev's branch of the tower, so at a full-depth target
    (where distinct lifts always span distinct modules) it must equal the
    number of lifts the fast path yields; the test suite compares the two
    there.  This arbitrates the restricted column supports of the fast
    lift.
    """
    spec = prev.ring
    level = prev.level + 2
    if level > spec.e:
        raise ValueError("already at full depth")
    n = prev.n
    profile = prev.profile + (new_count,)
    gamma = len(profile) - level
    member = chain_codes[gamma]
    rows = []
    for h in range(1, len(prev.profile) + 1):
        prec_prev = prev.precision(h)
        prec_new = level - max(0, h - gamma - 1)
        writes = [(c, mu) for c in range(n) for mu in range(prec_prev, prec_new)]
        rows += [(h, r, writes) for r in range(prev.profile[h - 1])]
    taken = {c for piv in prev.pivots for c in piv}
    free_cols = [c for c in range(n) if c not in taken]
    if new_count > len(free_cols):
        return 0
    bottoms = list(fieldcodes.placed_subspaces(spec.gr, n, free_cols, new_count))
    written = sum(len(writes) for _, _, writes in rows)
    _check_budget(spec, n, len(bottoms) * spec.q ** written, budget)
    prev_sig = code_signature(prev)
    plan = fill_plan(spec, level, n, profile, rows)
    seen = set()
    for bottom_rows, bottom_piv in bottoms:
        pivots = prev.pivots + (bottom_piv,)
        for cand in fill_candidates(plan, pivots, prev.block_rows + (bottom_rows,)):
            if not is_self_orthogonal_ring(cand):
                continue
            if not satisfies_deep_orthogonality(cand):
                continue
            if torsion_code(cand, 1).rows != member.rows:
                continue
            if code_signature(truncate_code(cand, prev.level)) != prev_sig:
                continue
            sig = code_signature(cand)
            if sig in seen:
                continue
            seen.add(sig)
    return len(seen)


# ---------------------------------------------------------------------------
# doubly even recount, one codeword at a time
# ---------------------------------------------------------------------------


def brute_force_doubly_even_count(n: int, d: int, m: int, with_one: bool) -> int:
    """Count doubly even [n, d] codes by checking every codeword.

    Arbitrates the basis-only fast path: here a code qualifies only if
    each individual codeword has vanishing form value and vanishing
    second symmetric function.
    """
    gr = make_galois_ring(1, m)
    count = 0
    for code in enumerate_subspaces(gr, n, d):
        ok = all(
            vec_dot(gr, w, w) == 0 and elementary_symmetric_2(gr, w) == 0
            for w in codewords(code)
        )
        if ok and contains_all_one(code) == with_one:
            count += 1
    return count
