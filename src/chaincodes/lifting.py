"""Building self-orthogonal codes level by level from a field-code chain.

The pipeline starts from a nested chain of self-orthogonal residue-field
codes, lifts it to a code over the level-2 (or level-3) quotient, and then
raises the level two at a time.  At each stage the candidate generator
matrices extend the previous stage's matrix: every carried row gains fresh
digits on a restricted column support, and one new bottom block of rows is
adjoined.  Rows are tested as they are written, for self-orthogonality
plus the deeper diagonal conditions, from a plan cached per pivot
structure; the torsion tower is aligned with the chain by construction.
The bottom block and each step of the chain come from one walk,
fieldcodes.enumerate_subspaces: a subspace of the columns the earlier rows
leave free.  Closed-form stage counts live alongside the search so the two
can be compared case by case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import fieldcodes
from .chain import ChainRingSpec
from .enumeration import _break_crossable, _check_length, _cum, gaussian_binomial
from .fieldcodes import (
    FieldCode,
    contains_all_one,
    is_doubly_even,
    is_self_orthogonal_field,
    is_subcode,
    make_field_code,
    vec_dot,
    zero_code,
)
from .ringcodes import (
    RingCode,
    fill_candidates,
    fill_plan,
    is_self_orthogonal_ring,
    torsion_code,
)

__all__ = [
    "SOChain",
    "validate_chain",
    "chain_matrix",
    "stage_plan",
    "stage_count_formula",
    "stage_obstruction",
    "base_lift",
    "lift_once",
    "construct_self_orthogonal",
    "extract_chain",
    "enumerate_so_chains",
]


# ---------------------------------------------------------------------------
# the chain of residue-field codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SOChain:
    """A nested chain of self-orthogonal codes over the residue field.

    codes[i-1] is the i-th member; a full chain for a ring of depth e has
    e//2 + e%2 members.  Dimensions are read off the codes themselves.
    """

    ring: ChainRingSpec
    n: int
    codes: Tuple[FieldCode, ...]

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(c.dim for c in self.codes)

    @property
    def lambdas(self) -> Tuple[int, ...]:
        """Successive dimension increments (the top-block row counts)."""
        out = []
        prev = 0
        for c in self.codes:
            out.append(c.dim - prev)
            prev = c.dim
        return tuple(out)

    def contains_one(self, i: int) -> bool:
        """Whether the all-one word lies in the i-th member (False for i<=0)."""
        if i <= 0:
            return False
        if i > len(self.codes):
            raise IndexError("chain index out of range")
        return contains_all_one(self.codes[i - 1])


def expected_chain_length(spec: ChainRingSpec) -> int:
    return spec.e // 2 + spec.e % 2


def validate_chain(chain: SOChain) -> List[str]:
    """All violated chain conditions, as human-readable strings.

    An empty list means the chain can feed the construction pipeline.
    """
    spec = chain.ring
    problems: List[str] = []
    want = expected_chain_length(spec)
    if len(chain.codes) != want:
        problems.append(
            f"chain has {len(chain.codes)} members, ring depth needs {want}"
        )
    for idx, c in enumerate(chain.codes, start=1):
        if c.n != chain.n:
            problems.append(f"member {idx} has length {c.n}, expected {chain.n}")
        if c.gr != spec.gr:
            problems.append(f"member {idx} lives over a different residue field")
    for idx in range(len(chain.codes) - 1):
        if not is_subcode(chain.codes[idx], chain.codes[idx + 1]):
            problems.append(f"member {idx + 1} is not contained in member {idx + 2}")
    for idx, c in enumerate(chain.codes, start=1):
        if not is_self_orthogonal_field(c):
            problems.append(f"member {idx} is not self-orthogonal")
    s = spec.e // 2
    theta = spec.e % 2
    kappa1 = (spec.kappa - 1) // 2
    de_idx = s - kappa1
    if 1 <= de_idx <= len(chain.codes):
        if not is_doubly_even(chain.codes[de_idx - 1]):
            problems.append(f"member {de_idx} is not doubly even")
    if 2 * spec.kappa <= spec.e and chain.n % 8 == 4 and spec.gr.m % 2 == 1:
        one_idx = s - spec.kappa + theta
        if 1 <= one_idx <= len(chain.codes) and chain.contains_one(one_idx):
            problems.append(
                f"member {one_idx} contains the all-one word, which blocks the "
                "break-crossing stage for this length and field"
            )
    return problems


def chain_matrix(chain: SOChain) -> List[Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]]:
    """Aligned generator rows per chain member: [(rows, pivot columns)].

    Block i holds rows of the i-th member extending the (i-1)-th: the RREF
    rows of member i whose pivots are new.  Nested RREF pivot sets are
    monotone, so this always yields exactly the dimension increment.
    """
    out = []
    prev_pivots: Tuple[int, ...] = ()
    prev_dim = 0
    for idx, c in enumerate(chain.codes, start=1):
        if not set(prev_pivots) <= set(c.pivots):
            raise RuntimeError(
                f"member {idx - 1} pivots are not among member {idx} pivots"
            )
        new_rows = []
        new_pivs = []
        for row, p in zip(c.rows, c.pivots):
            if p not in prev_pivots:
                new_rows.append(row)
                new_pivs.append(p)
        if len(new_rows) != c.dim - prev_dim:
            raise RuntimeError("chain extension row count mismatch")
        out.append((tuple(new_rows), tuple(new_pivs)))
        prev_pivots = c.pivots
        prev_dim = c.dim
    return out


# ---------------------------------------------------------------------------
# stage schedule
# ---------------------------------------------------------------------------

STAGE_BASE = "base"
STAGE_BELOW_BREAK = "below_break"
STAGE_BREAK_CROSSING = "break_crossing"
STAGE_ABOVE_BREAK = "above_break"
STAGE_DEEP_BREAK = "deep_break"
STAGE_TOP = "top"


def stage_plan(spec: ChainRingSpec) -> List[Tuple[int, str]]:
    """The level schedule: [(level, regime tag)], base stage first.

    Levels step by two and share the parity of the full depth.  Every
    level after the base must fall in exactly one regime; anything else is
    a genuine inconsistency and raises.
    """
    e = spec.e
    kappa = spec.kappa
    theta = e % 2
    base_level = 2 + theta
    plan: List[Tuple[int, str]] = [(base_level, STAGE_BASE)]
    low_break = 2 * kappa <= e
    if not low_break:
        window_hi = kappa - (2 * kappa - e) // 2 + 1
    for lev in range(base_level + 2, e + 1, 2):
        tags = []
        if low_break:
            if 4 <= lev <= kappa:
                tags.append(STAGE_BELOW_BREAK)
            if lev == kappa + 1 + theta:
                tags.append(STAGE_BREAK_CROSSING)
            if kappa + 3 <= lev <= e - kappa + 1:
                tags.append(STAGE_ABOVE_BREAK)
            if e - kappa + 2 <= lev <= e:
                tags.append(STAGE_TOP)
        else:
            if 4 <= lev <= e - kappa + 1 - 2 * theta:
                tags.append(STAGE_BELOW_BREAK)
            if e - kappa + 2 - 2 * theta <= lev <= window_hi:
                tags.append(STAGE_DEEP_BREAK)
            if window_hi < lev <= e:
                tags.append(STAGE_TOP)
        if len(tags) != 1:
            raise RuntimeError(
                f"stage schedule at level {lev} matched {tags or 'nothing'} "
                f"(e={e}, kappa={kappa})"
            )
        plan.append((lev, tags[0]))
    return plan


def stage_obstruction(
    spec: ChainRingSpec, n: int, chain_one: Callable[[int], bool]
) -> Optional[str]:
    """Reason the break-crossing stage admits no lift, if any."""
    if 2 * spec.kappa > spec.e:
        return None
    s = spec.e // 2
    theta = spec.e % 2
    if not chain_one(s - spec.kappa + theta):
        return None
    if _break_crossable(n, spec.gr.m):
        return None
    return (
        "no break-crossing lift: the all-one word sits too deep in the chain "
        f"for length {n} mod 8 = {n % 8} over a field of degree {spec.gr.m}"
    )


# ---------------------------------------------------------------------------
# closed-form stage counts
# ---------------------------------------------------------------------------


def stage_count_formula(
    spec: ChainRingSpec,
    n: int,
    lambdas: Sequence[int],
    chain_one: Callable[[int], bool],
    level: int,
) -> int:
    """Number of lifts produced at one stage, per the closed forms.

    For the base stage this counts codes per chain; for later stages it
    counts lifts per code of the previous stage.  lambdas is the full
    depth-e type; chain_one(i) reports whether the all-one word lies in
    the i-th chain member (False for i <= 0).
    """
    _check_length(n)
    e = spec.e
    if len(lambdas) != e:
        raise ValueError("type tuple must have one entry per depth")
    q = spec.q
    s = e // 2
    theta = e % 2
    kappa = spec.kappa
    kappa1 = (kappa - 1) // 2

    def lam(i: int) -> int:
        return lambdas[i - 1] if 1 <= i <= e else 0

    cum = _cum(lambdas)

    tag = dict(stage_plan(spec))[level]

    if tag == STAGE_BASE:
        if theta == 0:
            exp = (
                sum(lam(i) * cum(i - 2) for i in range(3, s + 2))
                + cum(s) * (n - cum(s + 1))
                - cum(s - 1)
                - cum(s) * (cum(s) - 1) // 2
            )
            top = lam(s + 1)
            return q**exp * gaussian_binomial(
                top + n - cum(s + 1) - cum(s), top, q
            )
        omega3 = 1 if chain_one(s - kappa1 - 1) else 0
        exp = (
            sum(lam(i) * cum(i - 2) for i in range(3, s + 3))
            + sum(lam(j) * cum(j - 3) for j in range(4, s + 3))
            + (cum(s) + cum(s + 1)) * (n - cum(s + 2) - cum(s))
            + cum(s) ** 2
            - cum(s - 1)
            - cum(s - kappa1 - 1)
            + omega3
        )
        top = lam(s + 2)
        return q**exp * gaussian_binomial(top + n - cum(s + 2) - cum(s), top, q)

    gamma = s - level // 2
    bot = gamma + level
    prefix = sum(lam(i) * cum(i - level + 1) for i in range(level, bot + 1)) + sum(
        lam(j) * cum(j - level) for j in range(level + 1, bot + 1)
    )
    load = (cum(bot - 1) + cum(gamma + 1)) * (n - cum(bot) - cum(gamma + 1))
    square = cum(gamma + 1) ** 2 + cum(gamma + 1)
    eps = 0

    if tag == STAGE_BELOW_BREAK:
        fl = level // 2
        omega = 1 if chain_one(gamma + 1 - kappa1 - theta) else 0
        y = load + square - cum(s - 2 * fl + 2) - cum(s - 2 * fl + 1)
        y += -cum(gamma + 1 - kappa1 - theta) + omega
    elif tag == STAGE_BREAK_CROSSING:
        if stage_obstruction(spec, n, chain_one) is not None:
            return 0
        if theta == 0:
            omega = 1 if chain_one(s - kappa + 1) else 0
            y = load + square - cum(s - kappa) - 2 * cum(s - kappa + 1) + omega
            eps = 1 if chain_one(s - kappa) else 0
        else:
            y = load + square - cum(s - kappa + 1) - cum(s - kappa)
            eps = 1 if chain_one(s - kappa + 1) else 0
    elif tag == STAGE_ABOVE_BREAK:
        y = load + square - cum(gamma + 1 - kappa1) - cum(gamma - kappa1)
    elif tag == STAGE_DEEP_BREAK:
        fl = level // 2
        y = load + square - cum(s - 2 * fl + 2) - cum(s - 2 * fl + 1)
    elif tag == STAGE_TOP:
        y = load + square
    else:  # pragma: no cover - stage_plan guarantees coverage
        raise RuntimeError(f"unknown stage tag {tag}")

    top = lam(bot)
    binom = gaussian_binomial(top + n - cum(bot) - cum(gamma + 1), top, q)
    return 2**eps * q ** (prefix + y) * binom


# ---------------------------------------------------------------------------
# stage search
# ---------------------------------------------------------------------------


# reuse: 66,116 hits, 612 misses per 8 s of lift_walk (seed 3); the bound
# sits above the 612 keys a lift_walk round plans and bounds long runs
@lru_cache(maxsize=1024)
def _lift_plan(spec: ChainRingSpec, n: int, level: int, gamma: int, carried: tuple, new_count: int):
    """How every standard-form extension by two levels is written.

    carried[h-1] = (pivot columns, previous precision) for block h.  Each
    carried row keeps its old digits and gains digits up to its new
    precision; a fresh digit at position mu may sit on free columns or on
    pivot columns of blocks more than mu places further down.  Digits at
    a later pivot column can be redundant for the span at this level, but
    they are genuine data of the eventual full-depth code, so they are
    enumerated here and never deduplicated.  The new bottom block runs
    over canonical bases of subspaces of the free columns; bottom blocks
    with equal pivots share one plan.

    Returns (stage tag, [(bottom rows, pivots per block, fill plan with
    the orthogonality test)] per bottom block).
    """
    bot = gamma + level
    if len(carried) != bot - 1:
        raise ValueError("carried block count does not fit the target level")
    existing_pivots: List[Tuple[int, ...]] = [p for p, _ in carried]
    taken = {c for piv in existing_pivots for c in piv}
    free_cols = [c for c in range(n) if c not in taken]
    profile = tuple(len(p) for p in existing_pivots) + (new_count,)
    out, plans = [], {}
    for bottom in fieldcodes.enumerate_subspaces(spec.gr, n, free_cols, new_count):
        bottom_piv = bottom.pivots
        pivots_by_block = existing_pivots + [bottom_piv]
        if bottom_piv not in plans:
            free_rem = [c for c in free_cols if c not in bottom_piv]
            rows = []
            for h in range(1, bot):
                piv, prec_prev = carried[h - 1]
                prec_new = level - max(0, h - gamma - 1)
                writes = []
                for mu in range(prec_prev, prec_new):
                    cols = list(free_rem)
                    for h2 in range(h + mu + 1, bot + 1):
                        cols.extend(pivots_by_block[h2 - 1])
                    writes += [(c, mu) for c in sorted(cols)]
                rows += [(h, r, writes) for r in range(len(piv))]
            plans[bottom_piv] = fill_plan(spec, level, n, profile, rows, test=True)
        out.append((bottom.rows, tuple(pivots_by_block), plans[bottom_piv]))
    return dict(stage_plan(spec))[level], tuple(out)


def _carried(code: RingCode) -> tuple:
    """(pivot columns, precision) per block of code, the carried key of
    _lift_plan: block i (0-based) has precision level - max(0, i - gamma)."""
    gamma = len(code.profile) - code.level
    return tuple((piv, code.level - max(0, i - gamma)) for i, piv in enumerate(code.pivots))


def _require_valid(chain: SOChain) -> None:
    problems = validate_chain(chain)
    if problems:
        raise ValueError("invalid chain: " + "; ".join(problems))


def base_lift(chain: SOChain, new_count: int) -> Iterator[RingCode]:
    """All valid codes at the lowest level, aligned with the chain.

    new_count is the row count of the first block beyond the chain (the
    bottom block of the base-level type).
    """
    _require_valid(chain)
    yield from _base_lift(chain, new_count)


def _base_lift(chain: SOChain, new_count: int) -> Iterator[RingCode]:
    """base_lift on a chain already validated."""
    spec = chain.ring
    level = 2 + spec.e % 2
    mat = chain_matrix(chain)
    templates = [rows for rows, _ in mat]
    carried = tuple((piv, 1) for _, piv in mat)
    _, bottoms = _lift_plan(spec, chain.n, level, spec.e // 2 - 1, carried, new_count)
    for rows, pivots, plan in bottoms:
        yield from fill_candidates(plan, pivots, templates + [rows])


def lift_once(prev: RingCode, chain: SOChain, new_count: int) -> Iterator[RingCode]:
    """All one-stage lifts of a code from level l-2 to level l.

    Candidates extend the previous standard form, so the torsion tower
    shifts up by one and stays aligned with the chain.  In the obstructed
    break-crossing case the iterator is empty; stage_obstruction gives
    the reason.
    """
    spec = prev.ring
    level = prev.level + 2
    if level > spec.e:
        raise ValueError("already at full depth")
    gamma = prev.gamma - 1
    if gamma != spec.e // 2 - level // 2:
        raise ValueError("previous code does not carry a full-depth profile")
    tag, bottoms = _lift_plan(spec, prev.n, level, gamma, _carried(prev), new_count)
    if tag == STAGE_BREAK_CROSSING:
        if stage_obstruction(spec, prev.n, chain.contains_one) is not None:
            return
    for rows, pivots, plan in bottoms:
        yield from fill_candidates(plan, pivots, prev.block_rows + (rows,))


def construct_self_orthogonal(chain: SOChain, lambdas: Sequence[int]) -> RingCode:
    """First self-orthogonal code of the given type lifting the chain.

    lambdas is the full depth-e type; its head must match the chain's
    dimension increments.  Raises if the chain is invalid, the type is
    inconsistent, or no code of the type lifts the chain.  A valid chain
    never meets the crossing obstruction (stage_obstruction): an all-one
    word that deep lies in the doubly even member, so n = 0 (mod 4), and
    validate_chain refuses n = 4 (mod 8) over a field of odd degree.
    """
    spec = chain.ring
    _require_valid(chain)
    if len(lambdas) != spec.e:
        raise ValueError("type tuple must have one entry per depth")
    head = chain.lambdas
    if tuple(lambdas[: len(head)]) != head:
        raise ValueError("type head does not match the chain dimensions")
    plan = stage_plan(spec)
    theta = spec.e % 2
    s = spec.e // 2

    def new_count_at(level: int) -> int:
        return lambdas[s - level // 2 + level - 1]

    def descend(code: Optional[RingCode], idx: int) -> Optional[RingCode]:
        if idx == len(plan):
            return code
        level, _ = plan[idx]
        if code is None:
            source = _base_lift(chain, new_count_at(level))
        else:
            source = lift_once(code, chain, new_count_at(level))
        for cand in source:
            result = descend(cand, idx + 1)
            if result is not None:
                return result
        return None

    result = descend(None, 0)
    if result is None:
        raise ValueError("no code of this type lifts the chain")
    return result


def extract_chain(code: RingCode) -> SOChain:
    """The torsion-code chain of a self-orthogonal full-depth code."""
    spec = code.ring
    if code.level != spec.e:
        raise ValueError("chain extraction needs a full-depth code")
    if not is_self_orthogonal_ring(code):
        raise ValueError("chain extraction needs a self-orthogonal code")
    want = expected_chain_length(spec)
    codes = tuple(torsion_code(code, i) for i in range(1, want + 1))
    return SOChain(ring=spec, n=code.n, codes=codes)


def enumerate_so_chains(
    spec: ChainRingSpec, n: int, lambdas_head: Sequence[int]
) -> Iterator[SOChain]:
    """All nested self-orthogonal chains with the given dimension steps.

    Yields every chain whose i-th member has dimension lambda_1+...+lambda_i;
    validity beyond nesting and self-orthogonality (doubly even member,
    all-one conditions) is NOT filtered here - callers decide.  Member i
    is member i-1 plus a subspace of its non-pivot columns whose rows are
    orthogonal to each other and to the member's rows.
    """
    want = expected_chain_length(spec)
    if len(lambdas_head) != want:
        raise ValueError("need one dimension step per chain member")
    gr = spec.gr

    def grow(prefix: List[FieldCode], idx: int) -> Iterator[SOChain]:
        if idx == want:
            yield SOChain(ring=spec, n=n, codes=tuple(prefix))
            return
        prev = prefix[-1] if prefix else zero_code(gr, n)
        free = [c for c in range(n) if c not in prev.pivots]
        for sub in fieldcodes.enumerate_subspaces(gr, n, free, lambdas_head[idx]):
            rows = sub.rows
            if not any(vec_dot(gr, a, b) for i, a in enumerate(rows) for b in rows[i:] + prev.rows):
                yield from grow(prefix + [make_field_code(gr, n, prev.rows + rows)], idx + 1)

    yield from grow([], 0)
