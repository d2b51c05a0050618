"""Linear codes over finite chain rings, in block standard form.

A code of length n over the level-l quotient of a chain ring is stored as a
list of row blocks.  Block h holds rows that enter the generator matrix with
scale u^p(h); each row itself is kept unscaled, as a canonical representative
truncated to its working precision l - p(h).  Column permutations are never
applied: rows stay in the original coordinates and the pivot columns are
recorded per block instead.

The profile attached to a code may be finer than what its level requires.  A
code produced by truncating or lifting a full-depth code remembers the
original block split (one block per full-depth scale), which is what the
structured orthogonality test below needs.  A code built directly from
generators at level l gets the coarse split (gamma = 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .chain import (
    CRElem,
    ChainRingSpec,
    cr_add,
    cr_inv,
    cr_mul,
    cr_neg,
    cr_sub,
    cr_u_pow,
    cr_zero,
    from_u_adic,
    lane_masks,
    level_mask,
    pi0,
    truncate_elem,
    u_valuation,
)
from .fieldcodes import FieldCode, make_field_code, zero_code

RVec = Tuple[CRElem, ...]


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------


def rv_scale(spec: ChainRingSpec, c: CRElem, v: RVec) -> RVec:
    mul = spec.ops.mul
    return tuple(mul(c, x) for x in v)


def rv_truncate(spec: ChainRingSpec, v: RVec, level: int) -> RVec:
    keep = truncate_elem(spec, -1, level)  # the digits below level, all set
    return tuple(x & keep for x in v)


def rv_residue(spec: ChainRingSpec, v: RVec) -> Tuple[int, ...]:
    """Residue-field image of a vector, entrywise (field bitmasks)."""
    return tuple(pi0(spec, x) for x in v)


# ---------------------------------------------------------------------------
# the code container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingCode:
    """A linear code in block standard form over a chain-ring quotient.

    profile[h-1] is the number of rows in block h (h = 1-based).  The number
    of blocks is gamma + level where gamma >= 0 measures how much finer the
    split is than the level needs; blocks 1..gamma+1 all carry scale u^0.
    """

    ring: ChainRingSpec
    level: int
    n: int
    profile: Tuple[int, ...]
    block_rows: Tuple[Tuple[RVec, ...], ...]
    pivots: Tuple[Tuple[int, ...], ...]

    @property
    def gamma(self) -> int:
        return len(self.profile) - self.level

    def u_power(self, h: int) -> int:
        """Scale exponent of block h (1-based)."""
        return max(0, h - self.gamma - 1)

    def precision(self, h: int) -> int:
        """Number of meaningful digits in the rows of block h."""
        return self.level - self.u_power(h)

    @property
    def level_type(self) -> Tuple[int, ...]:
        """Row counts per scale u^0..u^(level-1) (the coarse type)."""
        g = self.gamma
        head = sum(self.profile[: g + 1])
        return (head,) + self.profile[g + 1 :]

    def size(self) -> int:
        total = 1
        q = self.ring.q
        for h, lam in enumerate(self.profile, start=1):
            total *= (q ** self.precision(h)) ** lam
        return total

    def rows_with_powers(self) -> Iterator[Tuple[RVec, int]]:
        """All (unscaled row, scale exponent) pairs, top block first."""
        gamma = self.gamma
        for h, rows in enumerate(self.block_rows, start=1):
            p = max(0, h - gamma - 1)  # u_power(h)
            for w in rows:
                yield w, p

    def dual_level_type(self) -> Tuple[int, ...]:
        """Coarse type of the annihilator dual, by the reversal rule."""
        return _reversal(self.n, self.level_type)


def _reversal(n: int, level_type: Tuple[int, ...]) -> Tuple[int, ...]:
    """The coarse dual type of a length-n code of the given coarse type."""
    return (n - sum(level_type),) + tuple(reversed(level_type[1:]))


# ---------------------------------------------------------------------------
# candidate generator matrices
# ---------------------------------------------------------------------------

# (block h, row r, column c, digit position mu), h 1-based
Slot = Tuple[int, int, int, int]


class FillPlan(NamedTuple):
    """The shape of the codes written (spec, level, n, profile).  rows: (h,
    r, (column, bit shift) per slot) per written row, in slot order.  test:
    None or (pairs, masks), pairs = (h1, r1, h2, r2, mask) over the
    unwritten rows and masks[k] = (self mask, (h, r, mask) per unwritten
    row, (j, mask) per earlier written row j) for written row k.  A dot
    product passes a mask when it has no digit under it.
    """

    spec: ChainRingSpec
    level: int
    n: int
    profile: Tuple[int, ...]
    rows: Tuple[Tuple[int, int, Tuple[Tuple[int, int], ...]], ...]
    test: Optional[tuple]


def fill_plan(
    spec: ChainRingSpec, level: int, n: int, profile: Sequence[int], slots: Sequence[Slot],
    test: bool = False,
) -> FillPlan:
    """The plan fill_candidates follows; the slots of a row must be contiguous.

    With test set, fill_candidates yields only the codes that pass
    is_self_orthogonal_ring and satisfies_deep_orthogonality: rows at
    scales u^pa, u^pb need level - pa - pb zero digits in their dot
    product, and a top-block row the deep_masks of its block.
    """
    rows: List[Tuple[int, int, list]] = []
    profile = tuple(profile)
    for h, r, c, mu in slots:
        if not rows or rows[-1][:2] != (h, r):
            if any(row[:2] == (h, r) for row in rows):
                raise ValueError("the slots of one row must be contiguous")
            rows.append((h, r, []))
        rows[-1][2].append((c, spec.m * mu))
    plan = FillPlan(spec, level, n, profile, tuple((h, r, tuple(w)) for h, r, w in rows), None)
    if not test:
        return plan
    gamma = len(profile) - level
    deep = deep_masks(spec, level, gamma)

    def mask(a: Tuple[int, int], b: Tuple[int, int]) -> int:
        pa, pb = max(0, a[0] - gamma - 1), max(0, b[0] - gamma - 1)
        own = deep[a[0] - 1] if a == b and a[0] <= len(deep) else 0
        return truncate_elem(spec, -1, max(0, level - pa - pb)) | own  # digits below the need

    written = [row[:2] for row in rows]
    every = [(h, r) for h, size in enumerate(profile, start=1) for r in range(size)]
    fixed = [a for a in every if a not in written]
    pairs = [a + b + (mask(a, b),) for i, a in enumerate(fixed) for b in fixed[i:]]
    masks = [
        (
            mask(a, a),
            tuple(b + (mask(a, b),) for b in fixed if mask(a, b)),
            tuple((j, mask(a, b)) for j, b in enumerate(written[:k]) if mask(a, b)),
        )
        for k, a in enumerate(written)
    ]
    return plan._replace(test=(tuple(p for p in pairs if p[4]), tuple(masks)))


def _row_variants(base: RVec, writes: Sequence[Tuple[int, int]], q: int) -> Iterator[RVec]:
    """base with every residue digit at each write, the last write fastest."""
    for assignment in itertools.product(range(q), repeat=len(writes)):
        row = list(base)
        for (c, shift), val in zip(writes, assignment):
            row[c] |= val << shift
        yield tuple(row)


def fill_candidates(
    plan: FillPlan,
    pivots: Tuple[Tuple[int, ...], ...],
    templates: Sequence[Sequence[RVec]],
    tail: Optional[Tuple[RVec, ...]] = None,
) -> Iterator[RingCode]:
    """Every code of the plan's shape obtained by writing residue digits
    into the plan's slots.

    templates[h-1][r][c] is entry c of row r of block h, and must have a
    zero digit at each of its row's slots: a write ORs its digit in.  Each
    slot takes every residue digit in turn, the last slot varying fastest
    (the order of itertools.product over the slots); the other digits stay
    as the template has them.  tail, if given, is appended unchanged as a
    final block.  The written rows are chosen in nested loops.  With the
    plan's test, a row keeps the variants that pass its own and the
    unwritten rows' masks, and each choice is checked against the rows
    chosen before it, so the survivors come out in stream order.
    """
    spec, level, n, profile, _, test = plan
    blocks = [[tuple(row) for row in block] for block in templates]
    if tail is not None:
        blocks.append(list(tail))
    dot, q = spec.ops.dot, spec.q
    bases = [blocks[h - 1][r] for h, r, _ in plan.rows]  # read before any write
    if test is not None:
        pairs, masks = test
        if any(dot(blocks[a - 1][i], blocks[b - 1][j]) & mk for a, i, b, j, mk in pairs):
            return
        options = [
            [
                v
                for v in _row_variants(base, row[2], q)
                if not dot(v, v) & own
                and not any(dot(v, blocks[h - 1][r]) & mk for h, r, mk in fixed)
            ]
            for base, row, (own, fixed, _) in zip(bases, plan.rows, masks)
        ]
        if not all(options):
            return
    chosen: List[RVec] = [()] * len(plan.rows)
    last = len(plan.rows) - 1

    def make() -> RingCode:
        return RingCode(spec, level, n, profile, tuple(map(tuple, blocks)), pivots)

    def walk(k: int) -> Iterator[RingCode]:
        h, r, writes = plan.rows[k]
        if test is None:
            rows, earlier = _row_variants(bases[k], writes, q), ()
        else:
            rows, earlier = options[k], masks[k][2]
        for v in rows:
            if not earlier or not any(dot(v, chosen[j]) & mk for j, mk in earlier):
                blocks[h - 1][r] = chosen[k] = v
                if k == last:
                    yield make()
                else:
                    yield from walk(k + 1)

    yield from walk(0) if plan.rows else iter((make(),))


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------


def standard_form(
    spec: ChainRingSpec,
    level: int,
    n: int,
    generators: Sequence[RVec],
) -> Tuple[Tuple[int, ...], RingCode]:
    """Reduce generators to block standard form.

    Returns (perm, code) where perm lists the columns in standard-form
    order (pivot columns block by block, then free columns); the code's
    rows stay in the original coordinates.

    One forward sweep with full cross-elimination is enough: clearing all
    digits at and above the pivot scale in every other row leaves exactly
    the reduced entries the standard form prescribes (zero at pivots of
    the same or earlier blocks, reduced modulo the scale gap at pivots of
    later blocks).
    """
    if not 1 <= level <= spec.e:
        raise ValueError("level out of range")
    work: List[List[CRElem]] = [
        [truncate_elem(spec, x, level) for x in g] for g in generators
    ]
    for g in work:
        if len(g) != n:
            raise ValueError("generator length mismatch")
    # placed pivots: (scale v, column c, index into work)
    placed: List[Tuple[int, int, int]] = []
    used_cols: set = set()
    used_rows: set = set()
    for v in range(level):
        while True:
            found = None
            for c in range(n):
                if c in used_cols:
                    continue
                for ri, row in enumerate(work):
                    if ri in used_rows:
                        continue
                    if u_valuation(spec, row[c]) == v:
                        found = (ri, c)
                        break
                if found:
                    break
            if not found:
                break
            ri, c = found
            row = work[ri]
            # normalize: row[c] = u^v * unit, divide the row by the unit
            inv = cr_inv(spec, row[c] >> (spec.m * v))
            work[ri] = [
                truncate_elem(spec, cr_mul(spec, inv, x), level) for x in row
            ]
            row = work[ri]
            # clear digits >= v of column c in every other row
            for rj, other in enumerate(work):
                if rj == ri:
                    continue
                q = other[c] >> (spec.m * v)  # digits >= v, shifted down
                if q == cr_zero(spec):
                    continue
                work[rj] = [
                    truncate_elem(spec, cr_sub(spec, y, cr_mul(spec, q, x)), level)
                    for y, x in zip(other, row)
                ]
            placed.append((v, c, ri))
            used_cols.add(c)
            used_rows.add(ri)
    # leftover rows must be zero
    zero = cr_zero(spec)
    for ri, row in enumerate(work):
        if ri in used_rows:
            continue
        if any(x != zero for x in row):
            raise RuntimeError("elimination left a nonzero row unplaced")
    placed.sort(key=lambda t: (t[0], t[1]))
    profile = [0] * level
    blocks: List[List[RVec]] = [[] for _ in range(level)]
    pivots: List[List[int]] = [[] for _ in range(level)]
    for v, c, ri in placed:
        blocks[v].append(tuple(x >> (spec.m * v) for x in work[ri]))
        pivots[v].append(c)
        profile[v] += 1
    perm = [c for _, c, _ in placed] + [
        c for c in range(n) if c not in used_cols
    ]
    code = RingCode(
        ring=spec,
        level=level,
        n=n,
        profile=tuple(profile),
        block_rows=tuple(tuple(b) for b in blocks),
        pivots=tuple(tuple(p) for p in pivots),
    )
    return tuple(perm), code


def make_code(
    spec: ChainRingSpec, level: int, n: int, generators: Sequence[RVec]
) -> RingCode:
    """Canonical code spanned by the given rows at the given level."""
    _, code = standard_form(spec, level, n, generators)
    return code


def scaled_generators(code: RingCode) -> List[RVec]:
    """Generator rows with their u-power scales applied."""
    spec = code.ring
    out = []
    for w, p in code.rows_with_powers():
        out.append(rv_truncate(spec, rv_scale(spec, cr_u_pow(spec, p), w), code.level))
    return out


def canonical_key(code: RingCode):
    """Level-granular canonical form, for equality across profile splits."""
    _, coarse = standard_form(code.ring, code.level, code.n, scaled_generators(code))
    return (coarse.level, coarse.n, coarse.profile, coarse.block_rows)


def codes_equal(a: RingCode, b: RingCode) -> bool:
    if (a.ring, a.level, a.n) != (b.ring, b.level, b.n):
        return False
    if a.profile == b.profile and a.gamma == b.gamma:
        return (a.block_rows, a.pivots) == (b.block_rows, b.pivots) or (
            canonical_key(a) == canonical_key(b)
        )
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# codewords, torsion, truncation
# ---------------------------------------------------------------------------


def code_signature(code: RingCode) -> frozenset:
    """The codeword set itself; the bluntest possible equality witness.

    A codeword is one int of n lanes of m*e bits, lane i holding the packed
    additive coordinates (spec.ops.coords) of entry i, so two words add by
    one lane-masked SWAR add (chain.lane_masks).  The multiples of a row w
    at scale u^p are the sums of u^j T(d_j) w over p <= j < level, so the
    set is the sumset of the q-element sets {u^j T(d) w : d in F_q}: a
    digitwise field scale (spec.ops.scale) and a digit shift per entry, no
    ring product.  Below full depth the sums carry into digits at and above
    the level, so each lane keeps only the coordinate bits of the digits
    below the level (chain.level_mask), one representative per coset.
    """
    spec, level, n = code.ring, code.level, code.n
    ops = spec.ops
    coords, m = ops.coords, spec.m
    width = m * spec.e
    full = (1 << width) - 1
    low, high = lane_masks(spec, n)

    def pack(v: Sequence[CRElem], shift: int = 0) -> int:
        """The word u^(shift/m) v, packed."""
        out = 0
        for x in reversed(v):
            out = (out << width) | coords((x << shift) & full)
        return out

    words = {0}
    for w, p in code.rows_with_powers():
        scaled = [w] + [tuple(map(times, w)) for times in ops.scale[2:]]
        for shift in range(m * p, m * level, m):
            gens = [pack(v, shift) for v in scaled]
            if not gens[0]:  # u^j w = 0, and so are its later shifts
                break
            words = {
                ((x & low) + (g & low)) ^ ((x ^ g) & high) for x in words for g in gens
            } | words
    if level < spec.e:
        keep = sum(level_mask(spec, level) << (width * i) for i in range(n))
        words = {wd & keep for wd in words}
    return frozenset(words)


def enumerate_codewords(code: RingCode) -> Iterator[RVec]:
    """All codewords, as vectors over the level-l quotient: code_signature
    decoded, each entry truncated to the level."""
    spec, n = code.ring, code.n
    digits, width = spec.ops.digits, spec.m * spec.e
    lane, keep = (1 << width) - 1, truncate_elem(spec, -1, code.level)
    for word in code_signature(code):
        yield tuple(digits((word >> (width * i)) & lane) & keep for i in range(n))


def torsion_code(code: RingCode, i: int) -> FieldCode:
    """The i-th torsion code over the residue field (i = 1..level).

    Spanned by the residues of the rows whose scale exponent is < i.
    """
    if not 1 <= i <= code.level:
        raise ValueError("torsion index out of range")
    spec = code.ring
    rows = []
    for h, block in enumerate(code.block_rows, start=1):
        if code.u_power(h) < i:
            rows.extend(rv_residue(spec, w) for w in block)
    if not rows:
        return zero_code(spec.gr, code.n)
    return make_field_code(spec.gr, code.n, rows)


def truncate_code(code: RingCode, target_level: int) -> RingCode:
    """Push a code down to a lower level of the same parity.

    Keeps the blocks whose scale stays below the target level, truncates
    each surviving row to its new precision, and remembers the finer block
    split so the structured orthogonality test still applies.
    """
    lev = code.level
    if target_level == lev:
        return code
    if not 1 <= target_level < lev:
        raise ValueError("target level out of range")
    if (lev - target_level) % 2 != 0:
        raise ValueError("truncation changes level by even steps only")
    spec = code.ring
    new_gamma = code.gamma + (lev - target_level) // 2
    nblocks = new_gamma + target_level
    if nblocks > len(code.profile):
        raise ValueError("profile too coarse for this truncation")
    blocks: List[Tuple[RVec, ...]] = []
    for h in range(1, nblocks + 1):
        p = max(0, h - new_gamma - 1)
        prec = target_level - p
        blocks.append(
            tuple(
                rv_truncate(spec, w, prec) for w in code.block_rows[h - 1]
            )
        )
    return RingCode(
        ring=spec,
        level=target_level,
        n=code.n,
        profile=code.profile[:nblocks],
        block_rows=tuple(blocks),
        pivots=code.pivots[:nblocks],
    )


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------


def is_self_orthogonal_ring(code: RingCode) -> bool:
    """Whether the code is contained in its annihilator dual.

    Row test: for unscaled rows a, b carried at scales u^pa, u^pb, every
    digit of a.b below level - pa - pb must vanish.
    """
    spec = code.ring
    dot = spec.ops.dot
    rows = list(code.rows_with_powers())
    lev = code.level
    for i, (a, pa) in enumerate(rows):
        for b, pb in rows[i:]:
            need = lev - pa - pb
            if need <= 0:
                continue
            if u_valuation(spec, dot(a, b)) < need:
                return False
    return True


def is_self_dual_ring(code: RingCode) -> bool:
    """Self-orthogonal with the palindromic type that forces equality."""
    level_type = code.level_type
    if _reversal(code.n, level_type) != level_type:
        return False
    return is_self_orthogonal_ring(code)


def dual_code_ring(code: RingCode) -> RingCode:
    """The annihilator dual, built by back-substitution.

    Two families of generators: one seeded at each free column (solve the
    pivot coordinates bottom block up), and one slack row u^(l-k+1) e_c for
    each pivot column c of block k >= 2 (seeded below the top block, then
    solved upward the same way).
    """
    spec = code.ring
    lev = code.level
    n = code.n
    coarse_code = code
    if code.gamma != 0:
        _, coarse_code = standard_form(spec, lev, n, scaled_generators(code))
    # pivot data per scale v = 0..lev-1
    pivot_cols: List[List[int]] = [list(p) for p in coarse_code.pivots]
    rows_by_scale: List[List[RVec]] = [list(b) for b in coarse_code.block_rows]
    all_pivots = {c for cols in pivot_cols for c in cols}
    free_cols = [c for c in range(n) if c not in all_pivots]

    def solve_upward(vec: List[CRElem], start_scale: int) -> RVec:
        # fix pivot coordinates of blocks start_scale..0, deepest first
        for v in range(start_scale, -1, -1):
            for w, c in zip(rows_by_scale[v], pivot_cols[v]):
                acc = cr_zero(spec)
                for d in range(n):
                    if d == c:
                        continue
                    acc = cr_add(spec, acc, cr_mul(spec, w[d], vec[d]))
                vec[c] = truncate_elem(spec, cr_neg(spec, acc), lev)
        return tuple(vec)

    gens: List[RVec] = []
    one = from_u_adic(spec, (1,))
    for c in free_cols:
        vec = [cr_zero(spec)] * n
        vec[c] = one
        gens.append(solve_upward(vec, lev - 1))
    for v in range(1, lev):
        scale = from_u_adic(spec, (0,) * (lev - v) + (1,))
        for c in pivot_cols[v]:
            vec = [cr_zero(spec)] * n
            vec[c] = scale
            gens.append(solve_upward(vec, v - 1))
    return make_code(spec, lev, n, gens)


# ---------------------------------------------------------------------------
# structured orthogonality of truncated codes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)  # a few levels per ring in use; bounded for long-lived processes
def deep_masks(spec: ChainRingSpec, level: int, gamma: int) -> Tuple[int, ...]:
    """The diagonal conditions a truncation of a self-orthogonal full-depth
    code satisfies beyond plain self-orthogonality, as one digit mask per
    top block.

    Entry h-1 holds the digits that the self-product of a row of block h
    (of blocks 1..gamma, all at scale u^0) must not have, the product taken
    in the full ring on the zero-padded representative.  Which digits are
    constrained depends on where the level sits relative to the
    ramification break; exactly one of the four regimes below must apply.
    Each condition (v, lo, hi) asks digits lo..hi-1 to vanish on the rows
    of blocks 1..v; every one with v > 0 has hi <= e.
    """
    e, kappa, lev, theta = spec.e, spec.kappa, level, spec.e % 2
    if (e - lev) % 2 != 0:
        raise ValueError("level parity does not match the full depth")
    if not 2 <= lev <= e:
        raise ValueError("level out of range for the deep test")
    if gamma != (e // 2) - (lev // 2):
        raise ValueError("profile split does not reach full depth")

    bound_ii = kappa - (2 * kappa - e) // 2 + 1 if 2 * kappa >= e else None
    in_i = lev <= min(kappa - 1, e - kappa)
    in_ii = bound_ii is not None and (e - kappa) < lev <= bound_ii
    in_iii = kappa <= lev <= e - kappa
    in_iv = lev > max(e - kappa, bound_ii if bound_ii is not None else -(10**9))
    matches = [nm for nm, ok in (("i", in_i), ("ii", in_ii), ("iii", in_iii), ("iv", in_iv)) if ok]
    if len(matches) != 1:
        raise RuntimeError(
            "deep orthogonality regimes overlap or leave a gap: "
            f"e={e} kappa={kappa} level={lev} -> {matches}"
        )
    case = matches[0]
    if case == "iv":
        conds = [(gamma + 1 - i // 2, 0, lev + i) for i in range(2, e - lev + 1, 2)]
    elif case == "iii":
        idxs = list(range(2, kappa, 2)) + [kappa]
        conds = [(gamma + 1 - (i + 1) // 2, 0, lev + i) for i in idxs]
    else:
        # cases i and ii share the first family
        conds = [(gamma + 1 - i // 2, 0, lev + i) for i in range(2, lev - theta + 1, 2)]
        j_stop = kappa - 2 + theta if case == "i" else e - lev - 1 - theta
        conds += [
            (gamma + 1 - (j + 2) // 2, lev + j, lev + j + 1)
            for j in range(lev - 1, j_stop + 1, 2)
        ]
    masks = [0] * gamma
    for v, lo, hi in conds:
        for h in range(max(v, 0)):
            masks[h] |= truncate_elem(spec, -1, hi) ^ truncate_elem(spec, -1, lo)
    return tuple(masks)


def satisfies_deep_orthogonality(code: RingCode) -> bool:
    """Whether the top-block rows of a truncated code pass deep_masks.

    Only rows of the top (scale u^0) blocks of the fine split are tested,
    each self-product once.
    """
    dot = code.ring.ops.dot
    masks = deep_masks(code.ring, code.level, code.gamma)
    return not any(
        dot(w, w) & mask
        for h, mask in enumerate(masks)
        if mask
        for w in code.block_rows[h]
    )
