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
generators at level l (make_code, the one standard-form routine) gets the
coarse split (gamma = 0).
Codeword sets (code_signature) take their lane and level masks from the
ring kernel's packed-word layout, spec.ops.high and spec.ops.level_masks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .chain import (
    CRElem,
    ChainRingSpec,
    cr_inv,
    truncate_elem,
    u_valuation,
)
from .fieldcodes import FieldCode, make_field_code, zero_code

RVec = Tuple[CRElem, ...]


# ---------------------------------------------------------------------------
# the code container
# ---------------------------------------------------------------------------


class RingCode(NamedTuple):
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


# ---------------------------------------------------------------------------
# candidate generator matrices
# ---------------------------------------------------------------------------

class FillPlan(NamedTuple):
    """The shape of the codes written (spec, level, n, profile).  rows: (h,
    r, (column, bit shift) per write) per written row, in walk order.
    test: None or (pairs, masks), pairs = (h1, r1, h2, r2, mask) over the
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
    spec: ChainRingSpec, level: int, n: int, profile: Sequence[int],
    rows: Sequence[Tuple[int, int, Sequence[Tuple[int, int]]]], test: bool = False,
) -> FillPlan:
    """The plan fill_candidates follows: each row is (h, r, writes), block
    h 1-based and writes its (column, digit position) pairs in walk order.
    A row with no writes is left as the template has it.

    With test set, fill_candidates yields only the codes that pass
    is_self_orthogonal_ring and satisfies_deep_orthogonality: rows at
    scales u^pa, u^pb need level - pa - pb zero digits in their dot
    product, and a top-block row the deep_masks of its block.
    """
    profile = tuple(profile)
    plan = FillPlan(
        spec, level, n, profile,
        tuple(
            (h, r, tuple((c, spec.m * mu) for c, mu in writes)) for h, r, writes in rows if writes
        ),
        None,
    )
    if not test:
        return plan
    gamma = len(profile) - level
    deep = deep_masks(spec, level, gamma)

    def mask(a: Tuple[int, int], b: Tuple[int, int]) -> int:
        pa, pb = max(0, a[0] - gamma - 1), max(0, b[0] - gamma - 1)
        own = deep[a[0] - 1] if a == b and a[0] <= len(deep) else 0
        return truncate_elem(spec, -1, max(0, level - pa - pb)) | own  # digits below the need

    written = [(h, r) for h, r, _ in plan.rows]
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


# The first written row is listed 2**_LISTED_BITS variants at a time, over a
# list of its leading writes; the other rows are listed whole.  They have a
# few writes in a lift plan and no more than the first in the oracle's walk
# (a later row of its block drops as many unit digits or more, one of a later
# block writes a digit fewer at each column), so a walk of q**w candidates
# holds about q**w / 2**12 + 2**12 rows plus at most sqrt(q**w) per other
# row, where whole lists would hold q**w.
_LISTED_BITS = 12


def _row_variants(base: RVec, writes: Sequence[Tuple[int, int]], q: int) -> List[RVec]:
    """base with every residue digit at each write, the last write fastest."""
    variants = [base]
    for c, shift in writes:
        variants = [v[:c] + (v[c] | d << shift,) + v[c + 1 :] for v in variants for d in range(q)]
    return variants


def fill_candidates(
    plan: FillPlan,
    pivots: Tuple[Tuple[int, ...], ...],
    templates: Sequence[Sequence[RVec]],
) -> Iterator[RingCode]:
    """Every code of the plan's shape obtained by writing residue digits
    into the plan's rows.

    templates[h-1][r][c] is entry c of row r of block h, one template
    block per block of the profile, and must have a zero digit at each of
    its row's writes: a write ORs its digit in.  Each write takes every
    residue digit in turn, the last write varying fastest (the order of
    itertools.product over the writes); the other digits stay as the
    template has them.  Each written row's variants are listed once per
    call (the first row's in slices of its leading writes), and one
    recursive walk chooses a variant per row, the last row innermost.
    With the plan's test, a row keeps the variants that pass its own and
    the unwritten rows' masks, and each choice is checked against the
    earlier rows its masks name, so the survivors come out in stream
    order; without it, no row has earlier-row ties.
    """
    spec, level, n, profile, rows, test = plan
    blocks = [[tuple(row) for row in block] for block in templates]
    dot, q = spec.ops.dot, spec.q

    def make() -> RingCode:
        return RingCode(spec, level, n, profile, tuple(map(tuple, blocks)), pivots)

    ties: List[tuple] = [()] * len(rows)
    if test is not None:
        pairs, masks = test
        if any(dot(blocks[a - 1][i], blocks[b - 1][j]) & mk for a, i, b, j, mk in pairs):
            return
        ties = [mask[2] for mask in masks]
    if not rows:
        yield make()
        return
    bases = [blocks[h - 1][r] for h, r, _ in rows]  # read before any write

    def variants(k: int, base: RVec, writes: Sequence[Tuple[int, int]]) -> List[RVec]:
        listed = _row_variants(base, writes, q)
        if test is None:
            return listed
        own, fixed, _ = masks[k]
        return [
            v
            for v in listed
            if not dot(v, v) & own and not any(dot(v, blocks[h - 1][r]) & mk for h, r, mk in fixed)
        ]

    options = [[]] + [variants(k, bases[k], rows[k][2]) for k in range(1, len(rows))]
    if not all(options[1:]):
        return
    targets = [(blocks[h - 1], r) for h, r, _ in rows]
    chosen: List[RVec] = [()] * len(rows)
    last = len(rows) - 1

    def walk(k: int) -> Iterator[RingCode]:
        block, r = targets[k]
        tied = ties[k]
        for v in options[k]:
            if not tied or not any(dot(v, chosen[j]) & mk for j, mk in tied):
                block[r] = chosen[k] = v
                if k == last:
                    yield make()
                else:
                    yield from walk(k + 1)

    writes = rows[0][2]
    cut = max(0, len(writes) - _LISTED_BITS // spec.m)
    for lead in _row_variants(bases[0], writes[:cut], q):
        options[0] = variants(0, lead, writes[cut:])
        yield from walk(0)


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------


def make_code(
    spec: ChainRingSpec, level: int, n: int, generators: Sequence[RVec]
) -> RingCode:
    """Canonical code spanned by the given rows at the given level: block
    standard form, rows in the original coordinates.

    One pass over the columns per scale v: at each unused column, the
    first unplaced row with valuation v there becomes a pivot row, divided
    by its unit, and every other row loses the digits >= v of that column.
    Unplaced rows keep valuation > v at the unused columns passed over, so
    the pivots come out in (scale, column) order.  Full cross-elimination
    leaves the reduced entries the standard form prescribes (zero at
    pivots of the same or earlier blocks, reduced modulo the scale gap at
    later ones).  Later pivots still rewrite a pivot row, so the blocks
    are read last.
    """
    if not 1 <= level <= spec.e:
        raise ValueError("level out of range")
    ops, m = spec.ops, spec.m
    keep = truncate_elem(spec, -1, level)  # the digits below level, all set
    work: List[List[CRElem]] = [[x & keep for x in g] for g in generators]
    if any(len(g) != n for g in work):
        raise ValueError("generator length mismatch")
    unplaced = list(range(len(work)))
    placed: List[List[int]] = [[] for _ in range(level)]  # indices into work
    pivots: List[List[int]] = [[] for _ in range(level)]
    used = set()
    for v in range(level):
        for c in range(n):
            if c in used:
                continue
            ri = next((i for i in unplaced if u_valuation(spec, work[i][c]) == v), None)
            if ri is None:
                continue
            # normalize: row[c] = u^v * unit, divide the row by the unit
            inv = cr_inv(spec, work[ri][c] >> (m * v))
            row = work[ri] = [ops.mul(inv, x) & keep for x in work[ri]]
            # clear digits >= v of column c in every other row
            for rj, other in enumerate(work):
                top = other[c] >> (m * v)  # digits >= v, shifted down
                if rj != ri and top:
                    minus = ops.neg(top)
                    work[rj] = [ops.add(y, ops.mul(minus, x)) & keep for y, x in zip(other, row)]
            unplaced.remove(ri)
            placed[v].append(ri)
            pivots[v].append(c)
            used.add(c)
    if any(any(work[ri]) for ri in unplaced):
        raise RuntimeError("elimination left a nonzero row unplaced")
    return RingCode(
        ring=spec,
        level=level,
        n=n,
        profile=tuple(map(len, pivots)),
        block_rows=tuple(
            tuple(tuple(x >> (m * v) for x in work[ri]) for ri in rows)
            for v, rows in enumerate(placed)
        ),
        pivots=tuple(map(tuple, pivots)),
    )


def scaled_generators(code: RingCode) -> List[RVec]:
    """Generator rows with their u-power scales applied: u^p w is w shifted
    up p digits, cut at the level."""
    m, keep = code.ring.m, truncate_elem(code.ring, -1, code.level)
    return [tuple((x << (m * p)) & keep for x in w) for w, p in code.rows_with_powers()]


# ---------------------------------------------------------------------------
# codewords, torsion, truncation
# ---------------------------------------------------------------------------


def code_signature(code: RingCode) -> frozenset:
    """The codeword set itself; the bluntest possible equality witness.

    A codeword is one int of n lanes of m*e bits, lane i holding the packed
    additive coordinates (spec.ops.coords) of entry i, so two words add by
    one lane-masked SWAR add (spec.ops.high in every lane).  The multiples
    of a row w at scale u^p are the sums of u^j T(d_j) w over p <= j <
    level, so the set is the sumset of the q-element sets {u^j T(d) w : d
    in F_q}: a digitwise field scale (spec.ops.scale) and a digit shift per
    entry, no ring product.  Below full depth the sums carry into digits at
    and above the level, so each lane keeps only the coordinate bits of the
    digits below the level (spec.ops.level_masks), one per coset.
    """
    spec, level, n = code.ring, code.level, code.n
    ops = spec.ops
    coords, m = ops.coords, spec.m
    width = m * spec.e
    full = (1 << width) - 1
    rep = ((1 << (width * n)) - 1) // full  # 1 at the bottom of each lane
    high = ops.high * rep
    low = (full * rep) ^ high

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
        keep = ops.level_masks[level] * rep
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
    low = spec.q - 1  # x & low is the residue of x, its digit of u^0
    rows = []
    for h, block in enumerate(code.block_rows, start=1):
        if code.u_power(h) < i:
            rows.extend(tuple(x & low for x in w) for w in block)
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
        keep = truncate_elem(spec, -1, target_level - max(0, h - new_gamma - 1))
        blocks.append(tuple(tuple(x & keep for x in w) for w in code.block_rows[h - 1]))
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

    Row test: for unscaled rows a, b of blocks carried at scales u^pa,
    u^pb, every digit of a.b below need = level - pa - pb must vanish, so
    a.b has no bit under truncate_elem(spec, -1, need), the mask fill_plan
    tests rows with.  The scales come from the block index and gamma, one
    mask per pair of blocks.
    """
    spec, level, blocks = code.ring, code.level, code.block_rows
    dot, m = spec.ops.dot, spec.m
    gamma = len(code.profile) - level  # block i (0-based) has scale max(0, i - gamma)
    for i, block in enumerate(blocks):
        if not block:
            continue
        pa = max(0, i - gamma)
        for k in range(i, len(blocks)):
            need = level - pa - max(0, k - gamma)
            if need <= 0:  # later blocks carry scales at least as large
                break
            other = blocks[k]
            if not other:
                continue
            mask = (1 << m * need) - 1  # truncate_elem(spec, -1, need)
            for j, a in enumerate(block):
                for b in other[j:] if k == i else other:
                    if dot(a, b) & mask:
                        return False
    return True


def is_self_dual_ring(code: RingCode) -> bool:
    """Self-orthogonal with the palindromic type that forces equality.

    The coarse type (head, lower...) equals its reversal (n - total,
    reversed lower...) when head = n - total and lower is a palindrome.
    """
    profile = code.profile
    lower = profile[len(profile) - code.level + 1 :]
    if 2 * sum(profile) - sum(lower) != code.n or lower != lower[::-1]:
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
        coarse_code = make_code(spec, lev, n, scaled_generators(code))
    # pivot data per scale v = 0..lev-1
    pivot_cols: List[List[int]] = [list(p) for p in coarse_code.pivots]
    rows_by_scale: List[List[RVec]] = [list(b) for b in coarse_code.block_rows]
    all_pivots = {c for cols in pivot_cols for c in cols}
    free_cols = [c for c in range(n) if c not in all_pivots]

    ops, keep = spec.ops, truncate_elem(spec, -1, lev)

    def solve_upward(vec: List[CRElem], start_scale: int) -> RVec:
        # fix pivot coordinates of blocks start_scale..0, deepest first:
        # with vec[c] zeroed, w.vec is the sum over the other coordinates
        for v in range(start_scale, -1, -1):
            for w, c in zip(rows_by_scale[v], pivot_cols[v]):
                vec[c] = 0
                vec[c] = ops.neg(ops.dot(w, vec)) & keep
        return tuple(vec)

    gens: List[RVec] = []
    for c in free_cols:
        vec = [0] * n
        vec[c] = 1
        gens.append(solve_upward(vec, lev - 1))
    for v in range(1, lev):
        for c in pivot_cols[v]:
            vec = [0] * n
            vec[c] = 1 << (spec.m * (lev - v))  # u^(lev-v)
            gens.append(solve_upward(vec, v - 1))
    return make_code(spec, lev, n, gens)


# ---------------------------------------------------------------------------
# structured orthogonality of truncated codes
# ---------------------------------------------------------------------------


# reuse: 787 hits, 16 misses per 8 s of lift_walk (seed 3); a few levels
# per ring are in use, and the bound is for long-lived processes
@lru_cache(maxsize=64)
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
