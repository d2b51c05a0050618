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
from typing import Iterator, List, Optional, Sequence, Tuple

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
    pi,
    pi0,
    truncate_elem,
    u_valuation,
)
from . import fieldcodes
from .fieldcodes import FieldCode, make_field_code, zero_code

RVec = Tuple[CRElem, ...]


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------


def rv_zero(spec: ChainRingSpec, n: int) -> RVec:
    return (cr_zero(spec),) * n


def rv_add(spec: ChainRingSpec, a: RVec, b: RVec) -> RVec:
    return tuple(map(spec.ops.add, a, b))


def rv_scale(spec: ChainRingSpec, c: CRElem, v: RVec) -> RVec:
    mul = spec.ops.mul
    return tuple(mul(c, x) for x in v)


def rv_dot(spec: ChainRingSpec, a: RVec, b: RVec) -> CRElem:
    return spec.ops.dot(a, b)


def rv_truncate(spec: ChainRingSpec, v: RVec, level: int) -> RVec:
    keep = truncate_elem(spec, -1, level)  # the digits below level, all set
    return tuple(x & keep for x in v)


def rv_residue(spec: ChainRingSpec, v: RVec) -> Tuple[int, ...]:
    """Residue-field image of a vector, entrywise (field bitmasks)."""
    return tuple(pi0(spec, x) for x in v)


def rv_teich(spec: ChainRingSpec, fvec: Sequence[int]) -> RVec:
    """Coordinatewise multiplicative lift of a residue-field vector."""
    return tuple(from_u_adic(spec, (d,)) for d in fvec)


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

    @property
    def num_rows(self) -> int:
        return sum(self.profile)

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
        t = self.level_type
        return (self.n - sum(t),) + tuple(reversed(t[1:]))


# ---------------------------------------------------------------------------
# candidate generator matrices
# ---------------------------------------------------------------------------

# (block h, row r, column c, digit position mu), h 1-based
Slot = Tuple[int, int, int, int]


def fill_candidates(
    spec: ChainRingSpec,
    level: int,
    n: int,
    profile: Sequence[int],
    pivots: Tuple[Tuple[int, ...], ...],
    templates: Sequence[Sequence[RVec]],
    slots: Sequence[Slot],
    tail: Optional[Tuple[RVec, ...]] = None,
) -> Iterator[RingCode]:
    """Every code obtained by writing residue digits into template slots.

    templates[h-1][r][c] is entry c of row r of block h.  Each slot takes
    every residue digit in turn at its digit position mu, the last slot
    varying fastest; the other digits stay as the template has them.  tail,
    if given, is appended unchanged as a final block.  Only the rows that
    slots write are rebuilt per candidate.
    """
    profile = tuple(profile)
    m, digit = spec.m, spec.q - 1
    cleared = [[list(row) for row in block] for block in templates]
    for h, r, c, mu in slots:
        cleared[h - 1][r][c] &= ~(digit << (m * mu))
    blocks = [[tuple(row) for row in block] for block in cleared]
    written = sorted({(h, r) for h, r, _, _ in slots})
    index = {key: k for k, key in enumerate(written)}
    writes = [(index[h, r], c, m * mu) for h, r, c, mu in slots]
    for assignment in itertools.product(range(spec.q), repeat=len(slots)):
        rows = [list(cleared[h - 1][r]) for h, r in written]
        for (k, c, shift), val in zip(writes, assignment):
            rows[k][c] |= val << shift
        for (h, r), row in zip(written, rows):
            blocks[h - 1][r] = tuple(row)
        filled = tuple(tuple(block) for block in blocks)
        if tail is not None:
            filled += (tail,)
        yield RingCode(
            ring=spec, level=level, n=n, profile=profile, block_rows=filled, pivots=pivots
        )


def bottom_blocks(
    spec: ChainRingSpec, n: int, free_cols: Sequence[int], count: int
) -> List[Tuple[Tuple[RVec, ...], Tuple[int, ...]]]:
    """Every count-dimensional subspace of the free columns, as a block.

    Each canonical basis is placed at the free columns and lifted entrywise
    to Teichmueller digits; returns (rows, pivot columns) per subspace.
    """
    out = []
    # looked up on the module at call time, so a rebinding there (the
    # benchmark's tracer wraps it) sees every call
    for sub in fieldcodes.enumerate_subspaces(spec.gr, len(free_cols), count):
        rows = []
        for frow in sub.rows:
            full = [0] * n
            for pos, val in zip(free_cols, frow):
                full[pos] = val
            rows.append(rv_teich(spec, full))
        out.append((tuple(rows), tuple(free_cols[p] for p in sub.pivots)))
    return out


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


def enumerate_codewords(code: RingCode) -> Iterator[RVec]:
    """All codewords, as vectors over the level-l quotient.

    Coefficients run over representatives with precision digits; that is
    exactly one coefficient per distinct multiple of each scaled row.
    """
    spec = code.ring
    level = code.level
    words: List[RVec] = [rv_zero(spec, code.n)]
    for h, rows in enumerate(code.block_rows, start=1):
        p = code.u_power(h)
        # every coefficient with prec digits, the last digit varying fastest
        coeffs = [0]
        for shift in range(0, spec.m * code.precision(h), spec.m):
            coeffs = [r | d << shift for r in coeffs for d in range(spec.q)]
        for w in rows:
            scaled = rv_truncate(spec, rv_scale(spec, cr_u_pow(spec, p), w), level)
            multiples = [
                rv_truncate(spec, rv_scale(spec, r, scaled), level) for r in coeffs
            ]
            words = [
                rv_add(spec, acc, mult) for acc in words for mult in multiples
            ]
    if level < spec.e:
        # sums in R_e carry into digits at and above the level
        words = [rv_truncate(spec, wd, level) for wd in words]
    seen = set()
    for wd in words:
        if wd in seen:
            continue
        seen.add(wd)
        yield wd


def code_signature(code: RingCode) -> frozenset:
    """The codeword set itself; the bluntest possible equality witness."""
    return frozenset(enumerate_codewords(code))


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
    if code.dual_level_type() != code.level_type:
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


def _stacked_rows(code: RingCode, v: int) -> List[RVec]:
    """Unscaled rows of blocks 1..v of the fine split."""
    rows: List[RVec] = []
    for h in range(1, min(v, len(code.profile)) + 1):
        rows.extend(code.block_rows[h - 1])
    return rows


def satisfies_deep_orthogonality(code: RingCode) -> bool:
    """The extra diagonal conditions a truncation of a self-orthogonal
    full-depth code satisfies beyond plain self-orthogonality.

    Only rows of the top (scale u^0) blocks of the fine split are tested,
    via their self-products taken in the full ring on the zero-padded
    representatives.  Which digits are constrained depends on where the
    level sits relative to the ramification break; exactly one of the four
    regimes below must apply.
    """
    spec = code.ring
    e = spec.e
    kappa = spec.kappa
    lev = code.level
    if (e - lev) % 2 != 0:
        raise ValueError("level parity does not match the full depth")
    if not 2 <= lev <= e:
        raise ValueError("level out of range for the deep test")
    theta = e % 2
    gamma = code.gamma
    if gamma != (e // 2) - (lev // 2):
        raise ValueError("profile split does not reach full depth")

    def fl(w: int) -> int:
        return w // 2

    def ce(w: int) -> int:
        return (w + 1) // 2

    two_kappa_high = 2 * kappa >= e
    bound_ii = kappa - fl(2 * kappa - e) + 1 if two_kappa_high else None

    in_i = lev <= min(kappa - 1, e - kappa)
    in_ii = bound_ii is not None and (e - kappa) < lev <= bound_ii
    in_iii = kappa <= lev <= e - kappa
    hi = max(e - kappa, bound_ii if bound_ii is not None else -(10**9))
    in_iv = lev > hi
    matches = [nm for nm, ok in (("i", in_i), ("ii", in_ii), ("iii", in_iii), ("iv", in_iv)) if ok]
    if len(matches) != 1:
        raise RuntimeError(
            "deep orthogonality regimes overlap or leave a gap: "
            f"e={e} kappa={kappa} level={lev} -> {matches}"
        )
    case = matches[0]

    def self_dots(v: int) -> Iterator[CRElem]:
        for w in _stacked_rows(code, v):
            yield rv_dot(spec, w, w)

    def val_ok(v: int, bound: int) -> bool:
        if v <= 0:
            return True
        return all(u_valuation(spec, d) >= bound for d in self_dots(v))

    def digit_zero(v: int, idx: int) -> bool:
        if v <= 0:
            return True
        return all(pi(spec, idx, d) == 0 for d in self_dots(v))

    if case == "iv":
        for i in range(2, e - lev + 1, 2):
            if not val_ok(gamma + 1 - fl(i), lev + i):
                return False
        return True
    if case == "iii":
        idxs = list(range(2, kappa, 2)) + [kappa]
        for i in idxs:
            if not val_ok(gamma + 1 - ce(i), lev + i):
                return False
        return True
    # cases i and ii share the first family
    for i in range(2, lev - theta + 1, 2):
        if not val_ok(gamma + 1 - fl(i), lev + i):
            return False
    if case == "i":
        j_stop = kappa - 2 + theta
    else:
        j_stop = e - lev - 1 - theta
    for j in range(lev - 1, j_stop + 1, 2):
        if not digit_zero(gamma + 1 - fl(j + 2), lev + j):
            return False
    return True
