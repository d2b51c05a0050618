"""Shared test helpers: cached code pools, random instance generators,
the reference walks the fast searches are checked against, and a child
interpreter for calls that might never return."""

import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import FrozenSet, Iterator, List, Sequence, Tuple

import chaincodes
from chaincodes.chain import (
    ChainRingSpec,
    from_u_adic,
    preset,
    to_u_adic,
    truncate_elem,
    u_valuation,
)
from chaincodes.enumeration import _all_types
from chaincodes.fieldcodes import (
    FieldCode,
    enumerate_subspaces,
    is_self_orthogonal_field,
    is_subcode,
    make_field_code,
    zero_code,
)
from chaincodes.galois import GRElem, GRSpec
from chaincodes.oracle import _pivot_placements, enumerate_codes_of_type
from chaincodes.ringcodes import (
    RingCode,
    RVec,
    fill_candidates,
    fill_plan,
    is_self_orthogonal_ring,
    make_code,
    scaled_generators,
)


# the CLI-nameable rings of the closed-form benchmark stream besides the presets
CR_RINGS = ("CR(2^2,1;5,2;1)", "CR(2^3,1;3,3;3)", "CR(2^2,2;3,1;1)")


def reference_placed_subspaces(
    gr: GRSpec, n: int, cols: Sequence[int], d: int
) -> Iterator[Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]]:
    """(rows, pivots) of every d-dimensional subspace supported on cols:
    the RREF walk over len(cols) coordinates (pivot combinations, then the
    free slots in (row, column) order, the last fastest), each subspace
    then copied into the columns cols of F_{2^m}^n.  The arbiter of
    enumerate_subspaces' column sets."""
    k = len(cols)
    where = {c: i for i, c in enumerate(cols)}
    if d == 0:
        yield (), ()
        return
    if d > k:
        return
    for pivots in itertools.combinations(range(k), d):
        free_slots = [
            (r, c) for r in range(d) for c in range(k) if c > pivots[r] and c not in pivots
        ]
        for values in itertools.product(range(gr.q), repeat=len(free_slots)):
            sub = [[0] * k for _ in range(d)]
            for r in range(d):
                sub[r][pivots[r]] = 1
            for (r, c), val in zip(free_slots, values):
                sub[r][c] = val
            rows = tuple(tuple(r[where[c]] if c in where else 0 for c in range(n)) for r in sub)
            yield rows, tuple(cols[p] for p in pivots)


def reference_type_rows(
    n: int, profile: Sequence[int], level: int, pivots: Tuple[Tuple[int, ...], ...]
) -> List[Tuple[int, int, List[Tuple[int, int]]]]:
    """The written rows of one pivot placement at any level, as fill_plan
    takes them: every digit of a row's precision at the free columns, and
    below the scale gap at the pivots of later blocks.  Every row of a
    block writes the same, and every placement the same number."""
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


def reference_walk_size(spec: ChainRingSpec, n: int, profile: Sequence[int], level: int) -> int:
    """The number of matrices reference_matrix_candidates writes: pivot
    placements times q to the writes of one placement, any one."""
    placements, left = 1, n
    for rows in profile:
        placements *= math.comb(left, rows)
        left -= rows
    cols = iter(range(n))
    some = tuple(tuple(itertools.islice(cols, rows)) for rows in profile)
    writes = sum(len(w) for _, _, w in reference_type_rows(n, profile, level, some))
    return placements * spec.q ** writes


def reference_matrix_candidates(
    spec: ChainRingSpec, n: int, profile: Sequence[int], level: int
) -> Iterator[RingCode]:
    """Every standard-form-shaped matrix of the given profile at the given
    level, every digit written at every pivot placement, so most codes
    come more than once.  The arbiter of the oracle's one-matrix-per-code
    walk, which must be this stream less the matrices with a unit left of
    a row's own pivot."""
    for pivots in _pivot_placements(profile, range(n)):
        base = [[[int(c == p) for c in range(n)] for p in piv] for piv in pivots]
        plan = fill_plan(spec, level, n, profile, reference_type_rows(n, profile, level, pivots))
        yield from fill_candidates(plan, pivots, base)


def enumerate_extensions(code: FieldCode, d: int) -> Iterator[FieldCode]:
    """All d-dimensional subspaces containing the given code, by filtering
    the walk over every d-dimensional subspace of the ambient space."""
    for cand in enumerate_subspaces(code.gr, code.n, range(code.n), d):
        if is_subcode(code, cand):
            yield cand


@functools.lru_cache(maxsize=None)
def _so_extensions(code: FieldCode, d: int) -> Tuple[FieldCode, ...]:
    return tuple(e for e in enumerate_extensions(code, d) if is_self_orthogonal_field(e))


def reference_so_chains(
    spec: ChainRingSpec, n: int, lambdas_head: Sequence[int]
) -> Iterator[Tuple[FieldCode, ...]]:
    """The members of every nested self-orthogonal chain with the given
    dimension steps, each member grown by enumerate_extensions."""

    def grow(prefix: Tuple[FieldCode, ...], idx: int) -> Iterator[Tuple[FieldCode, ...]]:
        if idx == len(lambdas_head):
            yield prefix
            return
        prev = prefix[-1] if prefix else zero_code(spec.gr, n)
        for ext in _so_extensions(prev, prev.dim + lambdas_head[idx]):
            yield from grow(prefix + (ext,), idx + 1)

    yield from grow((), 0)


@functools.lru_cache(maxsize=None)
def so_pool(name: str, n: int) -> Tuple[RingCode, ...]:
    """Every self-orthogonal code of length n over the named preset ring."""
    spec = preset(name)
    out: List[RingCode] = []
    for lam in _all_types(spec.e, n):
        out.extend(
            enumerate_codes_of_type(spec, n, lam, predicate=is_self_orthogonal_ring)
        )
    return tuple(out)


def residue(R: GRSpec, a: GRElem) -> int:
    """Image of a Galois-ring element in the residue field, as a bitmask."""
    return sum((c & 1) << i for i, c in enumerate(a))


def random_code(rng: random.Random, spec: ChainRingSpec, n: int) -> RingCode:
    """A random code spanned by random rows (any type, possibly zero)."""
    rows = []
    for _ in range(rng.randint(0, n)):
        rows.append(
            tuple(
                from_u_adic(
                    spec, tuple(rng.randrange(spec.q) for _ in range(spec.e))
                )
                for _ in range(n)
            )
        )
    return make_code(spec, spec.e, n, rows)


def random_field_code(
    rng: random.Random, gr: GRSpec, n: int, max_rows: int
) -> FieldCode:
    """A random residue-field code from random generator rows."""
    rows = [
        tuple(rng.randrange(gr.q) for _ in range(n))
        for _ in range(rng.randint(0, max_rows))
    ]
    return make_field_code(gr, n, rows)


def canonical_key(code: RingCode):
    """Level-granular canonical form, for equality across profile splits:
    the coarse standard form of the scaled generators, one standard form
    per code and no codeword set."""
    coarse = make_code(code.ring, code.level, code.n, scaled_generators(code))
    return (coarse.level, coarse.n, coarse.profile, coarse.block_rows)


def reference_codewords(code: RingCode) -> FrozenSet[RVec]:
    """Every codeword, by ring products and entrywise ring adds.

    The slow arbiter of code_signature: each row is multiplied by its scale
    u^p and by every coefficient with its precision digits, the multiples
    of all rows are added pairwise in R_e, and the sums are truncated to
    the level.
    """
    spec, level = code.ring, code.level
    add, mul = spec.ops.add, spec.ops.mul
    keep = truncate_elem(spec, -1, level)
    words: List[RVec] = [(0,) * code.n]
    for h, rows in enumerate(code.block_rows, start=1):
        if not rows:
            continue
        coeffs = [0]
        for shift in range(0, spec.m * code.precision(h), spec.m):
            coeffs = [r | d << shift for r in coeffs for d in range(spec.q)]
        u_p = 1 << (spec.m * code.u_power(h))  # u^p, with p < level <= e
        for w in rows:
            scaled = [mul(u_p, x) for x in w]
            multiples = [tuple(mul(r, x) & keep for x in scaled) for r in coeffs]
            words = [tuple(map(add, acc, mult)) for acc in words for mult in multiples]
    return frozenset(tuple(x & keep for x in wd) for wd in words)


def reference_is_self_orthogonal_ring(code: RingCode) -> bool:
    """Self-orthogonality by valuations: for unscaled rows a, b carried at
    scales u^pa, u^pb, the u-adic valuation of a.b must reach
    level - pa - pb.  The arbiter of the mask test in ringcodes."""
    spec = code.ring
    rows = list(code.rows_with_powers())
    for i, (a, pa) in enumerate(rows):
        for b, pb in rows[i:]:
            need = code.level - pa - pb
            if need > 0 and u_valuation(spec, spec.ops.dot(a, b)) < need:
                return False
    return True


def dual_level_type(code: RingCode) -> Tuple[int, ...]:
    """Coarse type of the annihilator dual, by the reversal rule: a
    length-n code of coarse type (head, lower...) has the dual type
    (n - total, reversed lower...)."""
    lam = code.level_type
    return (code.n - sum(lam),) + tuple(reversed(lam[1:]))


def reference_is_self_dual_ring(code: RingCode) -> bool:
    """Self-orthogonal with a coarse type equal to its dual's, compared as
    the level_type and dual_level_type tuples."""
    if dual_level_type(code) != code.level_type:
        return False
    return reference_is_self_orthogonal_ring(code)


def stream_digest(codes: Iterator[RingCode]) -> Tuple[int, str]:
    """(count, SHA-256) over a stream of codes, in order: each code's level,
    profile, pivots and entries as u-adic digits."""
    digest = hashlib.sha256()
    count = 0
    for code in codes:
        spec = code.ring
        entries = tuple(
            tuple(tuple(to_u_adic(spec, x) for x in row) for row in block)
            for block in code.block_rows
        )
        digest.update(repr((code.level, code.profile, code.pivots, entries)).encode())
        count += 1
    return count, digest.hexdigest()


def run_child(*args: str) -> subprocess.CompletedProcess:
    """python *args on this package's source, killed after 20 s, so a call
    that never returns fails its test instead of stalling the suite."""
    src = str(Path(chaincodes.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=20, env=dict(os.environ, PYTHONPATH=src),
    )
