"""Shared test helpers: cached code pools, random instance generators,
the reference walks the fast searches are checked against, and a child
interpreter for calls that might never return."""

import functools
import hashlib
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
from chaincodes.oracle import enumerate_codes_of_type
from chaincodes.ringcodes import (
    RingCode,
    RVec,
    is_self_orthogonal_ring,
    make_code,
    scaled_generators,
    standard_form,
)


def enumerate_extensions(code: FieldCode, d: int) -> Iterator[FieldCode]:
    """All d-dimensional subspaces containing the given code, by filtering
    the walk over every d-dimensional subspace of the ambient space."""
    for cand in enumerate_subspaces(code.gr, code.n, d):
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
    _, coarse = standard_form(code.ring, code.level, code.n, scaled_generators(code))
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


def reference_is_self_dual_ring(code: RingCode) -> bool:
    """Self-orthogonal with a coarse type equal to its dual's, compared as
    the level_type and dual_level_type tuples."""
    if code.dual_level_type() != code.level_type:
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
