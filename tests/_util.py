"""Shared test helpers: cached code pools, random instance generators and
the reference walks the fast searches are checked against."""

import functools
import random
from typing import FrozenSet, Iterator, List, Sequence, Tuple

from chaincodes.chain import ChainRingSpec, cr_u_pow, from_u_adic, preset
from chaincodes.enumeration import _all_types
from chaincodes.fieldcodes import (
    FieldCode,
    enumerate_subspaces,
    is_self_orthogonal_field,
    is_subcode,
    make_field_code,
    zero_code,
)
from chaincodes.galois import GRSpec
from chaincodes.oracle import enumerate_codes_of_type
from chaincodes.ringcodes import (
    RingCode,
    RVec,
    is_self_orthogonal_ring,
    make_code,
    rv_scale,
    rv_truncate,
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


def reference_codewords(code: RingCode) -> FrozenSet[RVec]:
    """Every codeword, by ring products and entrywise ring adds.

    The slow arbiter of code_signature: each scaled row is multiplied by
    every coefficient with its precision digits, the multiples of all rows
    are added pairwise in R_e, and the sums are truncated to the level.
    """
    spec, level = code.ring, code.level
    add = spec.ops.add
    words: List[RVec] = [(0,) * code.n]
    for h, rows in enumerate(code.block_rows, start=1):
        if not rows:
            continue
        coeffs = [0]
        for shift in range(0, spec.m * code.precision(h), spec.m):
            coeffs = [r | d << shift for r in coeffs for d in range(spec.q)]
        for w in rows:
            scaled = rv_scale(spec, cr_u_pow(spec, code.u_power(h)), w)
            multiples = [rv_truncate(spec, rv_scale(spec, r, scaled), level) for r in coeffs]
            words = [tuple(map(add, acc, mult)) for acc in words for mult in multiples]
    return frozenset(rv_truncate(spec, wd, level) for wd in words)
