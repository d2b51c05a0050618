"""Shared test helpers: cached code pools and random instance generators."""

import functools
import random
from typing import FrozenSet, Iterator, List, Tuple

from chaincodes.chain import ChainRingSpec, cr_u_pow, from_u_adic, preset
from chaincodes.fieldcodes import FieldCode, make_field_code
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


def all_types(e: int, n: int) -> Iterator[Tuple[int, ...]]:
    """All type tuples of length e with at most n pivots in total."""

    def rec(prefix: List[int], remaining: int, slots: int):
        if slots == 0:
            yield tuple(prefix)
            return
        for take in range(remaining + 1):
            yield from rec(prefix + [take], remaining - take, slots - 1)

    yield from rec([], n, e)


@functools.lru_cache(maxsize=None)
def so_pool(name: str, n: int) -> Tuple[RingCode, ...]:
    """Every self-orthogonal code of length n over the named preset ring."""
    spec = preset(name)
    out: List[RingCode] = []
    for lam in all_types(spec.e, n):
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
