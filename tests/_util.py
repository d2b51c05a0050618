"""Shared test helpers: cached code pools and random instance generators."""

import functools
import random
from typing import Iterator, List, Tuple

from chaincodes.chain import ChainRingSpec, from_u_adic, preset
from chaincodes.fieldcodes import FieldCode, make_field_code
from chaincodes.galois import GRSpec
from chaincodes.oracle import enumerate_codes_of_type
from chaincodes.ringcodes import RingCode, is_self_orthogonal_ring, make_code



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
