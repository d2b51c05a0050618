"""Linear codes over the residue field F_{2^m}, with the chain-ring pairing.

Vectors are tuples of field elements (bitmasks). The bilinear form is the
residue of the chain-ring inner product of Teichmuller lifts, which works out
to the plain coordinatewise dot product over F_{2^m} (vec_dot).

enumerate_subspaces lists subspaces by RREF; placed_subspaces places those of
a column set in F_{2^m}^n, which grows chain members and lift bottom blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple

from .galois import GRSpec, field_inv, field_mul, make_galois_ring

FVec = Tuple[int, ...]


@dataclass(frozen=True)
class FieldCode:
    """A subspace of F_{2^m}^n in reduced row echelon form."""

    gr: GRSpec
    n: int
    rows: Tuple[FVec, ...]
    pivots: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def size(self) -> int:
        return self.gr.q ** self.dim


def vec_add(a: FVec, b: FVec) -> FVec:
    return tuple(x ^ y for x, y in zip(a, b))


def vec_scale(gr: GRSpec, c: int, v: FVec) -> FVec:
    if c == 1:
        return v
    return tuple(field_mul(gr, c, x) for x in v)


def vec_dot(gr: GRSpec, a: FVec, b: FVec) -> int:
    out = 0
    for x, y in zip(a, b):
        if x and y:
            out ^= field_mul(gr, x, y)
    return out


def rref(gr: GRSpec, rows: Iterable[FVec], n: int) -> Tuple[Tuple[FVec, ...], Tuple[int, ...]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    work: List[List[int]] = [list(r) for r in rows]
    pivots: List[int] = []
    out: List[List[int]] = []
    for col in range(n):
        pivot_row = None
        for r in work:
            if r[col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        inv = field_inv(gr, pivot_row[col])
        pivot_row = [field_mul(gr, inv, x) for x in pivot_row]
        for other in itertools.chain(out, work):
            c = other[col]
            if c:
                for i in range(n):
                    other[i] ^= field_mul(gr, c, pivot_row[i])
        out.append(pivot_row)
        pivots.append(col)
        if not work:
            break
    return tuple(tuple(r) for r in out), tuple(pivots)


def make_field_code(gr: GRSpec, n: int, rows: Iterable[FVec]) -> FieldCode:
    r, p = rref(gr, rows, n)
    return FieldCode(gr=gr, n=n, rows=r, pivots=p)


def zero_code(gr: GRSpec, n: int) -> FieldCode:
    return FieldCode(gr=gr, n=n, rows=(), pivots=())


def contains(code: FieldCode, v: FVec) -> bool:
    gr = code.gr
    for row, p in zip(code.rows, code.pivots):
        c = v[p]
        if c:
            v = vec_add(v, vec_scale(gr, c, row))
    return not any(v)


def is_subcode(inner: FieldCode, outer: FieldCode) -> bool:
    return all(contains(outer, r) for r in inner.rows)


def codewords(code: FieldCode) -> Iterator[FVec]:
    """All q^dim codewords."""
    gr, n = code.gr, code.n
    q = gr.q
    for coeffs in itertools.product(range(q), repeat=code.dim):
        v = (0,) * n
        for c, row in zip(coeffs, code.rows):
            if c:
                v = vec_add(v, vec_scale(gr, c, row))
        yield v


def is_self_orthogonal_field(code: FieldCode) -> bool:
    gr = code.gr
    rows = code.rows
    for i, a in enumerate(rows):
        for b in rows[i:]:
            if vec_dot(gr, a, b):
                return False
    return True


def elementary_symmetric_2(gr: GRSpec, v: FVec) -> int:
    """Second elementary symmetric function of the coordinates."""
    out = 0
    for i in range(len(v)):
        if not v[i]:
            continue
        for j in range(i + 1, len(v)):
            if v[j]:
                out ^= field_mul(gr, v[i], v[j])
    return out


def is_doubly_even(code: FieldCode) -> bool:
    """Self-orthogonal with vanishing second elementary symmetric function.

    On a self-orthogonal code every codeword has zero coordinate sum, which
    makes the symmetric function additive, so checking a basis suffices. This
    is equivalent to the chain-ring condition that coordinate kappa of the
    lifted self inner product vanishes for every codeword.
    """
    if not is_self_orthogonal_field(code):
        return False
    return all(elementary_symmetric_2(code.gr, row) == 0 for row in code.rows)


def all_one(n: int) -> FVec:
    return (1,) * n


def contains_all_one(code: FieldCode) -> bool:
    return contains(code, all_one(code.n))


# ---------------------------------------------------------------------------
# subspace enumeration (desk scale)
# ---------------------------------------------------------------------------

def enumerate_subspaces(gr: GRSpec, n: int, d: int) -> Iterator[FieldCode]:
    """All d-dimensional subspaces of F_{2^m}^n, one RREF representative each."""
    if d == 0:
        yield zero_code(gr, n)
        return
    if d > n:
        return
    q = gr.q
    for pivots in itertools.combinations(range(n), d):
        pivset = set(pivots)
        free_slots = [(r, c) for r in range(d) for c in range(n)
                      if c > pivots[r] and c not in pivset]
        for values in itertools.product(range(q), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(d)]
            for r in range(d):
                rows[r][pivots[r]] = 1
            for (r, c), val in zip(free_slots, values):
                rows[r][c] = val
            yield FieldCode(gr=gr, n=n, rows=tuple(tuple(r) for r in rows), pivots=tuple(pivots))


def placed_subspaces(
    gr: GRSpec, n: int, cols: Sequence[int], d: int
) -> Iterator[Tuple[Tuple[FVec, ...], Tuple[int, ...]]]:
    """Every d-dimensional subspace of the coordinates cols, placed in F_{2^m}^n.

    Yields (canonical basis, pivot columns) per subspace, in the order of
    enumerate_subspaces over len(cols) coordinates.  The codes D >= C with
    dim D = dim C + d are exactly C + W for W placed at the non-pivot
    columns of C, one W each.
    """
    where = {c: i for i, c in enumerate(cols)}
    # a module global looked up at call time, so a rebinding of it (the
    # benchmark's tracer wraps it) sees every walk
    for sub in enumerate_subspaces(gr, len(cols), d):
        rows = tuple(tuple(r[where[c]] if c in where else 0 for c in range(n)) for r in sub.rows)
        yield rows, tuple(cols[p] for p in sub.pivots)


# Values cost up to minutes each, so the bound sits far above the few
# hundred (n, d, m, with_one) keys that desk-scale lengths produce.
# reuse: 24,560 hits, 20 misses per 8 s of closed_form (seed 3)
@lru_cache(maxsize=1024)
def sigma_doubly_even(n: int, d: int, m: int, with_one: bool) -> int:
    """Number of doubly even [n, d] codes over F_{2^m} with / without the all-one word.

    Exhaustive subspace enumeration; intended for desk-scale parameters.
    """
    gr = make_galois_ring(2, m)
    count = 0
    for code in enumerate_subspaces(gr, n, d):
        if is_doubly_even(code) and contains_all_one(code) == with_one:
            count += 1
    return count
