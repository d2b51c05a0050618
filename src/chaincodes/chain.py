"""Finite commutative chain rings GR(2^s, m)[y] / <y^kappa + 2 g(y), 2^(s-1) y^t>.

The maximal ideal is generated by u = image of y; u has nilpotency index
e = kappa*(s-1) + t, and 2 lies in <u^kappa> \\ <u^(kappa+1)>. Quotients
R_l = R / <u^l> are represented by u-adically truncated elements of R.

An element is a plain int, its u-adic digit index sum_i d_i q^i: bits
m*i .. m*i+m-1 hold the Teichmuller digit d_i of u^i as a residue-field
bitmask, so a = sum_i u^i T(d_i).  Reading digits, truncating, the
valuation, multiplying by a power of u and dividing by u are shifts and
masks.  Addition and multiplication go through the ring's kernel
(ChainRingSpec.ops), built on the first arithmetic call: packed additive
coordinates for rings of at most _TABLE_MAX elements, and for larger rings
the nested-tuple reference arithmetic of this module.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .galois import (
    GRElem,
    GRSpec,
    field_mul,
    gr_add,
    gr_from_int,
    gr_mul,
    gr_neg,
    gr_one,
    gr_zero,
    make_galois_ring,
    residue,
    teichmuller_set,
)

CRElem = int  # u-adic digit index sum_i d_i q^i


@dataclass(frozen=True)
class ChainRingSpec:
    """Parameters of the chain ring; elements live in the full ring R_e."""

    gr: GRSpec
    kappa: int                 # ramification index of y, odd and >= 3
    t: int                     # torsion cut: 2^(s-1) y^t = 0, 1 <= t <= kappa
    g_int: Tuple[int, ...]     # Eisenstein multiplier g(y), integer coefficients

    @property
    def e(self) -> int:
        """Nilpotency index of u."""
        return self.kappa * (self.gr.s - 1) + self.t

    @property
    def q(self) -> int:
        """Residue field size 2^m."""
        return self.gr.q

    @property
    def m(self) -> int:
        return self.gr.m

    def size(self, level: Optional[int] = None) -> int:
        """|R_level| = q^level (default: the full ring R_e)."""
        return self.q ** (self.e if level is None else level)

    def ideal_size(self, i: int, level: Optional[int] = None) -> int:
        """|<u^i>| inside R_level."""
        lev = self.e if level is None else level
        return self.q ** max(lev - i, 0)

    @cached_property
    def ops(self) -> "Ops":
        """Element arithmetic of this ring, looked up once per spec object.

        Kept in the instance after the first use, so element operations
        never hash the spec; equal specs share one kernel through _kernel.
        """
        return _kernel(self)


_PRESET_PARAMS = {
    "R4,1": (2, 1, 3, 1),
    "R5,1": (2, 1, 3, 2),
    "R6,2": (2, 2, 3, 3),
    "R8,2": (3, 2, 3, 2),
}

PRESET_NAMES = tuple(_PRESET_PARAMS)


def make_ring(s: int, m: int, kappa: int, t: int,
              g: Tuple[int, ...] = (1,),
              modulus: Optional[Tuple[int, ...]] = None) -> ChainRingSpec:
    """Build and validate a chain-ring spec."""
    gr = make_galois_ring(s, m, modulus)
    if kappa < 3 or kappa % 2 == 0:
        raise ValueError(f"ramification index must be odd and >= 3, got {kappa}")
    if not 1 <= t <= kappa:
        raise ValueError(f"torsion cut must satisfy 1 <= t <= {kappa}, got {t}")
    if s < 2:
        raise ValueError("characteristic exponent must be >= 2 (otherwise 2 = 0 and "
                         "the nilpotency index e would not exceed the ramification index)")
    g = tuple(int(c) for c in g)
    if not g or len(g) > kappa:
        raise ValueError(f"g(y) must have degree < {kappa} and at least a constant term")
    if g[0] % 2 == 0:
        raise ValueError("g(0) must be a unit (odd constant term)")
    spec = ChainRingSpec(gr=gr, kappa=kappa, t=t, g_int=g)
    # sanity: 2 must sit exactly at valuation kappa
    assert u_valuation(spec, cr_from_int(spec, 2)) == kappa
    return spec


def preset(name: str) -> ChainRingSpec:
    """One of the bundled rings R4,1 / R5,1 / R6,2 / R8,2."""
    key = name.strip()
    if key not in _PRESET_PARAMS:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return make_ring(*_PRESET_PARAMS[key])


_SPEC_RE = re.compile(r"^CR\(2\^(\d+),(\d+);(\d+),(\d+);(-?\d+(?:,-?\d+)*)\)$")


def parse_ring_spec(text: str) -> ChainRingSpec:
    """Parse 'CR(2^s,m;kappa,t;g0,g1,...)', e.g. CR(2^2,1;3,1;1)."""
    mo = _SPEC_RE.match(text.strip())
    if mo is None:
        raise ValueError(f"cannot parse ring spec {text!r}; expected CR(2^s,m;kappa,t;g)")
    s, m, kappa, t = (int(mo.group(i)) for i in range(1, 5))
    g = tuple(int(c) for c in mo.group(5).split(","))
    return make_ring(s, m, kappa, t, g)


def format_ring_spec(spec: ChainRingSpec) -> str:
    g = ",".join(str(c) for c in spec.g_int)
    return f"CR(2^{spec.gr.s},{spec.gr.m};{spec.kappa},{spec.t};{g})"


# ---------------------------------------------------------------------------
# reference arithmetic on coefficient tuples (private)
#
# An element is the tuple of its GR(2^s, m) coefficients of 1, y, ...,
# y^(kappa-1).  This is the definition the kernel is built from and tested
# against, and the only arithmetic of rings too large for the kernel tables.
# ---------------------------------------------------------------------------

_Ref = Tuple[GRElem, ...]


def _canonical(spec: ChainRingSpec, coeffs: list) -> _Ref:
    """Reduce coefficient i mod 2^(s-1) for i >= t (since 2^(s-1) y^t = 0)."""
    ch_low = 1 << (spec.gr.s - 1)
    out = []
    for i, c in enumerate(coeffs[:spec.kappa]):
        if i >= spec.t:
            c = tuple(x % ch_low for x in c)
        out.append(c)
    return tuple(out)


def _ref_zero(spec: ChainRingSpec) -> _Ref:
    return (gr_zero(spec.gr),) * spec.kappa


def _ref_from_gr(spec: ChainRingSpec, a: GRElem) -> _Ref:
    return _canonical(spec, [a] + [gr_zero(spec.gr)] * (spec.kappa - 1))


def _ref_y_pow(spec: ChainRingSpec, i: int) -> _Ref:
    """y^i for i < kappa."""
    z = gr_zero(spec.gr)
    return _canonical(spec, [z] * i + [gr_one(spec.gr)] + [z] * (spec.kappa - 1 - i))


def _ref_add(spec: ChainRingSpec, a: _Ref, b: _Ref) -> _Ref:
    gr = spec.gr
    return _canonical(spec, [gr_add(gr, x, y) for x, y in zip(a, b)])


def _ref_neg(spec: ChainRingSpec, a: _Ref) -> _Ref:
    gr = spec.gr
    return _canonical(spec, [gr_neg(gr, x) for x in a])


def _ref_mul(spec: ChainRingSpec, a: _Ref, b: _Ref) -> _Ref:
    gr, k = spec.gr, spec.kappa
    prod = [gr_zero(gr)] * (2 * k - 1)
    for i, x in enumerate(a):
        if any(x):
            for j, y in enumerate(b):
                prod[i + j] = gr_add(gr, prod[i + j], gr_mul(gr, x, y))
    # reduce with y^kappa = -2 g(y); deg g < kappa makes this terminate
    two = gr_from_int(gr, 2)
    g = _ref_g(spec)
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        if not any(c):
            continue
        prod[i] = gr_zero(gr)
        factor = gr_neg(gr, gr_mul(gr, two, c))
        for j, gc in enumerate(g):
            if any(gc):
                prod[i - k + j] = gr_add(gr, prod[i - k + j], gr_mul(gr, factor, gc))
    return _canonical(spec, prod[:k])


def _ref_pow(spec: ChainRingSpec, a: _Ref, n: int) -> _Ref:
    out = _ref_y_pow(spec, 0)
    while n:
        if n & 1:
            out = _ref_mul(spec, out, a)
        a = _ref_mul(spec, a, a)
        n >>= 1
    return out


# The four caches below hold one small entry per ring; a process sees a
# handful of rings, and the bound keeps a long-lived one from growing.

@lru_cache(maxsize=16)
def _ref_g(spec: ChainRingSpec) -> _Ref:
    coeffs = [gr_from_int(spec.gr, c) for c in spec.g_int]
    coeffs += [gr_zero(spec.gr)] * (spec.kappa - len(coeffs))
    return _canonical(spec, coeffs)


@lru_cache(maxsize=16)
def _ref_div_u_factor(spec: ChainRingSpec) -> _Ref:
    """-y^(kappa-1) g(y)^(-1), so that 2*c = u * (factor * c) for any c."""
    order = spec.size() - spec.size(spec.e - 1)  # of the unit group
    g_inv = _ref_pow(spec, _ref_g(spec), order - 1)
    return _ref_neg(spec, _ref_mul(spec, _ref_y_pow(spec, spec.kappa - 1), g_inv))


@lru_cache(maxsize=16)
def _ref_teich(spec: ChainRingSpec) -> Tuple[_Ref, ...]:
    """Teichmuller representatives of all residue-field elements."""
    return tuple(_ref_from_gr(spec, t) for t in teichmuller_set(spec.gr))


@lru_cache(maxsize=16)
def _ref_digit_terms(spec: ChainRingSpec) -> Tuple[Tuple[_Ref, ...], ...]:
    """terms[i][d] = u^i T(d), for every digit position i and residue digit d."""
    y = _ref_y_pow(spec, 1)
    terms = []
    u_pow = _ref_y_pow(spec, 0)
    for _ in range(spec.e):
        terms.append(tuple(_ref_mul(spec, u_pow, t) for t in _ref_teich(spec)))
        u_pow = _ref_mul(spec, u_pow, y)
    return tuple(terms)


def _ref_div_u(spec: ChainRingSpec, a: _Ref) -> _Ref:
    """One preimage of a (with a mod u = 0) under multiplication by u."""
    # a = 2*beta0 + y*(rest) with beta0 = a_0/2, and 2 = u * (-y^(kappa-1) g^(-1))
    beta0 = tuple(x >> 1 for x in a[0])
    shifted = list(a[1:]) + [gr_zero(spec.gr)]
    correction = _ref_mul(spec, _ref_from_gr(spec, beta0), _ref_div_u_factor(spec))
    return _ref_add(spec, _canonical(spec, shifted), correction)


def _ref_to_int(spec: ChainRingSpec, a: _Ref) -> int:
    """Digit index of a reference element: peel off one digit at a time."""
    teich = _ref_teich(spec)
    out = 0
    for i in range(spec.e):
        d = residue(spec.gr, a[0])
        out |= d << (spec.m * i)
        a = _ref_div_u(spec, _ref_add(spec, a, _ref_neg(spec, teich[d])))
    return out


def _ref_from_int(spec: ChainRingSpec, a: int) -> _Ref:
    """Reference element sum_i u^i T(d_i)."""
    mask = spec.q - 1
    out = _ref_zero(spec)
    for i, terms in enumerate(_ref_digit_terms(spec)):
        out = _ref_add(spec, out, terms[(a >> (spec.m * i)) & mask])
    return out


# ---------------------------------------------------------------------------
# the element kernel
# ---------------------------------------------------------------------------


class Ops(NamedTuple):
    """Element arithmetic of one ring, on digit indices."""

    add: Callable[[int, int], int]
    neg: Callable[[int], int]
    mul: Callable[[int, int], int]
    dot: Callable[[Sequence[int], Sequence[int]], int]  # sum of entrywise products


# Rings with at most this many elements get the table kernel.  R8,2 is
# exactly 2^16 and needs four tables of 2^16 two-byte entries (512 KB).
# Above 2^16 an entry no longer fits two bytes: a ring of 2^18 elements with
# q = 4 would need four tables of 2^18 four-byte entries, 4 MB, more than the
# benchmark's peak_rss_mb bound allows (10% of runs of about 25 MB).
_TABLE_MAX = 1 << 16


def _table_ops(spec: ChainRingSpec) -> Ops:
    """The kernel on packed additive coordinates.

    The additive group of R is Z_{2^s}^(m t) x Z_{2^(s-1)}^(m (kappa-t)):
    the coefficients of the reference tuple.  Packed side by side into one
    int of m*e bits (the coordinates of an element), two elements add by
    one carry-masked (SWAR) integer add.  coords and digits translate
    between digit indices and coordinates.  Because Teichmuller digits
    multiply, T(c) T(d) = T(cd), the product is a b = sum_j u^j T(b_j) a,
    and each term is carry-free: the digits of a scaled by b_j in the residue
    field (the scale tables) and shifted up j places.
    """
    m, e, q = spec.m, spec.e, spec.q
    s = spec.gr.s
    high = ones = pos = 0
    for i in range(spec.kappa):
        width = s if i < spec.t else s - 1
        for _ in range(m):
            high |= 1 << (pos + width - 1)
            ones |= 1 << pos
            pos += width
    full = (1 << pos) - 1  # pos == m*e
    low = full ^ high
    qmask = q - 1

    def pack(a: _Ref) -> int:
        out, shift = 0, 0
        for i, coeff in enumerate(a):
            width = s if i < spec.t else s - 1
            for c in coeff:
                out |= c << shift
                shift += width
        return out

    # coords[a] for a = d q^i + lo, lo < q^i: coords[lo] + coords of u^i T(d)
    coords = array("H", [0])
    for i, terms in enumerate(_ref_digit_terms(spec)):
        block = coords[: q**i]
        for d in range(1, q):
            c = pack(terms[d])
            cl = c & low
            coords.extend(((x & low) + cl) ^ ((x ^ c) & high) for x in block)
    digits = array("H", bytes(2 * len(coords)))
    for a, c in enumerate(coords):
        digits[c] = a
    scale: List[Optional[array]] = [None, None]  # digits 0 and 1 need no table
    for d in range(2, q):
        table = array("H", [0])
        for i in range(e):
            block = table[: q**i]
            for d2 in range(1, q):
                top = field_mul(spec.gr, d, d2) << (m * i)
                table.extend(top | x for x in block)
        scale.append(table)

    def add(a: int, b: int) -> int:
        x, y = coords[a], coords[b]
        return digits[((x & low) + (y & low)) ^ ((x ^ y) & high)]

    def neg(a: int) -> int:
        x = coords[a] ^ full  # fieldwise complement, then add one per field
        return digits[((x & low) + (ones & low)) ^ ((x ^ ones) & high)]

    def mul(a: int, b: int) -> int:
        return dot((a,), (b,))

    def dot(xs: Sequence[int], ys: Sequence[int]) -> int:
        acc = 0
        for a, b in zip(xs, ys):
            shift = 0
            while b:
                d = b & qmask
                if d:
                    t = ((a if d == 1 else scale[d][a]) << shift) & full
                    if not t:  # every later term is shifted out as well
                        break
                    c = coords[t]
                    acc = ((acc & low) + (c & low)) ^ ((acc ^ c) & high)
                b >>= m
                shift += m
        return digits[acc]

    return Ops(add, neg, mul, dot)


def _reference_ops(spec: ChainRingSpec) -> Ops:
    """The kernel of rings too large for tables: the reference arithmetic.

    A conversion between digit index and tuple costs about e ring products,
    so both directions keep the elements they saw last.
    """

    @lru_cache(maxsize=4096)
    def elem(a: int) -> _Ref:
        return _ref_from_int(spec, a)

    @lru_cache(maxsize=4096)
    def back(a: _Ref) -> int:
        return _ref_to_int(spec, a)

    def add(a: int, b: int) -> int:
        return back(_ref_add(spec, elem(a), elem(b)))

    def neg(a: int) -> int:
        return back(_ref_neg(spec, elem(a)))

    def mul(a: int, b: int) -> int:
        return back(_ref_mul(spec, elem(a), elem(b)))

    def dot(xs: Sequence[int], ys: Sequence[int]) -> int:
        acc = _ref_zero(spec)
        for a, b in zip(xs, ys):
            acc = _ref_add(spec, acc, _ref_mul(spec, elem(a), elem(b)))
        return back(acc)

    return Ops(add, neg, mul, dot)


# A process works with a handful of rings; the bound keeps a long-lived one
# from holding a kernel for every ring it ever saw.
@lru_cache(maxsize=8)
def _kernel(spec: ChainRingSpec) -> Ops:
    return _table_ops(spec) if spec.size() <= _TABLE_MAX else _reference_ops(spec)


# ---------------------------------------------------------------------------
# elements and arithmetic
# ---------------------------------------------------------------------------


def cr_zero(spec: ChainRingSpec) -> CRElem:
    return 0


def cr_one(spec: ChainRingSpec) -> CRElem:
    return 1


def cr_u(spec: ChainRingSpec) -> CRElem:
    """The generator u of the maximal ideal."""
    return cr_u_pow(spec, 1)


# The digit index of a constant costs about e reference products, and
# make_ring reads that of 2 for every spec it builds (the CLI builds one per
# query); a few constants per ring are ever asked for.
@lru_cache(maxsize=256)
def cr_from_int(spec: ChainRingSpec, c: int) -> CRElem:
    """The image of an integer constant."""
    return _ref_to_int(spec, _ref_from_gr(spec, gr_from_int(spec.gr, c)))


def cr_add(spec: ChainRingSpec, a: CRElem, b: CRElem) -> CRElem:
    return spec.ops.add(a, b)


def cr_neg(spec: ChainRingSpec, a: CRElem) -> CRElem:
    return spec.ops.neg(a)


def cr_sub(spec: ChainRingSpec, a: CRElem, b: CRElem) -> CRElem:
    ops = spec.ops
    return ops.add(a, ops.neg(b))


def cr_mul(spec: ChainRingSpec, a: CRElem, b: CRElem) -> CRElem:
    return spec.ops.mul(a, b)


def cr_pow(spec: ChainRingSpec, a: CRElem, n: int) -> CRElem:
    mul = spec.ops.mul
    out = 1
    while n:
        if n & 1:
            out = mul(out, a)
        a = mul(a, a)
        n >>= 1
    return out


def cr_is_unit(spec: ChainRingSpec, a: CRElem) -> bool:
    return pi0(spec, a) != 0


def cr_inv(spec: ChainRingSpec, a: CRElem) -> CRElem:
    """Inverse of a unit via the unit group order q^e - q^(e-1)."""
    if not cr_is_unit(spec, a):
        raise ValueError("not a unit")
    order = spec.size() - spec.size(spec.e - 1)
    return cr_pow(spec, a, order - 1)


def cr_u_pow(spec: ChainRingSpec, i: int) -> CRElem:
    return 1 << (spec.m * i) if i < spec.e else 0


# ---------------------------------------------------------------------------
# u-adic coordinates
# ---------------------------------------------------------------------------


def pi0(spec: ChainRingSpec, a: CRElem) -> int:
    """Residue-field image (a mod u), as an F_{2^m} bitmask."""
    return a & (spec.q - 1)


def cr_div_u(spec: ChainRingSpec, a: CRElem) -> CRElem:
    """One preimage of a under multiplication by u (requires a mod u = 0)."""
    if pi0(spec, a) != 0:
        raise ValueError("element is a unit; cannot divide by u")
    return a >> spec.m


# perfbench/run.py --trace 1 reports the cache_info() of to_u_adic and
# from_u_adic, so both keep a cache; the bound keeps a long-lived process
# from holding every element it ever converted.

@lru_cache(maxsize=4096)
def to_u_adic(spec: ChainRingSpec, a: CRElem) -> Tuple[int, ...]:
    """The e u-adic coordinates of a (Teichmuller digits, as field bitmasks)."""
    m, mask = spec.m, spec.q - 1
    return tuple((a >> (m * i)) & mask for i in range(spec.e))


@lru_cache(maxsize=4096)
def from_u_adic(spec: ChainRingSpec, digits: Tuple[int, ...]) -> CRElem:
    """Sum of u^i * teich(digits[i]); digits at positions >= e vanish (u^e = 0)."""
    out = 0
    for i, d in enumerate(digits):
        if not 0 <= d < spec.q:
            raise ValueError(f"u-adic digit {d!r} at position {i} is outside the "
                             f"residue field of size {spec.q}")
        if i < spec.e:
            out |= d << (spec.m * i)
    return out


def pi(spec: ChainRingSpec, i: int, a: CRElem) -> int:
    """u-adic coordinate i of a."""
    return (a >> (spec.m * i)) & (spec.q - 1)


def u_valuation(spec: ChainRingSpec, a: CRElem) -> int:
    """Largest i with a in <u^i> (e for a = 0)."""
    if not a:
        return spec.e
    return ((a & -a).bit_length() - 1) // spec.m


def truncate_elem(spec: ChainRingSpec, a: CRElem, level: int) -> CRElem:
    """Canonical representative of a in R_level (u-adic digits < level kept)."""
    if not 0 <= level <= spec.e:
        raise ValueError(f"level must be in 0..{spec.e}, got {level}")
    return a & ((1 << (spec.m * level)) - 1)


def two_unit_digits(spec: ChainRingSpec) -> Tuple[int, ...]:
    """Digits (eta_0, eta_1, ...) with 2 = u^kappa (eta_0 + eta_1 u + ...), eta_0 != 0."""
    digits = to_u_adic(spec, cr_from_int(spec, 2))
    assert not any(digits[: spec.kappa]) and digits[spec.kappa] != 0
    return digits[spec.kappa:]
