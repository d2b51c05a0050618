"""Finite commutative chain rings GR(2^s, m)[y] / <y^kappa + 2 g(y), 2^(s-1) y^t>.

The maximal ideal is generated by u = image of y; u has nilpotency index
e = kappa*(s-1) + t, and 2 lies in <u^kappa> \\ <u^(kappa+1)>. Quotients
R_l = R / <u^l> are represented by u-adically truncated elements of R.

An element is a plain int, its u-adic digit index sum_i d_i q^i: bits
m*i .. m*i+m-1 hold the Teichmuller digit d_i of u^i as a residue-field
bitmask, so a = sum_i u^i T(d_i).  Reading digits, truncating, the
valuation, multiplying by a power of u and dividing by u are shifts and
masks.  Sums, negatives and products go only through the ring's kernel
(ChainRingSpec.ops: add, neg, mul, dot), built on the first arithmetic
call: one body on packed additive coordinates for every ring, whose
look-ups between digit index and coordinates are arrays for rings of at
most _TABLE_MAX elements and are computed per element for larger rings.
The kernel also holds the packed-word layout, Ops.high and
Ops.level_masks, from which ringcodes.code_signature builds its lane and
level masks.  The nested-tuple arithmetic of this module is the
reference the kernel is built from and tested against.
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
# y^(kappa-1).  This is the definition the kernel is built from (the
# coordinates of the terms u^i T(d)) and tested against.
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


# The two caches below hold one small entry per ring; the bound keeps a
# long-lived process that sees many rings from growing.
# reuse: 229 hits, 8 misses per 8 s of closed_form (seed 3), from _ref_mul
@lru_cache(maxsize=16)
def _ref_g(spec: ChainRingSpec) -> _Ref:
    coeffs = [gr_from_int(spec.gr, c) for c in spec.g_int]
    coeffs += [gr_zero(spec.gr)] * (spec.kappa - len(coeffs))
    return _canonical(spec, coeffs)


# reuse: one hit per ring on every workload: make_ring's cr_from_int, then _kernel
@lru_cache(maxsize=16)
def _ref_digit_terms(spec: ChainRingSpec) -> Tuple[Tuple[_Ref, ...], ...]:
    """terms[i][d] = u^i T(d), for every digit position i and residue digit d."""
    y = _ref_y_pow(spec, 1)
    teich = [_ref_from_gr(spec, t) for t in teichmuller_set(spec.gr)]
    terms = []
    u_pow = _ref_y_pow(spec, 0)
    for _ in range(spec.e):
        terms.append(tuple(_ref_mul(spec, u_pow, t) for t in teich))
        u_pow = _ref_mul(spec, u_pow, y)
    return tuple(terms)


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
    """Element arithmetic of one ring, on digit indices.

    coords and digits translate between a digit index and the element's
    packed additive coordinates (see _coord_high); scale[d](a) is T(d) a,
    the digits of a scaled by d in the residue field.

    high is _coord_high.  level_masks[l], l = 0..e, holds the coordinate
    bits of the digits below l: keeping them reduces each field modulo a
    power of 2, an additive map whose kernel is <u^l> (see _digit_bits), so
    coords(a) & level_masks[l] is one representative of a + <u^l>, which
    decodes to an element with a's digits below l.
    """

    add: Callable[[int, int], int]
    neg: Callable[[int], int]
    mul: Callable[[int, int], int]
    dot: Callable[[Sequence[int], Sequence[int]], int]  # sum of entrywise products
    coords: Callable[[int], int]
    digits: Callable[[int], int]
    scale: Tuple[Callable[[int], int], ...]
    high: int
    level_masks: Tuple[int, ...]


def _field_widths(spec: ChainRingSpec) -> List[int]:
    """Bit widths of the coordinate fields, m per coefficient of the
    reference tuple: s below the torsion cut t, s - 1 from t on."""
    s = spec.gr.s
    return [s if i < spec.t else s - 1 for i in range(spec.kappa) for _ in range(spec.m)]


def _coord_high(spec: ChainRingSpec) -> int:
    """The top bit of every field of the packed additive coordinates.

    The additive group of R is Z_{2^s}^(m t) x Z_{2^(s-1)}^(m (kappa-t)):
    the coefficients of the reference tuple.  Packed side by side into one
    int of m*e bits (the coordinates of an element), two elements add by
    one carry-masked (SWAR) integer add: with low the other bits,
    ((x & low) + (y & low)) ^ ((x ^ y) & high).
    """
    high = pos = 0
    for width in _field_widths(spec):
        pos += width
        high |= 1 << (pos - 1)
    return high


def _pack_ref(spec: ChainRingSpec, a: _Ref) -> int:
    """The packed additive coordinates of a reference element."""
    out = shift = 0
    for c, width in zip((c for coeff in a for c in coeff), _field_widths(spec)):
        out |= c << shift
        shift += width
    return out


def _digit_bits(spec: ChainRingSpec) -> List[List[int]]:
    """bits[i][j]: the coordinate bit that holds bit j of digit i.

    Digit i = k kappa + r sits at bit k of the m fields of coefficient r.
    Since u^i = y^r (-2 g(y))^k, the term u^i T(d) has coefficient r equal
    to 2^k T(d) times an odd constant, plus multiples of 2^(k+1), and its
    coefficients below r are multiples of 2^(k+1); every later term of an
    element of <u^i> adds multiples of 2^(k+1) to coefficient r.  So an
    element of <u^i> has no lower bits in those fields, and its bit k there
    is d_i (T(d) = d modulo 2); an element of <u^(i+1)> has none at all.
    """
    starts = [0]
    for width in _field_widths(spec):
        starts.append(starts[-1] + width)
    m, kappa = spec.m, spec.kappa
    return [[starts[m * (i % kappa) + j] + i // kappa for j in range(m)]
            for i in range(spec.e)]


def _readers(spec: ChainRingSpec) -> Tuple[Callable[[int], int], Callable[[int], int]]:
    """coords(a) and its inverse digits(c), computed per element.

    coords(a) is the SWAR sum of the coordinates of the terms u^i T(d_i) of
    a.  digits(c) reads digit i where _digit_bits puts it, adds the
    coordinates of -u^i T(d_i), which leaves an element of <u^(i+1)>, and
    moves on.
    """
    m = spec.m
    high = _coord_high(spec)
    low = ((1 << (m * spec.e)) - 1) ^ high
    qmask = spec.q - 1
    terms = _ref_digit_terms(spec)
    plus = [[_pack_ref(spec, x) for x in row] for row in terms]
    minus = [[_pack_ref(spec, _ref_neg(spec, x)) for x in row] for row in terms]
    steps = list(zip(range(0, m * spec.e, m), _digit_bits(spec), minus))

    def coords(a: int) -> int:
        acc = 0
        for row in plus:
            if not a:
                break
            c = row[a & qmask]
            acc = ((acc & low) + (c & low)) ^ ((acc ^ c) & high)
            a >>= m
        return acc

    def digits(c: int) -> int:
        out = 0
        for shift, bits, row in steps:
            if not c:
                break
            d = 0
            for j, b in enumerate(bits):
                d |= ((c >> b) & 1) << j
            if d:
                out |= d << shift
                x = row[d]
                c = ((c & low) + (x & low)) ^ ((c ^ x) & high)
        return out

    return coords, digits


def _digit_scaler(spec: ChainRingSpec, d: int) -> Callable[[int], int]:
    """times(a): T(d) a, each digit of a multiplied by d in the residue field."""
    m, mask = spec.m, spec.q - 1
    prods = [field_mul(spec.gr, d, x) for x in range(spec.q)]

    def times(a: int) -> int:
        out = shift = 0
        while a:
            out |= prods[a & mask] << shift
            a >>= m
            shift += m
        return out

    return times


class _OnDemand:
    """Stands in for a table too large to store: self[x] computes entry(x)."""

    __slots__ = ("entry",)

    def __init__(self, entry: Callable[[int], int]):
        self.entry = entry

    def __getitem__(self, x: int) -> int:
        return self.entry(x)


# Rings with at most this many elements keep coords, digits and scale in
# arrays, R8,2's four of 2^16 two-byte entries taking 512 KB; larger rings
# compute each entry.  A ring of 2^18 elements with q = 4 would need 4 MB of
# four-byte entries, over the benchmark's peak_rss_mb bound (10% of 25 MB).
_TABLE_MAX = 1 << 16


# A process works with a handful of rings; the bound keeps a long-lived one
# from holding a kernel for every ring it ever saw.
# reuse: 0 hits on the workloads; a CLI query's fresh R8,2 spec reuses a 57 ms build
@lru_cache(maxsize=8)
def _kernel(spec: ChainRingSpec) -> Ops:
    """The kernel on packed additive coordinates (see _coord_high).

    Because Teichmuller digits multiply, T(c) T(d) = T(cd), the product is
    a b = sum_j u^j T(b_j) a, and each term is carry-free: the digits of a
    scaled by b_j in the residue field (scale[b_j]) and shifted up j places.
    """
    m, e, q = spec.m, spec.e, spec.q
    high = _coord_high(spec)
    full = (1 << (m * e)) - 1
    low = full ^ high
    ones = ((high << 1) | 1) & full  # the lowest bit of every field
    qmask = q - 1

    if spec.size() > _TABLE_MAX:
        coords, digits = map(_OnDemand, _readers(spec))
        scale = [None, None] + [_OnDemand(_digit_scaler(spec, d)) for d in range(2, q)]
    else:
        # coords[a] for a = d q^i + lo, lo < q^i: coords[lo] + coords of u^i T(d)
        coords = array("H", [0])
        for i, terms in enumerate(_ref_digit_terms(spec)):
            block = coords[: q**i]
            for d in range(1, q):
                c = _pack_ref(spec, terms[d])
                cl = c & low
                coords.extend(((x & low) + cl) ^ ((x ^ c) & high) for x in block)
        digits = array("H", bytes(2 * len(coords)))
        for a, c in enumerate(coords):
            digits[c] = a
        scale = [None, None]  # digits 0 and 1 need no table
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

    scalers = tuple(_digit_scaler(spec, d) for d in (0, 1))
    scalers += tuple(t.__getitem__ for t in scale[2:])
    per_digit = [sum(1 << b for b in bits) for bits in _digit_bits(spec)]
    level_masks = tuple(sum(per_digit[:level]) for level in range(e + 1))
    return Ops(add, neg, mul, dot, coords.__getitem__, digits.__getitem__, scalers,
               high, level_masks)


# ---------------------------------------------------------------------------
# constants, powers and inverses (sums and products: ChainRingSpec.ops)
# ---------------------------------------------------------------------------


# A constant costs about e q reference products, and make_ring reads the
# constant 2 for every spec it builds (the CLI builds one per query).
# reuse: 18,101 hits, 8 misses per 8 s of closed_form (seed 3)
@lru_cache(maxsize=256)
def cr_from_int(spec: ChainRingSpec, c: int) -> CRElem:
    """The image of an integer constant."""
    digits = _readers(spec)[1]
    return digits(_pack_ref(spec, _ref_from_gr(spec, gr_from_int(spec.gr, c))))


def cr_pow(spec: ChainRingSpec, a: CRElem, n: int) -> CRElem:
    mul = spec.ops.mul
    out = 1
    while n:
        if n & 1:
            out = mul(out, a)
        a = mul(a, a)
        n >>= 1
    return out


def cr_inv(spec: ChainRingSpec, a: CRElem) -> CRElem:
    """Inverse of a unit via the unit group order q^e - q^(e-1)."""
    if not pi0(spec, a):
        raise ValueError("not a unit")
    order = spec.size() - spec.size(spec.e - 1)
    return cr_pow(spec, a, order - 1)


# ---------------------------------------------------------------------------
# u-adic coordinates
# ---------------------------------------------------------------------------


def pi0(spec: ChainRingSpec, a: CRElem) -> int:
    """Residue-field image (a mod u), as an F_{2^m} bitmask."""
    return a & (spec.q - 1)


# perfbench/run.py --trace 1 reports the cache_info() of to_u_adic and
# from_u_adic, so both keep a cache; the bound keeps a long-lived process
# from holding every element it ever converted.
# reuse: 0 hits, 0 misses per 8 s of every workload (seed 3)
@lru_cache(maxsize=4096)
def to_u_adic(spec: ChainRingSpec, a: CRElem) -> Tuple[int, ...]:
    """The e u-adic coordinates of a (Teichmuller digits, as field bitmasks)."""
    m, mask = spec.m, spec.q - 1
    return tuple((a >> (m * i)) & mask for i in range(spec.e))


# reuse: 0 hits, 0 misses per 8 s of every workload (seed 3); nothing in
# the package calls it, only the tests
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
