"""Finite commutative chain rings GR(2^s, m)[y] / <y^kappa + 2 g(y), 2^(s-1) y^t>.

The maximal ideal is generated by u = image of y; u has nilpotency index
e = kappa*(s-1) + t, and 2 lies in <u^kappa> \\ <u^(kappa+1)>. Quotients
R_l = R / <u^l> are represented by u-adically truncated elements of R.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from .galois import (
    GRElem,
    GRSpec,
    gr_add,
    gr_from_int,
    gr_inv,
    gr_is_unit,
    gr_mul,
    gr_neg,
    gr_one,
    gr_zero,
    make_galois_ring,
    residue,
    teichmuller_lift,
)

CRElem = Tuple[GRElem, ...]  # coefficients of 1, y, ..., y^(kappa-1)


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
# element construction and canonical form
# ---------------------------------------------------------------------------

def _canonical(spec: ChainRingSpec, coeffs: list) -> CRElem:
    """Reduce coefficient i mod 2^(s-1) for i >= t (since 2^(s-1) y^t = 0)."""
    ch_low = 1 << (spec.gr.s - 1)
    out = []
    for i, c in enumerate(coeffs[:spec.kappa]):
        if i >= spec.t:
            c = tuple(x % ch_low for x in c)
        out.append(c)
    return tuple(out)


def cr_zero(spec: ChainRingSpec) -> CRElem:
    return (gr_zero(spec.gr),) * spec.kappa


def cr_one(spec: ChainRingSpec) -> CRElem:
    return _canonical(spec, [gr_one(spec.gr)] + [gr_zero(spec.gr)] * (spec.kappa - 1))


def cr_u(spec: ChainRingSpec) -> CRElem:
    """The generator u of the maximal ideal."""
    z, o = gr_zero(spec.gr), gr_one(spec.gr)
    return _canonical(spec, [z, o] + [z] * (spec.kappa - 2))


def cr_from_gr(spec: ChainRingSpec, a: GRElem) -> CRElem:
    return _canonical(spec, [a] + [gr_zero(spec.gr)] * (spec.kappa - 1))


def cr_from_int(spec: ChainRingSpec, c: int) -> CRElem:
    return cr_from_gr(spec, gr_from_int(spec.gr, c))


@lru_cache(maxsize=None)
def _g_elem(spec: ChainRingSpec) -> CRElem:
    coeffs = [gr_from_int(spec.gr, c) for c in spec.g_int]
    coeffs += [gr_zero(spec.gr)] * (spec.kappa - len(coeffs))
    return _canonical(spec, coeffs)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def cr_add(spec: ChainRingSpec, a: CRElem, b: CRElem) -> CRElem:
    gr = spec.gr
    return _canonical(spec, [gr_add(gr, x, y) for x, y in zip(a, b)])


def cr_neg(spec: ChainRingSpec, a: CRElem) -> CRElem:
    gr = spec.gr
    return _canonical(spec, [gr_neg(gr, x) for x in a])


def cr_sub(spec: ChainRingSpec, a: CRElem, b: CRElem) -> CRElem:
    return cr_add(spec, a, cr_neg(spec, b))


def cr_mul(spec: ChainRingSpec, a: CRElem, b: CRElem) -> CRElem:
    gr, k = spec.gr, spec.kappa
    prod = [gr_zero(gr)] * (2 * k - 1)
    for i, x in enumerate(a):
        if any(x):
            for j, y in enumerate(b):
                prod[i + j] = gr_add(gr, prod[i + j], gr_mul(gr, x, y))
    # reduce with y^kappa = -2 g(y); deg g < kappa makes this terminate
    two = gr_from_int(gr, 2)
    g = _g_elem(spec)
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


def cr_pow(spec: ChainRingSpec, a: CRElem, n: int) -> CRElem:
    out = cr_one(spec)
    while n:
        if n & 1:
            out = cr_mul(spec, out, a)
        a = cr_mul(spec, a, a)
        n >>= 1
    return out


def cr_is_unit(spec: ChainRingSpec, a: CRElem) -> bool:
    return residue(spec.gr, a[0]) != 0


def cr_inv(spec: ChainRingSpec, a: CRElem) -> CRElem:
    """Inverse of a unit via the unit group order q^e - q^(e-1)."""
    if not cr_is_unit(spec, a):
        raise ValueError("not a unit")
    order = spec.size() - spec.size(spec.e - 1)
    return cr_pow(spec, a, order - 1)


@lru_cache(maxsize=None)
def _u_power(spec: ChainRingSpec, i: int) -> CRElem:
    if i == 0:
        return cr_one(spec)
    return cr_mul(spec, _u_power(spec, i - 1), cr_u(spec))


def cr_u_pow(spec: ChainRingSpec, i: int) -> CRElem:
    return _u_power(spec, i) if i < spec.e else cr_zero(spec)


# ---------------------------------------------------------------------------
# u-adic coordinates
# ---------------------------------------------------------------------------

def pi0(spec: ChainRingSpec, a: CRElem) -> int:
    """Residue-field image (a mod u), as an F_{2^m} bitmask."""
    return residue(spec.gr, a[0])


@lru_cache(maxsize=None)
def _div_u_factor(spec: ChainRingSpec) -> CRElem:
    """-y^(kappa-1) g(y)^(-1), so that 2*c = u * (factor * c) for any c."""
    return cr_neg(spec, cr_mul(spec, cr_u_pow(spec, spec.kappa - 1), cr_inv(spec, _g_elem(spec))))


def cr_div_u(spec: ChainRingSpec, a: CRElem) -> CRElem:
    """One preimage of a under multiplication by u (requires a mod u = 0)."""
    if pi0(spec, a) != 0:
        raise ValueError("element is a unit; cannot divide by u")
    # a = 2*beta0 + y*(rest) with beta0 = a_0/2, and 2 = u * (-y^(kappa-1) g^(-1))
    beta0 = tuple(x >> 1 for x in a[0])
    shifted = list(a[1:]) + [gr_zero(spec.gr)]
    correction = cr_mul(spec, _div_u_factor(spec), cr_from_gr(spec, beta0))
    return cr_add(spec, _canonical(spec, shifted), correction)


@lru_cache(maxsize=None)
def _teich(spec: ChainRingSpec, c: int) -> CRElem:
    return cr_from_gr(spec, teichmuller_lift(spec.gr, c))


def teich_elem(spec: ChainRingSpec, c: int) -> CRElem:
    """Teichmuller representative of a residue-field element."""
    return _teich(spec, c)


@lru_cache(maxsize=None)
def to_u_adic(spec: ChainRingSpec, a: CRElem) -> Tuple[int, ...]:
    """The e u-adic coordinates of a (Teichmuller digits, as field bitmasks)."""
    digits = []
    cur = a
    for _ in range(spec.e):
        d = pi0(spec, cur)
        digits.append(d)
        cur = cr_div_u(spec, cr_sub(spec, cur, _teich(spec, d)))
    return tuple(digits)


@lru_cache(maxsize=None)
def from_u_adic(spec: ChainRingSpec, digits: Tuple[int, ...]) -> CRElem:
    """Sum of u^i * teich(digits[i])."""
    out = cr_zero(spec)
    for i, d in enumerate(digits):
        if d and i < spec.e:
            out = cr_add(spec, out, cr_mul(spec, cr_u_pow(spec, i), _teich(spec, d)))
    return out


def pi(spec: ChainRingSpec, i: int, a: CRElem) -> int:
    """u-adic coordinate i of a."""
    return to_u_adic(spec, a)[i]


def u_valuation(spec: ChainRingSpec, a: CRElem) -> int:
    """Largest i with a in <u^i> (e for a = 0)."""
    digits = to_u_adic(spec, a)
    for i, d in enumerate(digits):
        if d:
            return i
    return spec.e


def truncate_elem(spec: ChainRingSpec, a: CRElem, level: int) -> CRElem:
    """Canonical representative of a in R_level (u-adic digits < level kept)."""
    if not 0 <= level <= spec.e:
        raise ValueError(f"level must be in 0..{spec.e}, got {level}")
    return from_u_adic(spec, to_u_adic(spec, a)[:level])


@lru_cache(maxsize=None)
def two_unit_digits(spec: ChainRingSpec) -> Tuple[int, ...]:
    """Digits (eta_0, eta_1, ...) with 2 = u^kappa (eta_0 + eta_1 u + ...), eta_0 != 0."""
    digits = to_u_adic(spec, cr_from_int(spec, 2))
    assert not any(digits[: spec.kappa]) and digits[spec.kappa] != 0
    return digits[spec.kappa:]


# level-aware wrappers: operate in R_e, then truncate back into R_level

def cr_add_at(spec: ChainRingSpec, level: int, a: CRElem, b: CRElem) -> CRElem:
    return truncate_elem(spec, cr_add(spec, a, b), level)


def cr_mul_at(spec: ChainRingSpec, level: int, a: CRElem, b: CRElem) -> CRElem:
    return truncate_elem(spec, cr_mul(spec, a, b), level)
