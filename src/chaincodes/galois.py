"""Galois rings GR(2^s, m) of characteristic 2^s and residue degree m."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

GRElem = Tuple[int, ...]  # coefficients of 1, x, ..., x^(m-1), each mod 2^s

# default residue-field moduli by degree, as coefficient tuples of 1, x, ..., x^m
_DEFAULT_MODULI = {
    1: (0, 1),        # x
    2: (1, 1, 1),     # x^2 + x + 1
}


@dataclass(frozen=True)
class GRSpec:
    """Parameters of GR(2^s, m) = Z_{2^s}[x] / <modulus>."""

    s: int                    # characteristic is 2^s
    m: int                    # residue field is F_{2^m}
    modulus: Tuple[int, ...]  # monic, degree m, coefficients mod 2^s

    @property
    def char(self) -> int:
        return 1 << self.s

    @property
    def q(self) -> int:
        """Residue field size 2^m."""
        return 1 << self.m

    @property
    def size(self) -> int:
        return 1 << (self.s * self.m)

    @cached_property
    def field_modulus(self) -> int:
        """Residue of the modulus as an F_2[x] bitmask (bit i = coeff of x^i)."""
        return sum((c & 1) << i for i, c in enumerate(self.modulus))


def _poly2_is_irreducible(f: int, deg: int) -> bool:
    """Check irreducibility of a degree-deg polynomial over F_2 (bitmask form)."""
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):  # monic divisors of degree d
            if _poly2_mod(f, g) == 0:
                return False
    return True


def _poly2_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b over F_2."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def make_galois_ring(s: int, m: int, modulus: Optional[Tuple[int, ...]] = None) -> GRSpec:
    """Build a GR(2^s, m) spec, validating the modulus."""
    if s < 1:
        raise ValueError(f"characteristic exponent must be >= 1, got {s}")
    if m < 1:
        raise ValueError(f"residue degree must be >= 1, got {m}")
    if modulus is None:
        if m not in _DEFAULT_MODULI:
            raise ValueError(f"no default modulus for residue degree {m}; pass one explicitly")
        modulus = _DEFAULT_MODULI[m]
    modulus = tuple(c % (1 << s) for c in modulus)
    if len(modulus) != m + 1:
        raise ValueError(f"modulus must have degree {m}, got {len(modulus) - 1}")
    if modulus[-1] != 1:
        raise ValueError("modulus must be monic")
    spec = GRSpec(s=s, m=m, modulus=modulus)
    if m >= 2 and not _poly2_is_irreducible(spec.field_modulus, m):
        raise ValueError("modulus residue must be irreducible over F_2")
    return spec


# ---------------------------------------------------------------------------
# ring arithmetic on coefficient tuples
# ---------------------------------------------------------------------------

def gr_zero(R: GRSpec) -> GRElem:
    return (0,) * R.m


def gr_one(R: GRSpec) -> GRElem:
    return (1,) + (0,) * (R.m - 1)


def gr_from_int(R: GRSpec, c: int) -> GRElem:
    """Embed an integer constant."""
    return (c % R.char,) + (0,) * (R.m - 1)


def gr_add(R: GRSpec, a: GRElem, b: GRElem) -> GRElem:
    ch = R.char
    return tuple((x + y) % ch for x, y in zip(a, b))


def gr_neg(R: GRSpec, a: GRElem) -> GRElem:
    ch = R.char
    return tuple((-x) % ch for x in a)


def gr_mul(R: GRSpec, a: GRElem, b: GRElem) -> GRElem:
    m, ch = R.m, R.char
    if m == 1:
        return ((a[0] * b[0]) % ch,)
    t = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                t[i + j] += x * y
    # reduce by the monic modulus: x^m = -(f_0 + f_1 x + ... + f_{m-1} x^{m-1})
    f = R.modulus
    for i in range(2 * m - 2, m - 1, -1):
        c = t[i] % ch
        if c:
            t[i] = 0
            for j in range(m):
                t[i - m + j] -= c * f[j]
    return tuple(v % ch for v in t[:m])


def gr_pow(R: GRSpec, a: GRElem, k: int) -> GRElem:
    out = gr_one(R)
    base = a
    while k:
        if k & 1:
            out = gr_mul(R, out, base)
        base = gr_mul(R, base, base)
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# residue field F_{2^m} (elements as bitmasks) and Teichmuller lifts
# ---------------------------------------------------------------------------

def residue(R: GRSpec, a: GRElem) -> int:
    """Image in the residue field, as a bitmask."""
    return sum((c & 1) << i for i, c in enumerate(a))


def field_lift(R: GRSpec, c: int) -> GRElem:
    """Coefficient-wise 0/1 lift of a residue-field element."""
    return tuple((c >> i) & 1 for i in range(R.m))


def teichmuller_lift(R: GRSpec, c: int) -> GRElem:
    """The unique lift of c fixed by the 2^m power map."""
    z = field_lift(R, c)
    for _ in range(R.s - 1):
        z = gr_pow(R, z, R.q)
    return z


def teichmuller_set(R: GRSpec) -> Tuple[GRElem, ...]:
    """All Teichmuller representatives, indexed by residue."""
    return tuple(teichmuller_lift(R, c) for c in range(R.q))


def field_mul(R: GRSpec, a: int, b: int) -> int:
    """Carry-less product mod the modulus residue."""
    out = 0
    fbar = R.field_modulus
    m = R.m
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= fbar
    return out


def field_pow(R: GRSpec, a: int, k: int) -> int:
    out = 1
    while k:
        if k & 1:
            out = field_mul(R, out, a)
        a = field_mul(R, a, a)
        k >>= 1
    return out


def field_inv(R: GRSpec, a: int) -> int:
    if a == 0:
        raise ValueError("0 has no inverse")
    return field_pow(R, a, R.q - 2)


# ---------------------------------------------------------------------------
# textual format: residue-field elements in power-of-generator notation
# ---------------------------------------------------------------------------

def format_field_elem(R: GRSpec, c: int) -> str:
    """Residue-field element as "0", "1", or a power of the generator."""
    if c == 0:
        return "0"
    if c == 1:
        return "1"
    a, k = 2, 1
    while a != c:
        a = field_mul(R, a, 2)
        k += 1
        if k >= R.q:
            raise ValueError(f"{c} is not a residue-field element bitmask")
    return "ξ" if k == 1 else f"ξ^{k}"


def parse_field_elem(R: GRSpec, text: str) -> int:
    """Inverse of format_field_elem; also takes sums and x-power notation."""
    total = 0
    for raw in text.split("+"):
        term = raw.strip().replace("xi", "ξ")
        if term == "0":
            continue
        if term == "1":
            total ^= 1
        elif term in ("ξ", "x"):
            total ^= 2
        elif term.startswith(("ξ^", "x^")):
            total ^= field_pow(R, 2, int(term[2:]))
        elif term.isdigit() and int(term) < R.q:
            total ^= int(term)
        else:
            raise ValueError(f"cannot parse field element term {raw!r}")
    return total
