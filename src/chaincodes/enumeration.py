"""Closed-form counting of self-orthogonal and self-dual codes by type.

Everything here is exact integer arithmetic.  The per-type counts factor
as (number of admissible residue-field chains) x (lifts per chain); both
factors are evaluated from their closed forms, with the chain-family
counts split by where the all-one word enters the chain.  The number of
doubly even field codes of a given dimension has no closed form here and
is supplied by an exhaustive counter behind a pluggable hook.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, Tuple

from .chain import ChainRingSpec
from .fieldcodes import sigma_doubly_even

__all__ = [
    "gaussian_binomial",
    "sigma",
    "set_sigma_impl",
    "so_feasible",
    "sd_type_shape_ok",
    "chain_family_counts",
    "b_theta",
    "per_chain_lift_count",
    "count_so_type",
    "count_sd_type",
    "total_counts",
]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The q-binomial coefficient [n choose k]_q, exactly."""
    if k < 0 or n < 0 or k > n:
        return 0
    k = min(k, n - k)
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return _exact_div(num, den)


def _exact_div(num: int, den: int) -> int:
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-exact division {num}/{den}")
    return quo


# The doubly-even subspace counter is pluggable so a closed form can be
# swapped in later without touching the formulas that consume it.
_sigma_impl: Callable[[int, int, int, bool], int] = sigma_doubly_even


def set_sigma_impl(fn: Callable[[int, int, int, bool], int]) -> None:
    global _sigma_impl
    _sigma_impl = fn


def sigma(n: int, d: int, m: int, with_one: bool) -> int:
    """Number of doubly even [n, d] codes over the degree-m field.

    with_one restricts to codes containing the all-one word.
    """
    return _sigma_impl(n, d, m, with_one)


# ---------------------------------------------------------------------------
# type bookkeeping
# ---------------------------------------------------------------------------


def _check_type(spec: ChainRingSpec, lambdas: Sequence[int]) -> None:
    if len(lambdas) != spec.e:
        raise ValueError("type tuple must have one entry per depth")
    if any(x < 0 for x in lambdas):
        raise ValueError("type entries must be nonnegative")


def _cum(lambdas: Sequence[int]) -> Callable[[int], int]:
    sums = [0]
    for x in lambdas:
        sums.append(sums[-1] + x)

    def cum(i: int) -> int:
        if i <= 0:
            return 0
        return sums[i]

    return cum


def _break_crossable(n: int, m: int) -> bool:
    """n = 0 (mod 8), or n = 4 (mod 8) over a field of even degree.

    At even length this splits the chain counts into their two forms, and
    it is exactly when the all-one word may sit at the ramification break
    and still lift across it.
    """
    return n % 8 == 0 or (n % 8 == 4 and m % 2 == 0)


def so_feasible(spec: ChainRingSpec, n: int, lambdas: Sequence[int]) -> bool:
    """Whether a self-orthogonal code of this type can exist at all.

    The pairing of each scale with its mirror forces cumulative dimension
    bounds on the upper half of the type.
    """
    _check_type(spec, lambdas)
    return _feasible(spec.e, n, _cum(lambdas))


def _feasible(e: int, n: int, cum: Callable[[int], int]) -> bool:
    for i in range(e // 2 + 1, e + 1):
        if cum(i) + cum(e - i + 1) > n:
            return False
    return True


def sd_type_shape_ok(spec: ChainRingSpec, n: int, lambdas: Sequence[int]) -> bool:
    """Whether the type has the palindromic shape self-dual codes need."""
    _check_type(spec, lambdas)
    return _sd_shape(spec.e, n, lambdas, _cum(lambdas))


def _sd_shape(e: int, n: int, lambdas: Sequence[int], cum: Callable[[int], int]) -> bool:
    if lambdas[0] != n - cum(e):
        return False
    for j in range(2, e + 1):
        if lambdas[j - 1] != lambdas[e - j + 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# chain-family counts
# ---------------------------------------------------------------------------


def _ratio_product(q: int, n: int, anchor: int, start: int, stop: int, shift: int) -> int:
    """prod over g in [start, stop) of (q^(n-2g-shift) - 1)/(q^(g+1-anchor) - 1).

    Only the whole product is an integer, not each factor, so the
    numerators and denominators are multiplied out before one division.
    """
    num = 1
    den = 1
    for g in range(start, stop):
        num *= q ** (n - 2 * g - shift) - 1
        den *= q ** (g + 1 - anchor) - 1
    return _exact_div(num, den)


def _d_zero(q: int, m: int, n: int, lam: int) -> int:
    """Chains-without-all-one base factor for even length (dim = lam)."""
    if lam == 0:
        return 1
    if lam > n // 2 - 1:
        return 0
    h = n // 2
    r8 = n % 8
    if r8 in (2, 6):
        lead = _exact_div(
            (q ** (h - 1) - 1) * (q ** (h - lam - 1) + 1), q - 1
        )
        out = lead
        for i in range(1, lam):
            out = out * _exact_div(q ** (n - 2 - 2 * i) - 1, q ** (i + 1) - 1)
        return out
    if _break_crossable(n, m):
        out = 1
        for i in range(lam):
            num = q ** (n - 2 * i - 3) + q ** (h - 1 - i) - q ** (h - i - 2) - 1
            out = out * _exact_div(num, q ** (i + 1) - 1)
        return out
    # n = 4 mod 8, odd-degree field
    out = 1
    for i in range(lam):
        num = q ** (n - 2 * i - 3) - q ** (h - 1 - i) + q ** (h - i - 2) - 1
        out = out * _exact_div(num, q ** (i + 1) - 1)
    return out


def _b_zero(q: int, m: int, n: int, lam: int) -> int:
    """Companion factor counting the all-one-bearing branch at even length."""
    if lam == 0 or lam > n // 2 - 1:
        return 0
    h = n // 2
    r8 = n % 8
    if r8 in (2, 6):
        lead = q ** (n - 2 * lam - 1) - q ** (h - lam - 1)
    elif _break_crossable(n, m):
        lead = q ** (n - 2 * lam - 1) + q ** (h - lam) - q ** (h - lam - 1) - 1
    else:
        lead = q ** (n - 2 * lam - 1) - q ** (h - lam) + q ** (h - lam - 1) - 1
    out = lead
    for i in range(lam - 1):
        num = q ** (n - 2 * i - 3) + q ** (h - 1 - i) - q ** (h - i - 2) - 1
        out = out * _exact_div(num, q ** (i + 1) - 1)
    return out


def chain_family_counts(
    kind: str,
    spec: ChainRingSpec,
    n: int,
    lambdas: Sequence[int],
    omega: int = 0,
) -> int:
    """Number of admissible chains in one membership family.

    kind "N": chains whose doubly-even anchor member misses the all-one
    word.  kind "Y": the all-one word enters exactly omega steps below the
    anchor.  kind "M": it reaches the break-depth member (only when the
    break sits in the lower half).  kind "Z": it reaches the very first
    member (only when the break sits in the upper half).
    """
    _check_type(spec, lambdas)
    return _family_count(kind, spec, n, lambdas, _cum(lambdas), omega)


def _family_count(
    kind: str,
    spec: ChainRingSpec,
    n: int,
    lambdas: Sequence[int],
    cum: Callable[[int], int],
    omega: int = 0,
) -> int:
    e = spec.e
    s = e // 2
    theta = e % 2
    kappa = spec.kappa
    kappa1 = (kappa - 1) // 2
    m = spec.m
    q = spec.q
    anchor = cum(s - kappa1)
    top = cum(s + theta)

    def lam(i: int) -> int:
        return lambdas[i - 1]

    if kind == "N":
        if top == 0:
            return 1
        head = 1
        for i in range(1, s - kappa1 + 1):
            head *= gaussian_binomial(cum(i), lam(i), q)
        tail = 1
        for j in range(s - kappa1 + 1, s + theta + 1):
            tail *= gaussian_binomial(cum(j) - anchor, lam(j), q)
        if n % 2 == 1:
            base = sigma(n, anchor, m, False)
            return base * head * tail * _ratio_product(q, n, anchor, anchor, top, 1)
        d0 = _d_zero(q, m, n, anchor)
        b0 = _b_zero(q, m, n, anchor)
        if top == anchor:
            return (d0 + b0) * head
        gap = q ** (top - anchor) - 1
        lead = d0 * _exact_div(q ** (n - top - anchor) - 1, gap) + b0 * _exact_div(
            q ** (n - 2 * top) + q ** (top - anchor) - 2, gap
        )
        return lead * head * tail * _ratio_product(q, n, anchor, anchor, top - 1, 2)

    if kind == "Y":
        entry = s - kappa1 - omega
        if entry < 1 or cum(entry) == 0:
            return 0
        out = sigma(n, anchor, m, True)
        out *= q ** cum(entry - 1)
        out *= gaussian_binomial(anchor - 1, anchor - cum(entry), q)
        out *= gaussian_binomial(cum(entry) - 1, cum(entry - 1), q)
        for i in range(1, entry):
            out *= gaussian_binomial(cum(i), lam(i), q)
        for a in range(entry + 1, s - kappa1 + 1):
            out *= gaussian_binomial(cum(a) - cum(entry), lam(a), q)
        for b in range(s - kappa1 + 1, s + theta + 1):
            out *= gaussian_binomial(cum(b) - anchor, lam(b), q)
        return out * _ratio_product(q, n, anchor, anchor, top, 0)

    if kind == "M":
        if 2 * kappa > e:
            raise ValueError("this family needs the break in the lower half")
        entry = s - kappa + theta
        if entry < 1 or cum(entry) == 0:
            return 0
        out = sigma(n, anchor, m, True)
        out *= _ratio_product(q, n, anchor, anchor, top, 0)
        out *= gaussian_binomial(anchor - 1, anchor - cum(entry), q)
        for i in range(1, entry + 1):
            out *= gaussian_binomial(cum(i), lam(i), q)
        for b in range(entry + 1, s - kappa1 + 1):
            out *= gaussian_binomial(cum(b) - cum(entry), lam(b), q)
        for d in range(s - kappa1 + 1, s + theta + 1):
            out *= gaussian_binomial(cum(d) - anchor, lam(d), q)
        return out

    if kind == "Z":
        if 2 * kappa <= e:
            raise ValueError("this family needs the break in the upper half")
        if cum(1) == 0:
            return 0
        out = sigma(n, anchor, m, True)
        out *= gaussian_binomial(anchor - 1, anchor - cum(1), q)
        out *= _ratio_product(q, n, anchor, anchor, top, 0)
        for d in range(2, s - kappa1 + 1):
            out *= gaussian_binomial(cum(d) - cum(1), lam(d), q)
        for b in range(s - kappa1 + 1, s + theta + 1):
            out *= gaussian_binomial(cum(b) - anchor, lam(b), q)
        return out

    raise ValueError(f"unknown chain family {kind!r}")


def b_theta(spec: ChainRingSpec, n: int, lambdas: Sequence[int]) -> int:
    """Weighted chain count: each family weighted by its lift multiplier."""
    _check_type(spec, lambdas)
    return _b_theta(spec, n, lambdas, _cum(lambdas))


def _b_theta(spec: ChainRingSpec, n: int, lambdas: Sequence[int], cum: Callable[[int], int]) -> int:
    e = spec.e
    s = e // 2
    theta = e % 2
    kappa = spec.kappa
    kappa1 = (kappa - 1) // 2
    q = spec.q
    r8 = n % 8
    base = _family_count("N", spec, n, lambdas, cum)
    if r8 in (1, 2, 3, 5, 6, 7):
        return base
    if 2 * kappa <= e:
        total = base
        if _break_crossable(n, spec.m):
            total += 2 * q**kappa1 * _family_count("M", spec, n, lambdas, cum)
        for omega in range(0, kappa1 - theta + 1):
            total += q**omega * _family_count("Y", spec, n, lambdas, cum, omega)
        return total
    total = base + q ** (s - kappa1 - 1) * _family_count("Z", spec, n, lambdas, cum)
    for omega in range(0, s - kappa1 - 1):
        total += q**omega * _family_count("Y", spec, n, lambdas, cum, omega)
    return total


# ---------------------------------------------------------------------------
# per-chain and per-type counts
# ---------------------------------------------------------------------------


def _sd_exponent(spec: ChainRingSpec, n: int, cum: Callable[[int], int]) -> int:
    """Exponent of q in the self-dual count; _lift_exponent adds the upper half."""
    e = spec.e
    s = e // 2
    theta = e % 2
    kappa1 = (spec.kappa - 1) // 2
    exp = sum(cum(i) * (n - cum(i + 1)) for i in range(1, s + 1))
    exp -= sum(cum(a) for a in range(1, s - kappa1))
    if theta == 0:
        exp -= cum(s) * (cum(s) - 1) // 2
    return exp


def _lift_exponent(spec: ChainRingSpec, n: int, cum: Callable[[int], int]) -> int:
    e = spec.e
    s = e // 2
    theta = e % 2
    return _sd_exponent(spec, n, cum) + sum(
        cum(s + j) * (n - cum(s + j + 1) - cum(s + theta - j))
        for j in range(1, s + theta)
    )


def _lift_binomials(
    spec: ChainRingSpec, n: int, lambdas: Sequence[int], cum: Callable[[int], int]
) -> int:
    e = spec.e
    s = e // 2
    theta = e % 2
    q = spec.q
    out = 1
    for lev in range(s + 1 + theta, e + 1):
        out *= gaussian_binomial(
            lambdas[lev - 1] + n - cum(lev) - cum(e + 1 - lev), lambdas[lev - 1], q
        )
    return out


def per_chain_lift_count(
    spec: ChainRingSpec,
    n: int,
    lambdas: Sequence[int],
    chain_one: Callable[[int], bool],
) -> int:
    """Total lifts of one fixed admissible chain to the full depth.

    chain_one(i) must report membership of the all-one word in the i-th
    chain member (False for i <= 0); memberships are monotone up the
    chain.  Chains blocked at the break crossing are refused.
    """
    _check_type(spec, lambdas)
    e = spec.e
    s = e // 2
    theta = e % 2
    kappa = spec.kappa
    kappa1 = (kappa - 1) // 2
    q = spec.q
    eps = 0
    mu = 0
    if 2 * kappa <= e:
        if chain_one(s - kappa + theta):
            if not _break_crossable(n, spec.m):
                raise ValueError(
                    "chain admits no lifts: all-one word at break depth with "
                    f"length {n} mod 8 = {n % 8} over odd field degree"
                )
            eps, mu = 1, kappa1
        else:
            for omega in range(1, kappa1 - theta + 1):
                if chain_one(s - kappa1 - omega) and not chain_one(
                    s - kappa1 - omega - 1
                ):
                    eps, mu = 0, omega
                    break
    else:
        if chain_one(1):
            mu = s - kappa1 - 1
        else:
            for omega in range(1, s - kappa1 - 1):
                if chain_one(s - kappa1 - omega) and not chain_one(
                    s - kappa1 - omega - 1
                ):
                    mu = omega
                    break
    cum = _cum(lambdas)
    exp = _lift_exponent(spec, n, cum) + mu
    return 2**eps * q**exp * _lift_binomials(spec, n, lambdas, cum)


def _so_count(
    spec: ChainRingSpec, n: int, lambdas: Sequence[int], cum: Callable[[int], int], bt: int
) -> int:
    """Self-orthogonal count of a feasible type whose b_theta is bt."""
    return spec.q ** _lift_exponent(spec, n, cum) * bt * _lift_binomials(spec, n, lambdas, cum)


def _sd_count(spec: ChainRingSpec, n: int, cum: Callable[[int], int], bt: int) -> int:
    """Self-dual count of a feasible, self-dual-shaped type whose b_theta is bt."""
    return spec.q ** _sd_exponent(spec, n, cum) * bt


def count_so_type(spec: ChainRingSpec, n: int, lambdas: Sequence[int]) -> int:
    """Number of self-orthogonal codes of the given type and length."""
    _check_type(spec, lambdas)
    cum = _cum(lambdas)
    if not _feasible(spec.e, n, cum):
        return 0
    return _so_count(spec, n, lambdas, cum, _b_theta(spec, n, lambdas, cum))


def count_sd_type(spec: ChainRingSpec, n: int, lambdas: Sequence[int]) -> int:
    """Number of self-dual codes of the given type and length."""
    _check_type(spec, lambdas)
    e = spec.e
    cum = _cum(lambdas)
    if not (_sd_shape(e, n, lambdas, cum) and _feasible(e, n, cum)):
        return 0
    return _sd_count(spec, n, cum, _b_theta(spec, n, lambdas, cum))


def _all_types(
    spec: ChainRingSpec, n: int, feasible_only: bool = False
) -> Iterator[Tuple[int, ...]]:
    """Every type with at most n pivots, in lexicographic order.

    feasible_only keeps just the so_feasible types, pruned while they grow:
    when lambda_i is chosen at an upper-half position i, cum(e-i+1) is
    already fixed, so cum(i) + cum(e-i+1) <= n caps lambda_i.
    """
    e = spec.e
    s = e // 2
    lam = [0] * e
    sums = [0] * (e + 1)

    def grow(i: int) -> Iterator[Tuple[int, ...]]:
        if i > e:
            yield tuple(lam)
            return
        before = sums[i - 1]
        cap = n - before
        if feasible_only and i > s:
            mirror = e - i + 1
            cap = n // 2 - before if mirror == i else cap - sums[mirror]
        for x in range(cap + 1):
            lam[i - 1] = x
            sums[i] = before + x
            yield from grow(i + 1)

    yield from grow(1)


def total_counts(spec: ChainRingSpec, n: int) -> Tuple[int, int]:
    """(total self-orthogonal, total self-dual) over all types of length n.

    One pass over the so_feasible types; each type's prefix sums and
    b_theta serve both its self-orthogonal and its self-dual term.
    """
    e = spec.e
    total_so = 0
    total_sd = 0
    for lambdas in _all_types(spec, n, feasible_only=True):
        cum = _cum(lambdas)
        bt = _b_theta(spec, n, lambdas, cum)
        if not bt:
            continue
        total_so += _so_count(spec, n, lambdas, cum, bt)
        if _sd_shape(e, n, lambdas, cum):
            total_sd += _sd_count(spec, n, cum, bt)
    return total_so, total_sd
