"""Closed-form counting of self-orthogonal and self-dual codes by type.

Everything here is exact integer arithmetic.  The self-dual count of a type
is q^K times b_theta, where K is the head exponent and b_theta the number of
admissible residue-field chains C^(1) <= ... <= C^(ceil(e/2)), each weighted
by a lift multiplier; both depend only on the head lambda_1..lambda_ceil(e/2).
The self-orthogonal count multiplies in one upper-half factor per position
i > ceil(e/2): [room_i, lambda_i]_q q^(cum(i-1) (room_i - lambda_i)), with
room_i the cap of _room.  So total_counts weighs each head once and sums the
upper-half factors over its completions.  The lift multiplier depends only
on where the all-one word first enters the chain, so the chains are counted
in two ways: _without_one counts those whose doubly even anchor member
C^(e//2 - (kappa-1)//2) misses the word, and _with_one(entry, exact) is one
product of Gaussian binomials over the members for those that hold it in
member `entry` (and not in entry-1 when exact).  The number of doubly even
field codes of a given dimension has no closed form here and is supplied by
an exhaustive counter behind a pluggable hook.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence, Tuple

from .chain import ChainRingSpec
from .fieldcodes import sigma_doubly_even

__all__ = [
    "gaussian_binomial",
    "sigma",
    "set_sigma_impl",
    "so_feasible",
    "sd_type_shape_ok",
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

    with_one selects the codes that contain the all-one word; otherwise
    only codes that miss it are counted.
    """
    return _sigma_impl(n, d, m, with_one)


# ---------------------------------------------------------------------------
# type bookkeeping
# ---------------------------------------------------------------------------


def _check_length(n: int) -> None:
    if n < 0:
        raise ValueError(f"code length must be nonnegative, got {n}")


def _check_type(spec: ChainRingSpec, lambdas: Sequence[int]) -> None:
    if len(lambdas) != spec.e:
        raise ValueError("type tuple must have one entry per depth")
    if any(x < 0 for x in lambdas):
        raise ValueError("type entries must be nonnegative")


def _cum(lambdas: Sequence[int]) -> Callable[[int], int]:
    sums = [0, *itertools.accumulate(lambdas)]
    return lambda i: sums[i] if i > 0 else 0


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


def _room(e: int, n: int, cum: Callable[[int], int], i: int) -> int:
    """Largest lambda_i a self-orthogonal type allows once lambda_1..lambda_(i-1) are fixed.

    The cap rule: at an upper-half position i (i > e//2) scale i pairs with
    its mirror e-i+1, so cum(i) + cum(e-i+1) <= n; below the middle only
    cum(i) <= n binds.
    """
    before = cum(i - 1)
    mirror = e - i + 1
    if mirror > i:
        return n - before
    if mirror == i:
        return n // 2 - before
    return n - before - cum(mirror)


def _feasible(e: int, n: int, cum: Callable[[int], int]) -> bool:
    return all(
        cum(i) - cum(i - 1) <= _room(e, n, cum, i) for i in range(e // 2 + 1, e + 1)
    )


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


def _split_numerator(q: int, m: int, n: int, i: int) -> int:
    """q^(n-2i-3) + eps (q^(h-1-i) - q^(h-i-2)) - 1, h = n/2.

    eps is -1 at n = 4 (mod 8) over an odd-degree field and +1 otherwise.
    """
    h = n // 2
    eps = -1 if n % 8 == 4 and m % 2 else 1
    return q ** (n - 2 * i - 3) + eps * (q ** (h - 1 - i) - q ** (h - i - 2)) - 1


def _split_product(q: int, m: int, n: int, lam: int) -> int:
    """prod over i < lam of _split_numerator(i) / (q^(i+1) - 1), factor by factor."""
    out = 1
    for i in range(lam):
        out = out * _exact_div(_split_numerator(q, m, n, i), q ** (i + 1) - 1)
    return out


def _d_zero(q: int, m: int, n: int, lam: int) -> int:
    """Chains-without-all-one base factor for even length (dim = lam)."""
    if lam == 0:
        return 1
    if lam > n // 2 - 1:
        return 0
    if n % 8 in (2, 6):
        h = n // 2
        out = _exact_div((q ** (h - 1) - 1) * (q ** (h - lam - 1) + 1), q - 1)
        for i in range(1, lam):
            out = out * _exact_div(q ** (n - 2 - 2 * i) - 1, q ** (i + 1) - 1)
        return out
    return _split_product(q, m, n, lam)


def _b_zero(q: int, m: int, n: int, lam: int) -> int:
    """Companion factor counting the all-one-bearing branch at even length."""
    if lam == 0 or lam > n // 2 - 1:
        return 0
    if n % 8 in (2, 6):
        lead = q ** (n - 2 * lam - 1) - q ** (n // 2 - lam - 1)
    else:
        lead = _split_numerator(q, m, n, lam - 1)
    return lead * _split_product(q, m, n, lam - 1)


def _without_one(
    spec: ChainRingSpec, n: int, lambdas: Sequence[int], cum: Callable[[int], int]
) -> int:
    """Admissible chains whose doubly even anchor member misses the all-one word."""
    e = spec.e
    s = e // 2
    theta = e % 2
    kappa1 = (spec.kappa - 1) // 2
    m = spec.m
    q = spec.q
    anchor = cum(s - kappa1)
    top = cum(s + theta)

    def lam(i: int) -> int:
        return lambdas[i - 1]

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


def _with_one(
    spec: ChainRingSpec,
    n: int,
    lambdas: Sequence[int],
    cum: Callable[[int], int],
    entry: int,
    exact: bool,
) -> int:
    """Admissible chains whose member `entry` holds the all-one word.

    With exact, member entry-1 must miss it, so the word enters exactly at
    entry.  The count is one Gaussian binomial per member, times the doubly
    even anchor codes that hold the word, times the ratio product from the
    anchor to the top member.
    """
    if entry < 1 or cum(entry) == 0:
        return 0
    e = spec.e
    q = spec.q
    a = e // 2 - (spec.kappa - 1) // 2
    anchor = cum(a)
    c, c0 = cum(entry), cum(entry - 1)
    out = sigma(n, anchor, spec.m, True)
    out *= gaussian_binomial(anchor - 1, anchor - c, q)
    out *= q**c0 * gaussian_binomial(c - 1, c0, q) if exact else gaussian_binomial(c, c0, q)
    for i in range(1, entry):
        out *= gaussian_binomial(cum(i), lambdas[i - 1], q)
    for i in range(entry + 1, a + 1):
        out *= gaussian_binomial(cum(i) - c, lambdas[i - 1], q)
    for i in range(a + 1, e - e // 2 + 1):
        out *= gaussian_binomial(cum(i) - anchor, lambdas[i - 1], q)
    return out * _ratio_product(q, n, anchor, anchor, cum(e - e // 2), 0)


def _b_theta(spec: ChainRingSpec, n: int, lambdas: Sequence[int], cum: Callable[[int], int]) -> int:
    """Admissible chains, each weighted by its lift multiplier.

    The weight depends only on where the all-one word enters the chain.
    The doubly even anchor member can hold the word only when 4 divides n.
    """
    total = _without_one(spec, n, lambdas, cum)
    if n % 4:
        return total
    e = spec.e
    q = spec.q
    kappa = spec.kappa
    kappa1 = (kappa - 1) // 2
    a = e // 2 - kappa1
    if 2 * kappa <= e:
        # the break sits in the lower half
        if _break_crossable(n, spec.m):
            entry = e // 2 - kappa + e % 2
            total += 2 * q**kappa1 * _with_one(spec, n, lambdas, cum, entry, False)
        omegas = range(kappa1 - e % 2 + 1)
    else:
        total += q ** (a - 1) * _with_one(spec, n, lambdas, cum, 1, False)
        omegas = range(a - 1)
    for omega in omegas:
        total += q**omega * _with_one(spec, n, lambdas, cum, a - omega, True)
    return total


# ---------------------------------------------------------------------------
# per-type counts
# ---------------------------------------------------------------------------


def _head_exponent(spec: ChainRingSpec, n: int, cum: Callable[[int], int]) -> int:
    """Exponent of q in the self-dual count, which only the head fixes.

    A self-orthogonal count multiplies in cum(i-1) * (room_i - lambda_i)
    more for each upper-half position i; at even e that term of position
    e/2+1 is 0 on every self-dual-shaped type.
    """
    e = spec.e
    s = e // 2
    kappa1 = (spec.kappa - 1) // 2
    exp = sum(cum(i) * (n - cum(i + 1)) for i in range(1, s))
    exp -= sum(cum(a) for a in range(1, s - kappa1))
    if e % 2:
        return exp + cum(s) * (n - cum(s + 1))
    return exp + cum(s) * (cum(s) + 1) // 2


def count_so_type(spec: ChainRingSpec, n: int, lambdas: Sequence[int]) -> int:
    """Number of self-orthogonal codes of the given type and length."""
    _check_length(n)
    _check_type(spec, lambdas)
    e, q = spec.e, spec.q
    cum = _cum(lambdas)
    if not _feasible(e, n, cum):
        return 0
    out = _b_theta(spec, n, lambdas, cum) * q ** _head_exponent(spec, n, cum)
    for i in range(e - e // 2 + 1, e + 1):
        room, x = _room(e, n, cum, i), lambdas[i - 1]
        out *= gaussian_binomial(room, x, q) * q ** (cum(i - 1) * (room - x))
    return out


def count_sd_type(spec: ChainRingSpec, n: int, lambdas: Sequence[int]) -> int:
    """Number of self-dual codes of the given type and length."""
    _check_length(n)
    _check_type(spec, lambdas)
    e = spec.e
    cum = _cum(lambdas)
    if not (_sd_shape(e, n, lambdas, cum) and _feasible(e, n, cum)):
        return 0
    return _b_theta(spec, n, lambdas, cum) * spec.q ** _head_exponent(spec, n, cum)


def _all_types(e: int, n: int) -> Iterator[Tuple[int, ...]]:
    """Every type of depth e with at most n pivots, in lexicographic order:
    the gaps between e bars placed among n + e slots, bars in lexicographic order."""
    _check_length(n)
    for bars in itertools.combinations(range(n + e), e):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars))


def total_counts(spec: ChainRingSpec, n: int) -> Tuple[int, int]:
    """(total self-orthogonal, total self-dual) over all types of length n.

    b_theta and the head exponent depend only on the head lambda_1..lambda_h,
    h = ceil(e/2), so their product, the head's weight, is evaluated once per
    head; the upper-half factors are summed over the head's completions.  A
    head has at most one self-dual completion: its palindrome, whose count is
    the weight itself.
    """
    _check_length(n)
    e, s, q = spec.e, spec.e // 2, spec.q
    h = e - s

    def upper(i: int, before: int) -> int:
        # sum over lambda_i..lambda_e of the factors of positions i..e, with
        # cum(i-1) = before; [room, x]_q is stepped along x by the q-Pascal
        # ratio.  Within one head it depends only on (i, before).
        if i > e:
            return 1
        if (i, before) not in memo:
            room = n - before - cum(e + 1 - i)  # _room above the middle
            binom, out = 1, 0
            for x in range(room + 1):
                out += binom * q ** (before * (room - x)) * upper(i + 1, before + x)
                binom = binom * (q ** (room - x) - 1) // (q ** (x + 1) - 1)
            memo[i, before] = out
        return memo[i, before]

    total_so = total_sd = 0
    # a head with cum(h) > n // 2 has no feasible completion: _room caps
    # cum(h) there at odd e and leaves lambda_(s+1) no room at even e
    for head in _all_types(h, n // 2):
        cum = _cum(head)
        weight = _b_theta(spec, n, head, cum) * q ** _head_exponent(spec, n, cum)
        if not weight:
            continue
        # lambda_j = lambda_(e-j+2) for j >= 2; at even e the middle entry
        # lambda_(s+1) takes what lambda_1 = n - cum(e) leaves
        pal = head + ((n - 2 * cum(s),) if h == s else ()) + head[:0:-1]
        pal_cum = _cum(pal)
        if _sd_shape(e, n, pal, pal_cum) and _feasible(e, n, pal_cum):
            total_sd += weight
        memo = {}  # upper(i, before), for this head
        total_so += weight * upper(h + 1, cum(h))
    return total_so, total_sd
