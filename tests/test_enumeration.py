"""Closed-form counts: q-binomials, per-type formulas, frozen tables."""

import hashlib
import math
import random

import pytest

from chaincodes.chain import PRESET_NAMES, make_ring, parse_ring_spec, preset
from chaincodes.galois import make_galois_ring
from chaincodes.enumeration import (
    _all_types,
    _b_zero,
    _cum,
    _d_zero,
    _room,
    _without_one,
    count_sd_type,
    count_so_type,
    gaussian_binomial,
    sd_type_shape_ok,
    so_feasible,
    total_counts,
)
from chaincodes.lifting import (
    base_lift,
    enumerate_so_chains,
    expected_chain_length,
    lift_once,
    stage_count_formula,
    stage_plan,
    validate_chain,
)
from chaincodes.fieldcodes import (
    enumerate_subspaces,
    is_self_orthogonal_field,
    sigma_doubly_even,
)
from chaincodes.oracle import brute_force_code_count
from chaincodes.ringcodes import is_self_orthogonal_ring
from chaincodes.tables import GOLDEN_TABLES

from _util import CR_RINGS, canonical_key


def test_gaussian_binomial_pins():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 1, 4) == 85
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 2) == 1
    assert gaussian_binomial(2, 3, 2) == 0
    assert gaussian_binomial(-1, 0, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0


def test_gaussian_binomial_symmetry_and_recurrence():
    rng = random.Random(20817)
    for _ in range(400):
        q = rng.choice([2, 4, 8])
        n = rng.randrange(1, 9)
        k = rng.randrange(0, n + 1)
        assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
        assert gaussian_binomial(n, k, q) == (
            q**k * gaussian_binomial(n - 1, k, q)
            + gaussian_binomial(n - 1, k - 1, q)
        )


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_golden_table_rows_match_closed_form(index):
    table = GOLDEN_TABLES[index]
    spec = preset(table.preset)
    for lambdas, expected in table.rows:
        assert count_so_type(spec, table.n, lambdas) == expected, lambdas


def test_total_count_pins():
    r41 = preset("R4,1")
    assert total_counts(r41, 1) == (3, 1)
    assert total_counts(r41, 2) == (21, 3)
    assert total_counts(r41, 3) == (291, 7)
    r51 = preset("R5,1")
    assert total_counts(r51, 1) == (3, 0)
    assert total_counts(r51, 2) == (28, 3)
    assert total_counts(r51, 3) == (678, 0)
    r62 = preset("R6,2")
    assert total_counts(r62, 1) == (4, 1)
    assert total_counts(r62, 2) == (223, 5)


def test_single_coordinate_totals_count_ideals():
    # length 1: the only codes are the ideals, and u^i generates a
    # self-orthogonal one exactly when 2i >= e
    for name in PRESET_NAMES:
        spec = preset(name)
        want_so = spec.e - (spec.e - spec.e // 2) + 1
        want_sd = 1 if spec.e % 2 == 0 else 0
        assert total_counts(spec, 1) == (want_so, want_sd)


def test_negative_lengths_are_refused():
    r41 = preset("R4,1")
    for count in (
        lambda: count_so_type(r41, -2, (0, 0, 0, 0)),
        lambda: count_sd_type(r41, -2, (0, 0, 0, 0)),
        lambda: total_counts(r41, -2),
        lambda: brute_force_code_count(r41, -2, (0, 0, 0, 0)),
    ):
        with pytest.raises(ValueError, match="length .* got -2"):
            count()
    assert total_counts(r41, 0) == (1, 1)


def test_so_feasible_bounds():
    r41 = preset("R4,1")
    assert not so_feasible(r41, 1, (0, 1, 0, 0))
    assert so_feasible(r41, 2, (0, 1, 0, 0))
    assert not so_feasible(r41, 2, (0, 2, 0, 0))
    assert so_feasible(r41, 2, (0, 1, 0, 1))
    assert not so_feasible(r41, 2, (0, 1, 0, 2))
    for n in (1, 2, 3):
        for lam in _all_types(4, n):
            if not so_feasible(r41, n, lam):
                assert count_so_type(r41, n, lam) == 0


def test_sd_shape_and_totals():
    r41 = preset("R4,1")
    assert sd_type_shape_ok(r41, 2, (0, 1, 0, 1))
    assert sd_type_shape_ok(r41, 2, (0, 0, 2, 0))
    assert not sd_type_shape_ok(r41, 2, (0, 1, 1, 0))
    assert not sd_type_shape_ok(r41, 3, (0, 1, 0, 1))
    for n in (2, 3):
        sd_total = 0
        for lam in _all_types(4, n):
            cnt = count_sd_type(r41, n, lam)
            assert cnt <= count_so_type(r41, n, lam)
            if not sd_type_shape_ok(r41, n, lam):
                assert cnt == 0
            sd_total += cnt
        assert sd_total == total_counts(r41, n)[1]


def _chain_lifts(spec, n, lam, chain):
    """Lifts of one chain to full depth: the product of its stage counts."""
    out = 1
    for level, _ in stage_plan(spec):
        out *= stage_count_formula(spec, n, lam, chain.contains_one, level)
    return out


def _valid_chains(spec, n, head):
    return [c for c in enumerate_so_chains(spec, n, head) if not validate_chain(c)]


def _count_via_chains(spec, n, lam, chains=None):
    if chains is None:
        chains = _valid_chains(spec, n, tuple(lam[: expected_chain_length(spec)]))
    return sum(_chain_lifts(spec, n, lam, chain) for chain in chains)


@pytest.mark.parametrize(
    "name,n",
    [(name, n) for name in ("R4,1", "R5,1") for n in range(1, 6)]
    + [(name, n) for name in ("R6,2", "R8,2") for n in range(1, 5)],
)
def test_type_count_decomposes_over_chains(name, n):
    # summing the per-chain lift count over every valid chain must land
    # exactly on the one-shot type count, for every type at this length
    spec = preset(name)
    half = expected_chain_length(spec)
    by_head = {}
    for lam in _all_types(spec.e, n):
        head = lam[:half]
        if head not in by_head:
            by_head[head] = _valid_chains(spec, n, head)
        assert _count_via_chains(spec, n, lam, by_head[head]) == count_so_type(spec, n, lam), lam


@pytest.mark.parametrize(
    "name,lam,count",
    [
        ("R4,1", (0, 3, 0, 0), 283_115_520),
        ("CR(2^2,1;5,2;1)", (0, 0, 0, 3, 2, 0, 1), 29_727_129_600),
        ("R5,1", (0, 0, 3, 4, 0), 135),
        ("R5,1", (0, 3, 0, 0, 4), 4_423_680),
    ],
)
def test_length_seven_counts_decompose_over_chains(name, lam, count):
    # these types need the ratio product divided once as a whole: its
    # single factors are not integers
    spec = parse_ring_spec(name) if name.startswith("CR(") else preset(name)
    assert count_so_type(spec, 7, lam) == count
    assert _count_via_chains(spec, 7, lam) == count


def _per_type_sums(spec, n):
    """(so, sd) summed type by type, or the class of the first exception."""
    types = list(_all_types(spec.e, n))
    try:
        return (
            sum(count_so_type(spec, n, lam) for lam in types),
            sum(count_sd_type(spec, n, lam) for lam in types),
        )
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _total_or_error(spec, n):
    try:
        return total_counts(spec, n)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _value_or_error(count, spec, n, lam):
    try:
        return count(spec, n, lam)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def test_type_counts_are_pinned():
    # counts and totals share the head exponent, so comparing totals with
    # per-type sums cannot catch an error in it: pin every per-type answer
    # (or the class it raises) of the seven CLI rings at n <= 6 (q = 2) and
    # n <= 4 (q = 4)
    digest = hashlib.sha256()
    rows = 0
    for name in PRESET_NAMES + CR_RINGS:
        spec = parse_ring_spec(name) if name.startswith("CR(") else preset(name)
        for n in range((6 if spec.q == 2 else 4) + 1):
            for lam in _all_types(spec.e, n):
                so = _value_or_error(count_so_type, spec, n, lam)
                sd = _value_or_error(count_sd_type, spec, n, lam)
                digest.update(repr((name, n, lam, so, sd)).encode() + b"\n")
                rows += 1
    assert rows == 13568
    assert digest.hexdigest() == (
        "efe204191acc701dfe2bc2b2ce41861fa5ec14c18b54ec2a1f5cd5a35fa42a87"
    )


@pytest.mark.parametrize(
    "spec,lengths",
    [
        (ring, range(1, (8 if ring.q == 2 else 6) + 1))
        for ring in [preset(name) for name in PRESET_NAMES]
        + [parse_ring_spec(r) for r in CR_RINGS]
    ]
    + [(make_ring(3, 3, 3, 2, modulus=(1, 1, 0, 1)), range(2, 6))],
    ids=list(PRESET_NAMES) + list(CR_RINGS) + ["m3"],
)
def test_total_counts_equals_per_type_sums(spec, lengths):
    # the closed-form benchmark grid; where the type-by-type route raises,
    # the head-by-head total must raise the same class
    e = spec.e
    for n in lengths:
        types = list(_all_types(e, n))
        # every type once, in lexicographic order: C(n + e, e) of them
        assert len(types) == math.comb(n + e, e)
        assert types == sorted(set(types))
        for lam in types:
            cum = _cum(lam)
            paired = all(cum(i) + cum(e - i + 1) <= n for i in range(e // 2 + 1, e + 1))
            assert so_feasible(spec, n, lam) == paired, lam
            # the cap _room gives each entry, under which the total sums the upper half
            assert all(lam[i - 1] <= _room(e, n, cum, i) for i in range(1, e + 1)) == paired
        assert _total_or_error(spec, n) == _per_type_sums(spec, n), n


_RAISES_TODAY = pytest.mark.xfail(raises=ArithmeticError, strict=True)


@pytest.mark.parametrize(
    "m,n,d",
    [
        pytest.param(m, n, d, marks=_RAISES_TODAY if (m, n, d) == (1, 8, 3) else ())
        for m, lengths in ((1, (2, 4, 6, 8)), (2, (2, 4, 6)))
        for n in lengths
        for d in range(n // 2)
    ],
)
def test_even_length_base_factors_split_doubly_even_codes(m, n, d):
    # chains without and with the all-one word together count every
    # doubly even [n, d] code
    q = 2**m
    assert _d_zero(q, m, n, d) + _b_zero(q, m, n, d) == sigma_doubly_even(n, d, m, False)


def test_b_zero_takes_the_minus_numerator_at_n_4_mod_8_over_odd_degree():
    # at n = 12 over F_2, _d_zero's second factor 119/3 does not divide, so
    # the doubly even [12, 2] codes without the all-one word are counted
    # directly: each is spanned by 6 ordered pairs of its nonzero words
    ones = (1 << 12) - 1
    words = [v for v in range(1, ones) if v.bit_count() % 4 == 0]
    pairs = sum(
        1
        for v in words
        for w in words
        if v != w and v ^ w != ones and (v ^ w).bit_count() % 4 == 0
    )
    assert pairs % 6 == 0
    without_one = pairs // 6
    assert without_one == 78540
    # _d_zero's product 495 * 119/3, divided once
    assert _b_zero(2, 1, 12, 2) == without_one - 495 * 119 // 3


@pytest.mark.parametrize(
    "name,n,top",
    [
        pytest.param(
            name, n, top, marks=_RAISES_TODAY if (name, n, top) == ("R4,1", 8, 3) else ()
        )
        for name, lengths in (("R4,1", range(2, 9)), ("R6,2", range(2, 6)))
        for n in lengths
        for top in range(1, n // 2 + 1)
    ],
)
def test_anchor_zero_family_counts_self_orthogonal_field_codes(name, n, top):
    # with a zero anchor, a "N" chain is just its top member: any
    # self-orthogonal [n, top] code over the residue field
    spec = preset(name)
    lam = [0] * spec.e
    lam[spec.e // 2 - (spec.kappa - 1) // 2] = top
    closed = _without_one(spec, n, lam, _cum(lam))
    assert closed == sum(
        1
        for code in enumerate_subspaces(make_galois_ring(2, spec.m), n, range(n), top)
        if is_self_orthogonal_field(code)
    )


def test_walkthrough_chain_total_is_stage_product():
    r82 = preset("R8,2")
    lam = (1, 0, 0, 0, 0, 0, 0, 0)
    chains = _valid_chains(r82, 4, lam[:4])
    one = next(
        c for c in chains if c.contains_one(1)
    )
    stages = [
        stage_count_formula(r82, 4, lam, one.contains_one, lev)
        for lev in (2, 4, 6, 8)
    ]
    assert stages == [16, 512, 1024, 4096]
    assert count_so_type(r82, 4, lam) == _count_via_chains(r82, 4, lam, chains)


def test_odd_depth_type_chain_structure():
    r51 = preset("R5,1")
    lam = (0, 0, 1, 1, 0)
    chains = _valid_chains(r51, 3, lam[:3])
    assert len(chains) == 3
    for chain in chains:
        assert stage_count_formula(r51, 3, lam, chain.contains_one, 3) == 6
        assert stage_count_formula(r51, 3, lam, chain.contains_one, 5) == 4
    assert count_so_type(r51, 3, lam) == 72 == _count_via_chains(r51, 3, lam)


@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_length_six_type_count_matches_lifted_codes():
    # every valid chain of head (1, 1) lifted to full depth gives 13,440
    # distinct self-orthogonal codes; the closed form says 11,136, since
    # its chain count for the head is 87 where 15 x 7 = 105 chains exist
    r41 = preset("R4,1")
    lam = (1, 1, 2, 1)
    keys = set()
    for chain in _valid_chains(r41, 6, lam[:2]):
        for base in base_lift(chain, lam[2]):
            for code in lift_once(base, chain, lam[3]):
                if not is_self_orthogonal_ring(code):
                    pytest.fail("a lifted code is not self-orthogonal")
                keys.add(canonical_key(code))
    assert count_so_type(r41, 6, lam) == len(keys)
