"""Closed-form counts: q-binomials, per-type formulas, frozen tables."""

import random

import pytest

from chaincodes.chain import PRESET_NAMES, preset
from chaincodes.enumeration import (
    count_sd_type,
    count_so_type,
    gaussian_binomial,
    per_chain_lift_count,
    sd_type_shape_ok,
    so_feasible,
    total_counts,
)
from chaincodes.lifting import (
    enumerate_so_chains,
    expected_chain_length,
    stage_count_formula,
    validate_chain,
)
from chaincodes.tables import GOLDEN_TABLES

from _util import all_types


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


def test_so_feasible_bounds():
    r41 = preset("R4,1")
    assert not so_feasible(r41, 1, (0, 1, 0, 0))
    assert so_feasible(r41, 2, (0, 1, 0, 0))
    assert not so_feasible(r41, 2, (0, 2, 0, 0))
    assert so_feasible(r41, 2, (0, 1, 0, 1))
    assert not so_feasible(r41, 2, (0, 1, 0, 2))
    for n in (1, 2, 3):
        for lam in all_types(4, n):
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
        for lam in all_types(4, n):
            cnt = count_sd_type(r41, n, lam)
            assert cnt <= count_so_type(r41, n, lam)
            if not sd_type_shape_ok(r41, n, lam):
                assert cnt == 0
            sd_total += cnt
        assert sd_total == total_counts(r41, n)[1]


def _count_via_chains(spec, n, lam):
    head = tuple(lam[: expected_chain_length(spec)])
    total = 0
    for chain in enumerate_so_chains(spec, n, head):
        if validate_chain(chain):
            continue
        total += per_chain_lift_count(spec, n, lam, chain.contains_one)
    return total


@pytest.mark.parametrize(
    "name,n",
    [
        ("R4,1", 1),
        ("R4,1", 2),
        ("R4,1", 3),
        ("R5,1", 1),
        ("R5,1", 2),
        ("R5,1", 3),
        ("R6,2", 1),
        ("R6,2", 2),
        ("R8,2", 1),
        ("R8,2", 2),
    ],
)
def test_type_count_decomposes_over_chains(name, n):
    # summing the per-chain lift count over every valid chain must land
    # exactly on the one-shot type count, for every type at this length
    spec = preset(name)
    for lam in all_types(spec.e, n):
        assert _count_via_chains(spec, n, lam) == count_so_type(spec, n, lam), lam


def test_walkthrough_chain_total_is_stage_product():
    r82 = preset("R8,2")
    lam = (1, 0, 0, 0, 0, 0, 0, 0)
    chains = [
        c
        for c in enumerate_so_chains(r82, 4, lam[:4])
        if not validate_chain(c)
    ]
    one = next(
        c for c in chains if c.contains_one(1)
    )
    per = per_chain_lift_count(r82, 4, lam, one.contains_one)
    stages = [
        stage_count_formula(r82, 4, lam, one.contains_one, lev)
        for lev in (2, 4, 6, 8)
    ]
    assert stages == [16, 512, 1024, 4096]
    prod = 1
    for v in stages:
        prod *= v
    assert per == prod
    assert count_so_type(r82, 4, lam) == sum(
        per_chain_lift_count(r82, 4, lam, c.contains_one) for c in chains
    )


def test_odd_depth_type_chain_structure():
    r51 = preset("R5,1")
    lam = (0, 0, 1, 1, 0)
    chains = [
        c
        for c in enumerate_so_chains(r51, 3, lam[:3])
        if not validate_chain(c)
    ]
    assert len(chains) == 3
    for chain in chains:
        assert stage_count_formula(r51, 3, lam, chain.contains_one, 3) == 6
        assert stage_count_formula(r51, 3, lam, chain.contains_one, 5) == 4
        assert per_chain_lift_count(r51, 3, lam, chain.contains_one) == 24
    assert count_so_type(r51, 3, lam) == 72
