"""Galois ring arithmetic, Teichmueller lifts, and element formatting."""

import random

import pytest

from chaincodes.galois import (
    field_inv,
    field_lift,
    field_mul,
    field_pow,
    format_field_elem,
    gr_add,
    gr_from_int,
    gr_mul,
    gr_neg,
    gr_one,
    gr_pow,
    gr_zero,
    make_galois_ring,
    parse_field_elem,
    teichmuller_lift,
    teichmuller_set,
)

from _util import residue, run_child

RING_PARAMS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


@pytest.mark.parametrize("s,m", RING_PARAMS)
def test_ring_axioms_on_random_elements(s, m):
    R = make_galois_ring(s, m)
    rng = random.Random(1000 * s + m)
    char = R.char
    for _ in range(200):
        a = tuple(rng.randrange(char) for _ in range(m))
        b = tuple(rng.randrange(char) for _ in range(m))
        c = tuple(rng.randrange(char) for _ in range(m))
        assert gr_add(R, a, b) == gr_add(R, b, a)
        assert gr_mul(R, a, b) == gr_mul(R, b, a)
        assert gr_add(R, gr_add(R, a, b), c) == gr_add(R, a, gr_add(R, b, c))
        assert gr_mul(R, gr_mul(R, a, b), c) == gr_mul(R, a, gr_mul(R, b, c))
        assert gr_mul(R, a, gr_add(R, b, c)) == gr_add(
            R, gr_mul(R, a, b), gr_mul(R, a, c)
        )
        assert gr_add(R, a, gr_zero(R)) == a
        assert gr_mul(R, a, gr_one(R)) == a
        assert gr_add(R, a, gr_neg(R, a)) == gr_zero(R)


@pytest.mark.parametrize("s,m", RING_PARAMS)
def test_characteristic(s, m):
    R = make_galois_ring(s, m)
    acc = gr_zero(R)
    for _ in range(R.char):
        acc = gr_add(R, acc, gr_one(R))
    assert acc == gr_zero(R)
    assert gr_from_int(R, R.char) == gr_zero(R)


@pytest.mark.parametrize("s,m", RING_PARAMS)
def test_units_and_inverses(s, m):
    # a is a unit exactly when its residue is nonzero: then a^(order-1) is
    # its inverse, with order = (2^m - 1) 2^((s-1)m) that of the unit group;
    # otherwise a lies in 2R and a^s = 0
    R = make_galois_ring(s, m)
    order = (R.q - 1) << ((s - 1) * m)
    rng = random.Random(77 + s + 10 * m)
    for _ in range(100):
        a = tuple(rng.randrange(R.char) for _ in range(m))
        if residue(R, a) == 0:
            assert gr_pow(R, a, s) == gr_zero(R)
        else:
            assert gr_mul(R, a, gr_pow(R, a, order - 1)) == gr_one(R)


@pytest.mark.parametrize("s,m", RING_PARAMS)
def test_teichmuller_elements(s, m):
    R = make_galois_ring(s, m)
    teich = teichmuller_set(R)
    assert len(set(teich)) == R.q
    for c in range(R.q):
        t = teichmuller_lift(R, c)
        assert residue(R, t) == c
        # q-th roots of themselves, and multiplicatively closed
        assert gr_pow(R, t, R.q) == t
        for d in range(R.q):
            lhs = gr_mul(R, t, teichmuller_lift(R, d))
            assert lhs == teichmuller_lift(R, field_mul(R, c, d))
    # lifts of 0 and 1 are the ring constants
    assert teichmuller_lift(R, 0) == gr_zero(R)
    assert teichmuller_lift(R, 1) == gr_one(R)


@pytest.mark.parametrize("s,m", RING_PARAMS)
def test_residue_field_ops(s, m):
    R = make_galois_ring(s, m)
    for a in range(R.q):
        assert residue(R, field_lift(R, a)) == a
        if a:
            assert field_mul(R, a, field_inv(R, a)) == 1
            assert field_pow(R, a, R.q - 1) == 1
        for b in range(R.q):
            assert field_mul(R, a, b) == field_mul(R, b, a)


def test_frobenius_compatibility():
    # residue of a product matches the product of residues
    R = make_galois_ring(3, 2)
    rng = random.Random(5)
    for _ in range(100):
        a = tuple(rng.randrange(R.char) for _ in range(2))
        b = tuple(rng.randrange(R.char) for _ in range(2))
        assert residue(R, gr_mul(R, a, b)) == field_mul(
            R, residue(R, a), residue(R, b)
        )
        assert residue(R, gr_add(R, a, b)) == residue(R, a) ^ residue(R, b)


def test_field_elem_formatting():
    R = make_galois_ring(3, 2)
    assert [format_field_elem(R, c) for c in range(4)] == ["0", "1", "ξ", "ξ^2"]
    assert parse_field_elem(R, "xi^2") == 3
    assert parse_field_elem(R, "x+1") == 3
    assert parse_field_elem(R, "ξ") == 2
    assert parse_field_elem(R, "1") == 1
    for c in range(4):
        assert parse_field_elem(R, format_field_elem(R, c)) == c
    with pytest.raises(ValueError):
        parse_field_elem(R, "ξ^9!")
    assert parse_field_elem(R, "x^0") == 1
    # negative exponents are checked in a child process (tests/test_cli.py
    # and below), since a loop that never ends would stall the suite here
    for text in ("ξ^+2", "ξ^ 2", "x^1_0", "ξ^²"):
        with pytest.raises(ValueError, match="cannot parse field element term"):
            parse_field_elem(R, text)
    F2 = make_galois_ring(2, 1)  # modulus x, so the generator is 0
    assert parse_field_elem(F2, "ξ") == 0
    assert parse_field_elem(F2, "x+1") == 1
    assert parse_field_elem(F2, "ξ^99999999999999999999") == 0


def test_field_pow_refuses_negative_exponents():
    code = (
        "from chaincodes.galois import field_pow, make_galois_ring\n"
        "try:\n"
        "    field_pow(make_galois_ring(3, 2), 2, -1)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert run_child("-c", code).stdout.strip() == "negative exponent -1"


def test_invalid_ring_parameters():
    with pytest.raises(ValueError):
        make_galois_ring(0, 1)
    with pytest.raises(ValueError):
        make_galois_ring(2, 0)
    with pytest.raises(ValueError):
        make_galois_ring(2, 2, (1, 1, 1, 1))  # wrong modulus length
