"""Chain ring construction, u-adic expansions, and digit arithmetic."""

import random

import pytest

from chaincodes.chain import (
    cr_add,
    cr_div_u,
    cr_from_int,
    cr_inv,
    cr_is_unit,
    cr_mul,
    cr_neg,
    cr_one,
    cr_pow,
    cr_sub,
    cr_u,
    cr_u_pow,
    cr_zero,
    format_ring_spec,
    from_u_adic,
    make_ring,
    parse_ring_spec,
    pi,
    pi0,
    preset,
    to_u_adic,
    truncate_elem,
    two_unit_digits,
    u_valuation,
)
from chaincodes.chain import (  # the private reference arithmetic
    _TABLE_MAX,
    _ref_add,
    _ref_from_int,
    _ref_mul,
    _ref_neg,
    _ref_to_int,
)

# the ring with residue field of size 8 that closed_form counts on: |R| = 2^24
M3_RING = dict(s=3, m=3, kappa=3, t=2, modulus=(1, 1, 0, 1))

PRESET_PARAMS = {
    "R4,1": (2, 1, 3, 1, 4),
    "R5,1": (2, 1, 3, 2, 5),
    "R6,2": (2, 2, 3, 3, 6),
    "R8,2": (3, 2, 3, 2, 8),
}


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_preset_parameters(name):
    s, m, kappa, t, e = PRESET_PARAMS[name]
    spec = preset(name)
    assert (spec.gr.s, spec.gr.m, spec.kappa, spec.t) == (s, m, kappa, t)
    assert spec.e == e
    assert spec.q == 2**m
    assert spec.size() == spec.q**e
    assert spec.size(2) == spec.q**2
    assert spec.ideal_size(1) == spec.q ** (e - 1)
    assert spec.ideal_size(e) == 1


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset("R9,9")


def test_make_ring_validation():
    with pytest.raises(ValueError):
        make_ring(2, 1, 2, 1)  # even ramification index
    with pytest.raises(ValueError):
        make_ring(2, 1, 1, 1)  # ramification index below 3
    with pytest.raises(ValueError):
        make_ring(2, 1, 3, 0)  # torsion cut out of range
    with pytest.raises(ValueError):
        make_ring(2, 1, 3, 4)
    with pytest.raises(ValueError):
        make_ring(1, 1, 3, 1)  # characteristic 2 collapses the tower


def test_two_splits_as_u_cube_times_unit():
    # the defining identity of the R8,2 preset: u^3 + u^6 = 2
    spec = preset("R8,2")
    lhs = cr_add(spec, cr_u_pow(spec, 3), cr_u_pow(spec, 6))
    assert lhs == cr_from_int(spec, 2)
    assert to_u_adic(spec, cr_from_int(spec, 2)) == (0, 0, 0, 1, 0, 0, 1, 0)


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_two_has_valuation_kappa(name):
    spec = preset(name)
    assert u_valuation(spec, cr_from_int(spec, 2)) == 3


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_two_unit_digits_identity(name):
    # 2 = u^kappa * eta with eta a unit; the digits describe eta
    spec = preset(name)
    digits = two_unit_digits(spec)
    assert len(digits) == spec.e - spec.kappa
    assert digits[0] != 0
    eta = from_u_adic(spec, digits + (0,) * spec.kappa)
    assert cr_is_unit(spec, eta)
    assert cr_mul(spec, cr_u_pow(spec, spec.kappa), eta) == cr_from_int(spec, 2)


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_ring_axioms_on_random_elements(name):
    spec = preset(name)
    rng = random.Random(hash(name) & 0xFFFF)
    q, e = spec.q, spec.e

    def rand():
        return from_u_adic(spec, tuple(rng.randrange(q) for _ in range(e)))

    for _ in range(150):
        a, b, c = rand(), rand(), rand()
        assert cr_add(spec, a, b) == cr_add(spec, b, a)
        assert cr_mul(spec, a, b) == cr_mul(spec, b, a)
        assert cr_add(spec, cr_add(spec, a, b), c) == cr_add(spec, a, cr_add(spec, b, c))
        assert cr_mul(spec, cr_mul(spec, a, b), c) == cr_mul(spec, a, cr_mul(spec, b, c))
        assert cr_mul(spec, a, cr_add(spec, b, c)) == cr_add(
            spec, cr_mul(spec, a, b), cr_mul(spec, a, c)
        )
        assert cr_add(spec, a, cr_zero(spec)) == a
        assert cr_mul(spec, a, cr_one(spec)) == a
        assert cr_add(spec, a, cr_neg(spec, a)) == cr_zero(spec)
        assert cr_sub(spec, a, b) == cr_add(spec, a, cr_neg(spec, b))


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_u_adic_round_trip(name):
    spec = preset(name)
    rng = random.Random(31)
    for _ in range(200):
        digits = tuple(rng.randrange(spec.q) for _ in range(spec.e))
        assert to_u_adic(spec, from_u_adic(spec, digits)) == digits
    assert to_u_adic(spec, cr_zero(spec)) == (0,) * spec.e
    assert to_u_adic(spec, cr_one(spec)) == (1,) + (0,) * (spec.e - 1)


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_u_powers_and_valuation(name):
    spec = preset(name)
    for i in range(spec.e + 1):
        p = cr_u_pow(spec, i)
        if i == spec.e:
            assert p == cr_zero(spec)
        else:
            assert u_valuation(spec, p) == i
            digits = to_u_adic(spec, p)
            assert digits[i] == 1 and sum(digits) == 1
    # u^e vanishes and the valuation of zero is e by convention
    assert u_valuation(spec, cr_zero(spec)) == spec.e
    # repeated multiplication agrees with the table
    acc = cr_one(spec)
    for i in range(spec.e):
        assert acc == cr_u_pow(spec, i)
        acc = cr_mul(spec, acc, cr_u(spec))
    assert acc == cr_zero(spec)


def test_units_and_inverses():
    spec = preset("R6,2")
    rng = random.Random(13)
    for _ in range(100):
        digits = tuple(rng.randrange(spec.q) for _ in range(spec.e))
        a = from_u_adic(spec, digits)
        if digits[0] == 0:
            assert not cr_is_unit(spec, a)
        else:
            assert cr_is_unit(spec, a)
            assert cr_mul(spec, a, cr_inv(spec, a)) == cr_one(spec)
    assert cr_pow(spec, cr_u(spec), spec.e) == cr_zero(spec)


def test_teichmuller_digits_multiply():
    # T(c) T(d) = T(cd): the kernel's carry-free digit products rely on it
    spec = preset("R8,2")
    from chaincodes.galois import field_mul

    for c in range(spec.q):
        tc = from_u_adic(spec, (c,))
        assert pi0(spec, tc) == c
        for d in range(spec.q):
            lhs = cr_mul(spec, tc, from_u_adic(spec, (d,)))
            assert lhs == from_u_adic(spec, (field_mul(spec.gr, c, d),))


def test_pi_reads_single_digits():
    spec = preset("R8,2")
    rng = random.Random(3)
    for _ in range(50):
        digits = tuple(rng.randrange(spec.q) for _ in range(spec.e))
        a = from_u_adic(spec, digits)
        for i in range(spec.e):
            assert pi(spec, i, a) == digits[i]


def test_truncate_elem_zeroes_high_digits():
    spec = preset("R8,2")
    rng = random.Random(4)
    for _ in range(50):
        digits = tuple(rng.randrange(spec.q) for _ in range(spec.e))
        a = from_u_adic(spec, digits)
        for level in range(spec.e + 1):
            want = digits[:level] + (0,) * (spec.e - level)
            assert to_u_adic(spec, truncate_elem(spec, a, level)) == want


def test_div_u_shifts_digits():
    spec = preset("R8,2")
    x = from_u_adic(spec, (0, 3, 1, 0, 2, 0, 0, 1))
    assert to_u_adic(spec, cr_div_u(spec, x)) == (3, 1, 0, 2, 0, 0, 1, 0)


def test_level_ops_match_truncated_full_ops():
    # truncation to R_level is a ring homomorphism
    spec = preset("R8,2")
    rng = random.Random(6)
    for _ in range(50):
        a = from_u_adic(spec, tuple(rng.randrange(spec.q) for _ in range(spec.e)))
        b = from_u_adic(spec, tuple(rng.randrange(spec.q) for _ in range(spec.e)))
        for level in (2, 4, 6):
            ta, tb = truncate_elem(spec, a, level), truncate_elem(spec, b, level)
            for op in (cr_add, cr_mul):
                assert truncate_elem(spec, op(spec, a, b), level) == truncate_elem(
                    spec, op(spec, ta, tb), level
                )


def test_ring_spec_round_trip():
    for name in sorted(PRESET_PARAMS):
        spec = preset(name)
        text = format_ring_spec(spec)
        again = parse_ring_spec(text)
        assert format_ring_spec(again) == text
        assert (again.gr.s, again.gr.m, again.kappa, again.t) == (
            spec.gr.s,
            spec.gr.m,
            spec.kappa,
            spec.t,
        )
    assert format_ring_spec(preset("R4,1")) == "CR(2^2,1;3,1;1)"
    with pytest.raises(ValueError):
        parse_ring_spec("CR(2^2,1)")
    with pytest.raises(ValueError):
        parse_ring_spec("GR(2^2,1;3,1;1)")


# ---------------------------------------------------------------------------
# the element kernel against the nested-tuple reference arithmetic
# ---------------------------------------------------------------------------

GRID_RINGS = ("R4,1", "R5,1", "CR(2^2,1;5,2;1)", "CR(2^2,2;3,1;1)")


def _ring(label):
    return preset(label) if label in PRESET_PARAMS else parse_ring_spec(label)


@pytest.mark.parametrize("label", GRID_RINGS)
def test_kernel_matches_reference_on_every_pair(label):
    spec = _ring(label)
    size = spec.size()
    assert size <= 256
    refs = [_ref_from_int(spec, a) for a in range(size)]
    assert [_ref_to_int(spec, r) for r in refs] == list(range(size))
    ops = spec.ops
    for a in range(size):
        assert refs[ops.neg(a)] == _ref_neg(spec, refs[a])
        for b in range(size):
            assert refs[ops.add(a, b)] == _ref_add(spec, refs[a], refs[b])
            assert refs[ops.mul(a, b)] == _ref_mul(spec, refs[a], refs[b])


@pytest.mark.parametrize("label, samples", [("R6,2", 300), ("R8,2", 300), ("m=3", 25)])
def test_kernel_matches_reference_on_samples(label, samples):
    spec = make_ring(**M3_RING) if label == "m=3" else preset(label)
    assert (spec.size() > _TABLE_MAX) == (label == "m=3")  # the m=3 ring has no tables
    rng = random.Random(2024)
    size = spec.size()
    if size <= _TABLE_MAX:  # digit index -> coordinates -> digit index is the identity
        assert all(spec.ops.add(a, 0) == a for a in range(size))
    from chaincodes.galois import field_mul

    for c in range(spec.q):
        for d in range(spec.q):
            lhs = cr_mul(spec, from_u_adic(spec, (c,)), from_u_adic(spec, (d,)))
            assert lhs == from_u_adic(spec, (field_mul(spec.gr, c, d),))

    def ref(op, *args):
        return _ref_to_int(spec, op(spec, *(_ref_from_int(spec, x) for x in args)))

    for _ in range(samples):
        a, b, c = (rng.randrange(size) for _ in range(3))
        assert cr_add(spec, a, b) == ref(_ref_add, a, b)
        assert cr_mul(spec, a, b) == ref(_ref_mul, a, b)
        assert cr_neg(spec, a) == ref(_ref_neg, a)
        assert cr_mul(spec, a, cr_add(spec, b, c)) == cr_add(
            spec, cr_mul(spec, a, b), cr_mul(spec, a, c)
        )
        if cr_is_unit(spec, a):
            assert cr_mul(spec, a, cr_inv(spec, a)) == cr_one(spec)
        xs = [rng.randrange(size) for _ in range(3)]
        ys = [rng.randrange(size) for _ in range(3)]
        want = 0
        for x, y in zip(xs, ys):
            want = cr_add(spec, want, cr_mul(spec, x, y))
        assert spec.ops.dot(xs, ys) == want


def test_ring_construction_builds_no_kernel():
    import tracemalloc

    for build in (lambda: preset("R8,2"), lambda: make_ring(**M3_RING)):
        tracemalloc.start()
        try:
            spec = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        assert "ops" not in vars(spec)


def test_from_u_adic_rejects_digits_outside_the_field():
    r41, r62 = preset("R4,1"), preset("R6,2")
    for spec, digits in ((r41, (2,)), (r62, (5,)), (r62, (1, 4)), (r41, (-1,))):
        with pytest.raises(ValueError, match="outside the residue field"):
            from_u_adic(spec, digits)
    # digits at positions >= e vanish, since u^e = 0
    assert from_u_adic(r41, (1, 0, 0, 0, 1)) == from_u_adic(r41, (1,))
    assert from_u_adic(r62, (0,) * 6 + (3,)) == cr_zero(r62)
