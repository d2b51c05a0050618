"""Chain ring construction, u-adic expansions, and digit arithmetic."""

import random

import pytest

from chaincodes.chain import (
    cr_from_int,
    cr_inv,
    cr_pow,
    format_ring_spec,
    from_u_adic,
    make_ring,
    parse_ring_spec,
    pi0,
    preset,
    to_u_adic,
    truncate_elem,
    u_valuation,
)
from chaincodes.chain import (  # the private reference arithmetic
    _TABLE_MAX,
    _pack_ref,
    _ref_add,
    _ref_from_gr,
    _ref_from_int,
    _ref_mul,
    _ref_neg,
)
from chaincodes.galois import field_mul, gr_from_int

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
    lhs = spec.ops.add(1 << (3 * spec.m), 1 << (6 * spec.m))
    assert lhs == cr_from_int(spec, 2)
    assert to_u_adic(spec, cr_from_int(spec, 2)) == (0, 0, 0, 1, 0, 0, 1, 0)


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_two_has_valuation_kappa(name):
    spec = preset(name)
    assert u_valuation(spec, cr_from_int(spec, 2)) == 3


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_two_unit_digits_identity(name):
    # 2 = u^kappa * eta with eta a unit; the digits of 2 from kappa on are eta's
    spec = preset(name)
    two = cr_from_int(spec, 2)
    digits = to_u_adic(spec, two)[spec.kappa:]
    assert digits[0] != 0
    eta = from_u_adic(spec, digits)
    assert pi0(spec, eta) != 0  # a unit
    assert spec.ops.mul(1 << (spec.m * spec.kappa), eta) == two


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_ring_axioms_on_random_elements(name):
    spec = preset(name)
    rng = random.Random(hash(name) & 0xFFFF)
    q, e = spec.q, spec.e
    add, neg, mul = spec.ops.add, spec.ops.neg, spec.ops.mul

    def rand():
        return from_u_adic(spec, tuple(rng.randrange(q) for _ in range(e)))

    for _ in range(150):
        a, b, c = rand(), rand(), rand()
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, neg(a)) == 0
        assert neg(neg(a)) == a


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_u_adic_round_trip(name):
    spec = preset(name)
    rng = random.Random(31)
    for _ in range(200):
        digits = tuple(rng.randrange(spec.q) for _ in range(spec.e))
        # digit i sits in bits m*i .. m*i+m-1 of the element
        a = from_u_adic(spec, digits)
        assert a == sum(d << (spec.m * i) for i, d in enumerate(digits))
        assert to_u_adic(spec, a) == digits
    assert to_u_adic(spec, 0) == (0,) * spec.e
    assert to_u_adic(spec, 1) == (1,) + (0,) * (spec.e - 1)


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
def test_u_powers_and_valuation(name):
    spec = preset(name)
    # u^i is digit 1 at position i: the digit index 1 << m*i
    for i in range(spec.e):
        p = 1 << (spec.m * i)
        assert u_valuation(spec, p) == i
        digits = to_u_adic(spec, p)
        assert digits[i] == 1 and sum(digits) == 1
    # the valuation of zero is e by convention
    assert u_valuation(spec, 0) == spec.e
    # repeated multiplication by u is a shift by m bits, and u^e vanishes
    u = 1 << spec.m
    acc = 1
    for i in range(spec.e):
        assert acc == 1 << (spec.m * i)
        acc = spec.ops.mul(acc, u)
    assert acc == 0


def test_units_and_inverses():
    spec = preset("R6,2")
    rng = random.Random(13)
    for _ in range(100):
        digits = tuple(rng.randrange(spec.q) for _ in range(spec.e))
        a = from_u_adic(spec, digits)
        if digits[0] == 0:
            with pytest.raises(ValueError, match="not a unit"):
                cr_inv(spec, a)
        else:
            assert spec.ops.mul(a, cr_inv(spec, a)) == 1
    assert cr_pow(spec, 1 << spec.m, spec.e) == 0


def test_teichmuller_digits_multiply():
    # T(c) T(d) = T(cd): the kernel's carry-free digit products rely on it
    spec = preset("R8,2")
    for c in range(spec.q):
        tc = from_u_adic(spec, (c,))
        assert pi0(spec, tc) == c
        for d in range(spec.q):
            lhs = spec.ops.mul(tc, from_u_adic(spec, (d,)))
            assert lhs == from_u_adic(spec, (field_mul(spec.gr, c, d),))


def test_truncate_elem_zeroes_high_digits():
    spec = preset("R8,2")
    rng = random.Random(4)
    for _ in range(50):
        digits = tuple(rng.randrange(spec.q) for _ in range(spec.e))
        a = from_u_adic(spec, digits)
        for level in range(spec.e + 1):
            want = digits[:level] + (0,) * (spec.e - level)
            assert to_u_adic(spec, truncate_elem(spec, a, level)) == want


def test_level_ops_match_truncated_full_ops():
    # truncation to R_level is a ring homomorphism
    spec = preset("R8,2")
    rng = random.Random(6)
    for _ in range(50):
        a = from_u_adic(spec, tuple(rng.randrange(spec.q) for _ in range(spec.e)))
        b = from_u_adic(spec, tuple(rng.randrange(spec.q) for _ in range(spec.e)))
        for level in (2, 4, 6):
            ta, tb = truncate_elem(spec, a, level), truncate_elem(spec, b, level)
            for op in (spec.ops.add, spec.ops.mul):
                assert truncate_elem(spec, op(a, b), level) == truncate_elem(
                    spec, op(ta, tb), level
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
    assert len(set(refs)) == size
    ops = spec.ops
    for a in range(size):
        assert ops.coords(a) == _pack_ref(spec, refs[a])
        assert refs[ops.neg(a)] == _ref_neg(spec, refs[a])
        for b in range(size):
            assert refs[ops.add(a, b)] == _ref_add(spec, refs[a], refs[b])
            assert refs[ops.mul(a, b)] == _ref_mul(spec, refs[a], refs[b])
    # the coordinate mask of a level: one representative per coset of <u^level>
    assert len(ops.level_masks) == spec.e + 1
    for level in range(spec.e + 1):
        mask = ops.level_masks[level]
        assert bin(mask).count("1") == spec.m * level
        for a in range(size):
            cut = truncate_elem(spec, a, level)
            assert ops.coords(a) & mask == ops.coords(cut) & mask
            assert truncate_elem(spec, ops.digits(ops.coords(a) & mask), level) == cut


# R6,2 and R8,2 keep tables; the m=3 ring (2^24 elements) and CR(2^3,2;3,3;1)
# (2^18 elements, q = 4) compute each look-up
@pytest.mark.parametrize(
    "label, samples", [("R6,2", 300), ("R8,2", 300), ("m=3", 25), ("CR(2^3,2;3,3;1)", 100)]
)
def test_kernel_matches_reference_on_samples(label, samples):
    spec = make_ring(**M3_RING) if label == "m=3" else _ring(label)
    assert (spec.size() > _TABLE_MAX) == (label in ("m=3", "CR(2^3,2;3,3;1)"))
    rng = random.Random(2024)
    size = spec.size()
    if size <= _TABLE_MAX:  # digit index -> coordinates -> digit index is the identity
        assert all(spec.ops.add(a, 0) == a for a in range(size))
    for c in range(-8, 17):
        want = _ref_from_gr(spec, gr_from_int(spec.gr, c))
        assert _ref_from_int(spec, cr_from_int(spec, c)) == want

    ops = spec.ops
    for c in range(spec.q):
        for d in range(spec.q):
            lhs = ops.mul(from_u_adic(spec, (c,)), from_u_adic(spec, (d,)))
            assert lhs == from_u_adic(spec, (field_mul(spec.gr, c, d),))

    def ref(op, *args):
        return op(spec, *(_ref_from_int(spec, x) for x in args))

    width = spec.m * spec.e  # bits of one element's packed coordinates

    for _ in range(samples):
        a, b, c = (rng.randrange(size) for _ in range(3))
        assert _ref_from_int(spec, ops.add(a, b)) == ref(_ref_add, a, b)
        assert _ref_from_int(spec, ops.mul(a, b)) == ref(_ref_mul, a, b)
        assert _ref_from_int(spec, ops.neg(a)) == ref(_ref_neg, a)
        assert ops.mul(a, ops.add(b, c)) == ops.add(ops.mul(a, b), ops.mul(a, c))
        if pi0(spec, a):
            assert ops.mul(a, cr_inv(spec, a)) == 1
        xs = [rng.randrange(size) for _ in range(3)]
        ys = [rng.randrange(size) for _ in range(3)]
        want = 0
        for x, y in zip(xs, ys):
            want = ops.add(want, ops.mul(x, y))
        assert ops.dot(xs, ys) == want
        # packed coordinates: round trip, lane-wise add, digitwise scale
        assert ops.coords(a) == _pack_ref(spec, _ref_from_int(spec, a))
        assert ops.digits(ops.coords(a)) == a
        rep = ((1 << (width * 3)) - 1) // ((1 << width) - 1)  # 1 at the bottom of each lane
        high = ops.high * rep
        low = ((1 << (width * 3)) - 1) ^ high
        packed = [sum(ops.coords(x) << (width * i) for i, x in enumerate(v)) for v in (xs, ys)]
        total = ((packed[0] & low) + (packed[1] & low)) ^ ((packed[0] ^ packed[1]) & high)
        lanes = [ops.digits((total >> (width * i)) & ((1 << width) - 1)) for i in range(3)]
        assert lanes == [ops.add(x, y) for x, y in zip(xs, ys)]
        d = rng.randrange(spec.q)
        assert ops.scale[d](a) == ops.mul(d, a)
        level = rng.randrange(spec.e + 1)
        mask, cut = ops.level_masks[level], truncate_elem(spec, a, level)
        assert ops.coords(a) & mask == ops.coords(cut) & mask
        assert truncate_elem(spec, ops.digits(ops.coords(a) & mask), level) == cut


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
    assert from_u_adic(r62, (0,) * 6 + (3,)) == 0
