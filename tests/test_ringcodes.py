"""Chain ring codes: standard form, torsion, truncation, duality."""

import dataclasses
import random

import pytest

from chaincodes.chain import cr_add, cr_mul, from_u_adic, preset, truncate_elem, u_valuation
from chaincodes.fieldcodes import is_subcode
from chaincodes.ringcodes import (
    code_signature,
    codes_equal,
    dual_code_ring,
    enumerate_codewords,
    is_self_dual_ring,
    is_self_orthogonal_ring,
    make_code,
    rv_dot,
    satisfies_deep_orthogonality,
    scaled_generators,
    standard_form,
    torsion_code,
    truncate_code,
)

from _util import random_code, so_pool


def _random_codes(seed, counts=((("R4,1", 3), 60), (("R6,2", 2), 40), (("R8,2", 2), 30))):
    rng = random.Random(seed)
    out = []
    for (name, n), reps in counts:
        spec = preset(name)
        for _ in range(reps):
            out.append(random_code(rng, spec, n))
    return out


def test_standard_form_shape_invariants():
    for code in _random_codes(21):
        spec = code.ring
        lam = code.level_type
        assert len(lam) == code.level == spec.e
        assert sum(lam) <= code.n
        # pivots are distinct across all blocks, rows lead with 1 there
        flat = [p for block in code.pivots for p in block]
        assert len(flat) == len(set(flat)) == sum(lam)
        for h, (rows, pivs) in enumerate(zip(code.block_rows, code.pivots), start=1):
            assert len(rows) == len(pivs)
            for row, p in zip(rows, pivs):
                assert u_valuation(spec, row[p]) == 0


def test_make_code_is_canonical():
    # rebuilding from the scaled generators lands on the same code
    for code in _random_codes(22):
        spec = code.ring
        again = make_code(spec, code.level, code.n, scaled_generators(code))
        assert codes_equal(code, again)
        if code.size() <= 4096:
            assert code_signature(code) == code_signature(again)


def test_row_scrambles_preserve_the_code():
    rng = random.Random(23)
    spec = preset("R4,1")
    for _ in range(60):
        code = random_code(rng, spec, 3)
        gens = scaled_generators(code)
        if len(gens) < 2:
            continue
        # add a random multiple of another generator to the first one
        c = from_u_adic(spec, tuple(rng.randrange(spec.q) for _ in range(spec.e)))
        other = rng.randrange(1, len(gens))
        bumped = tuple(
            cr_add(spec, a, cr_mul(spec, c, gens[other][i]))
            for i, a in enumerate(gens[0])
        )
        scrambled = [bumped] + list(gens[1:])
        assert codes_equal(code, make_code(spec, code.level, code.n, scrambled))


def test_size_matches_codeword_count():
    for code in _random_codes(24, counts=((("R4,1", 3), 40), (("R5,1", 2), 30))):
        if code.size() > 4096:
            continue
        words = list(enumerate_codewords(code))
        assert len(words) == code.size()
        assert len(set(words)) == len(words)


def test_codewords_below_full_depth_lie_in_the_level_quotient():
    spec = preset("R4,1")
    code = make_code(spec, 2, 3, [(1, 0, 1), (0, 1, 1)])
    words = list(enumerate_codewords(code))
    assert len(words) == code.size() == 16
    for word in words:
        assert all(truncate_elem(spec, x, 2) == x for x in word), word


def test_signature_ignores_the_spanning_rows():
    # (1,1,0) = (1,0,1) + (0,1,1) over R_2, so both row pairs span one
    # level-2 code; their sums in R_e differ only in digits at and above 2
    spec = preset("R4,1")
    code = make_code(spec, 2, 3, [(1, 0, 1), (0, 1, 1)])
    other = dataclasses.replace(code, block_rows=(((1, 1, 0), (0, 1, 1)), ()))
    assert code_signature(other) == code_signature(code)


def test_torsion_nesting_and_size_product():
    for code in _random_codes(25):
        spec = code.ring
        tors = [torsion_code(code, i) for i in range(1, spec.e + 1)]
        for a, b in zip(tors, tors[1:]):
            assert is_subcode(a, b)
        prod = 1
        for t in tors:
            prod *= t.size
        assert prod == code.size()


def test_truncation_levels_and_torsion_identity():
    for code in _random_codes(26):
        spec = code.ring
        e = spec.e
        for ell in range(2 - (e % 2), e, 2):
            if ell < 1:
                continue
            trunc = truncate_code(code, ell)
            gamma = (e - ell) // 2
            assert trunc.level == ell
            # merged head block plus the carried tail of the original type
            lam = code.level_type
            want_head = sum(lam[: gamma + 1])
            assert trunc.level_type[0] == want_head
            assert trunc.level_type[1:] == lam[gamma + 1 : gamma + ell]
            for i in range(1, ell + 1):
                lhs = torsion_code(trunc, i)
                rhs = torsion_code(code, min(gamma + i, e))
                assert lhs.rows == rhs.rows


def test_dual_type_formula_and_involution():
    for code in _random_codes(27):
        spec = code.ring
        dual = dual_code_ring(code)
        assert dual.level_type == code.dual_level_type()
        assert code.size() * dual.size() == spec.size() ** code.n
        # every pair of generators is orthogonal at full precision
        for a in scaled_generators(code):
            for b in scaled_generators(dual):
                assert u_valuation(spec, rv_dot(spec, a, b)) >= spec.e
        assert codes_equal(dual_code_ring(dual), code)


def test_self_orthogonal_iff_contained_in_dual():
    for code in _random_codes(28, counts=((("R4,1", 3), 80), (("R6,2", 2), 40))):
        spec = code.ring
        dual = dual_code_ring(code)
        # containment without codeword enumeration: adding the generators
        # of the code to the dual must leave the dual unchanged
        joined = make_code(
            spec,
            spec.e,
            code.n,
            list(scaled_generators(code)) + list(scaled_generators(dual)),
        )
        assert is_self_orthogonal_ring(code) == codes_equal(joined, dual)
        assert is_self_dual_ring(code) == codes_equal(code, dual)


def test_self_orthogonal_matches_codeword_dots():
    rng = random.Random(29)
    spec = preset("R4,1")
    for _ in range(60):
        code = random_code(rng, spec, 2)
        words = list(enumerate_codewords(code))
        slow = all(
            u_valuation(spec, rv_dot(spec, a, b)) >= spec.e
            for a in words
            for b in words
        )
        assert is_self_orthogonal_ring(code) == slow


def test_known_self_dual_code():
    spec = preset("R4,1")
    # u^2 times the identity is self-dual at length 2: type {0,0,2,0}
    u2 = from_u_adic(spec, (0, 0, 1, 0))
    zero = from_u_adic(spec, (0, 0, 0, 0))
    code = make_code(spec, 4, 2, [(u2, zero), (zero, u2)])
    assert code.level_type == (0, 0, 2, 0)
    assert is_self_orthogonal_ring(code)
    assert is_self_dual_ring(code)
    assert satisfies_deep_orthogonality(code)


def test_deep_orthogonality_on_pool_codes():
    # every self-orthogonal full-depth code passes the deep filter
    for code in so_pool("R4,1", 2):
        assert satisfies_deep_orthogonality(code)


def test_deep_orthogonality_rejects_shallow_truncation():
    # the all-one single-row code at level 6 over R8,2 is self-orthogonal
    # but its head rows fail the depth conditions
    spec = preset("R8,2")
    one = from_u_adic(spec, (1,) + (0,) * 7)
    full = make_code(spec, 8, 4, [(one, one, one, one)])
    naive = truncate_code(full, 6)
    assert is_self_orthogonal_ring(naive)
    assert not satisfies_deep_orthogonality(naive)
