"""Residue-field linear codes: RREF, duality, double evenness, subspaces."""

import itertools
import math
import random

import pytest

from chaincodes.enumeration import gaussian_binomial
from chaincodes.fieldcodes import (
    all_one,
    codewords,
    contains,
    contains_all_one,
    elementary_symmetric_2,
    enumerate_subspaces,
    is_doubly_even,
    is_self_orthogonal_field,
    is_subcode,
    make_field_code,
    sigma_doubly_even,
    vec_add,
    vec_dot,
    zero_code,
)
from chaincodes.galois import make_galois_ring

from _util import random_field_code, reference_placed_subspaces


def _grs():
    return [make_galois_ring(2, 1), make_galois_ring(3, 2)]


def test_rref_canonical_and_idempotent():
    rng = random.Random(11)
    for gr in _grs():
        for _ in range(100):
            n = rng.randint(1, 5)
            code = random_field_code(rng, gr, n, n)
            again = make_field_code(gr, n, code.rows)
            assert again.rows == code.rows
            assert again.pivots == code.pivots
            # pivots are strictly increasing with unit leading entries
            for r, p in zip(code.rows, code.pivots):
                assert r[p] == 1
                assert all(r[j] == 0 for j in range(p))
            # other rows are zero at every pivot column
            for i, r in enumerate(code.rows):
                for j, p in enumerate(code.pivots):
                    if i != j:
                        assert r[p] == 0


def test_span_membership_and_size():
    rng = random.Random(12)
    for gr in _grs():
        for _ in range(40):
            n = rng.randint(1, 4)
            code = random_field_code(rng, gr, n, n)
            words = list(codewords(code))
            assert len(words) == code.size == gr.q**code.dim
            assert len(set(words)) == len(words)
            for w in words:
                assert contains(code, w)
            assert contains(code, (0,) * n)


def test_self_orthogonal_matches_dual_containment():
    # the code lies in its dual iff every codeword is orthogonal to every row
    rng = random.Random(14)
    for gr in _grs():
        for _ in range(60):
            n = rng.randint(1, 4)
            code = random_field_code(rng, gr, n, n)
            in_dual = all(
                vec_dot(gr, w, v) == 0 for w in codewords(code) for v in code.rows
            )
            assert is_self_orthogonal_field(code) == in_dual


def test_bilinear_form_is_symmetric_and_additive_in_squares():
    # the chain-ring pairing on the residue field is the coordinatewise dot product
    rng = random.Random(15)
    for gr in _grs():
        n = 4
        for _ in range(50):
            a, b, c = (tuple(rng.randrange(gr.q) for _ in range(n)) for _ in range(3))
            assert vec_dot(gr, a, b) == vec_dot(gr, b, a)
            assert vec_dot(gr, vec_add(a, c), b) == vec_dot(gr, a, b) ^ vec_dot(gr, c, b)


def test_elementary_symmetric_2_small_cases():
    gr = make_galois_ring(2, 1)
    # weight-counting over the binary field: e2(v) = C(wt, 2) mod 2
    assert elementary_symmetric_2(gr, (1, 1, 0, 0)) == 1
    assert elementary_symmetric_2(gr, (1, 1, 1, 1)) == 0  # C(4,2) = 6 even
    assert elementary_symmetric_2(gr, (1, 0, 0, 0)) == 0
    assert elementary_symmetric_2(gr, (1, 1, 1, 0)) == 1  # C(3,2) = 3 odd


def test_doubly_even_binary_examples():
    gr = make_galois_ring(2, 1)
    ones4 = make_field_code(gr, 4, [(1, 1, 1, 1)])
    assert is_doubly_even(ones4)
    pair = make_field_code(gr, 4, [(1, 1, 0, 0)])
    assert not is_doubly_even(pair)
    zero = zero_code(gr, 4)
    assert is_doubly_even(zero)


def test_doubly_even_basis_criterion_vs_every_codeword():
    # the fast basis test must agree with checking all codewords
    rng = random.Random(16)
    cases = 0
    for gr in [make_galois_ring(2, 1), make_galois_ring(3, 2)]:
        for _ in range(300):
            n = rng.randint(1, 5)
            code = random_field_code(rng, gr, n, 3)
            slow = all(
                vec_dot(gr, w, w) == 0 and elementary_symmetric_2(gr, w) == 0
                for w in codewords(code)
            )
            assert is_doubly_even(code) == slow
            cases += 1
    assert cases == 600


def test_all_one_membership():
    gr = make_galois_ring(2, 1)
    assert contains_all_one(make_field_code(gr, 3, [(1, 1, 1)]))
    assert not contains_all_one(make_field_code(gr, 3, [(1, 1, 0)]))
    assert all_one(4) == (1, 1, 1, 1)


def test_enumerate_subspaces_counts_match_gaussian_binomials():
    for gr, n, d in [
        (make_galois_ring(2, 1), 4, 2),
        (make_galois_ring(2, 1), 5, 1),
        (make_galois_ring(3, 2), 3, 1),
        (make_galois_ring(3, 2), 3, 2),
    ]:
        subs = list(enumerate_subspaces(gr, n, range(n), d))
        assert len(subs) == gaussian_binomial(n, d, gr.q)
        keys = {s.rows for s in subs}
        assert len(keys) == len(subs)
        for s in subs:
            assert s.dim == d


def test_enumerate_extensions_are_supercodes():
    gr = make_galois_ring(2, 1)
    base = make_field_code(gr, 4, [(1, 1, 1, 1)])
    free = [c for c in range(4) if c not in base.pivots]
    exts = [
        make_field_code(gr, 4, base.rows + sub.rows)
        for sub in enumerate_subspaces(gr, 4, free, 1)
    ]
    # one extension per line of the 3-dimensional quotient: 2^3 - 1 = 7
    assert len(set(exts)) == len(exts) == 7
    for ext in exts:
        assert ext.dim == 2
        assert is_subcode(base, ext)


@pytest.mark.parametrize("m, most", [(1, 5), (2, 4)])
def test_subspaces_of_a_column_set_equal_the_placed_walk(m, most):
    # every column set of every length up to most, every dimension from
    # zero to one past the set: the same subspaces, in the same order, as
    # the walk over len(cols) coordinates copied into the columns
    gr = make_galois_ring(2, m) if m == 1 else make_galois_ring(3, 2)
    cases = 0
    for n in range(most + 1):
        for size in range(n + 1):
            for cols in itertools.combinations(range(n), size):
                for d in range(size + 2):
                    got = [(s.rows, s.pivots) for s in enumerate_subspaces(gr, n, cols, d)]
                    assert got == list(reference_placed_subspaces(gr, n, cols, d))
                    cases += 1
    assert cases == sum(math.comb(k, j) * (j + 2) for k in range(most + 1) for j in range(k + 1))


@pytest.mark.parametrize(
    "n,d,m,with_one,expected",
    [
        (4, 1, 1, True, 1),  # only the all-one length-4 word
        (2, 1, 1, False, 0),  # no doubly even word of length 2
        (3, 0, 1, False, 1),  # the zero code
        (4, 1, 1, False, 0),  # the single weight-4 word IS the all-one word
    ],
)
def test_sigma_doubly_even_pinned_values(n, d, m, with_one, expected):
    assert sigma_doubly_even(n, d, m, with_one) == expected


def test_sigma_doubly_even_counts_subspaces():
    # recount by filtering the full subspace enumeration
    for m in (1, 2):
        gr = make_galois_ring(2, m) if m == 1 else make_galois_ring(3, 2)
        for n in range(1, 5):
            for d in range(0, min(n, 2) + 1):
                slow_with = 0
                slow_without = 0
                for code in enumerate_subspaces(gr, n, range(n), d):
                    if not is_doubly_even(code):
                        continue
                    if contains_all_one(code):
                        slow_with += 1
                    else:
                        slow_without += 1
                assert sigma_doubly_even(n, d, m, True) == slow_with
                want_without = slow_without if n % 2 == 0 else slow_with + slow_without
                assert sigma_doubly_even(n, d, m, False) == want_without
