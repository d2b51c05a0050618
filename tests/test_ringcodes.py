"""Chain ring codes: standard form, torsion, truncation, duality."""

import itertools
import random

import pytest

from chaincodes import ringcodes
from chaincodes.chain import (
    PRESET_NAMES,
    from_u_adic,
    make_ring,
    parse_ring_spec,
    preset,
    truncate_elem,
    u_valuation,
)
from chaincodes.enumeration import _all_types
from chaincodes.fieldcodes import is_subcode
from chaincodes.lifting import (
    base_lift,
    enumerate_so_chains,
    expected_chain_length,
    lift_once,
    stage_plan,
    validate_chain,
)
from chaincodes.oracle import _matrix_candidates, _walk_size
from chaincodes.ringcodes import (
    RingCode,
    code_signature,
    dual_code_ring,
    enumerate_codewords,
    fill_candidates,
    fill_plan,
    is_self_dual_ring,
    is_self_orthogonal_ring,
    make_code,
    satisfies_deep_orthogonality,
    scaled_generators,
    standard_form,
    torsion_code,
    truncate_code,
)

from _util import (
    canonical_key,
    random_code,
    reference_codewords,
    reference_is_self_dual_ring,
    reference_is_self_orthogonal_ring,
    so_pool,
)


# 2^18 elements: over _TABLE_MAX, so its kernel computes each look-up
COMPUTED_RING = "CR(2^3,2;3,3;1)"
COMPUTED = (((COMPUTED_RING, 2), 10), ((COMPUTED_RING, 3), 10))


def _ring(label):
    return preset(label) if label in PRESET_NAMES else parse_ring_spec(label)


def _random_codes(
    seed, counts=((("R4,1", 3), 60), (("R6,2", 2), 40), (("R8,2", 2), 30)) + COMPUTED
):
    rng = random.Random(seed)
    out = []
    for (label, n), reps in counts:
        spec = _ring(label)
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
        assert again == code
        if code.size() <= 4096:
            assert code_signature(code) == code_signature(again)


def test_row_scrambles_preserve_the_code():
    rng = random.Random(23)
    for (label, n), reps in (((("R4,1", 3), 60),) + COMPUTED):
        spec = _ring(label)
        ops = spec.ops
        for _ in range(reps):
            code = random_code(rng, spec, n)
            gens = scaled_generators(code)
            if len(gens) < 2:
                continue
            # add a random multiple of another generator to the first one
            c = from_u_adic(spec, tuple(rng.randrange(spec.q) for _ in range(spec.e)))
            other = rng.randrange(1, len(gens))
            bumped = tuple(ops.add(a, ops.mul(c, b)) for a, b in zip(gens[0], gens[other]))
            scrambled = make_code(spec, code.level, n, [bumped] + list(gens[1:]))
            assert canonical_key(scrambled) == canonical_key(code)


def test_size_matches_codeword_count():
    for code in _random_codes(24, counts=((("R4,1", 3), 40), (("R5,1", 2), 30))):
        if code.size() > 4096:
            continue
        words = list(enumerate_codewords(code))
        assert len(words) == code.size()
        assert len(set(words)) == len(words)


SIGNATURE_RINGS = PRESET_NAMES + ("CR(2^2,1;5,2;1)", "CR(2^3,1;3,3;3)", "CR(2^2,2;3,1;1)", "m=3")


@pytest.mark.parametrize("label", SIGNATURE_RINGS)
def test_signature_decodes_to_the_reference_codewords(label):
    # random codes whose rows start at random depths, at full depth and at
    # every lower level truncate_code reaches; the m=3 ring (2^24 elements)
    # computes its kernel look-ups instead of reading tables
    if label == "m=3":
        spec, n = make_ring(3, 3, 3, 2, modulus=(1, 1, 0, 1)), 2
    else:
        spec = _ring(label)
        n = 3 if spec.q == 2 else 2
    most = 4096
    rng = random.Random(label)
    full = truncate_elem(spec, -1, spec.e)
    width = spec.m * spec.e
    checked = 0
    for _ in range(25):
        rows = []
        for _ in range(rng.randint(0, n)):
            depth = spec.m * rng.randrange(spec.e)
            rows.append(tuple((rng.randrange(spec.size()) << depth) & full for _ in range(n)))
        code = make_code(spec, spec.e, n, rows)
        for level in range(spec.e, 0, -2):
            trunc = truncate_code(code, level)
            if trunc.size() > most:
                continue
            want = reference_codewords(trunc)
            assert len(want) == trunc.size()
            assert len(code_signature(trunc)) == len(want)
            assert set(enumerate_codewords(trunc)) == want
            # one word per codeword, whatever the generators: its masked coordinates
            mask = spec.ops.level_masks[level]
            assert code_signature(trunc) == {
                sum((spec.ops.coords(x) & mask) << (width * i) for i, x in enumerate(v))
                for v in want
            }
            checked += 1
    assert checked >= 25


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
    other = code._replace(block_rows=(((1, 1, 0), (0, 1, 1)), ()))
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
                assert u_valuation(spec, spec.ops.dot(a, b)) >= spec.e
        assert canonical_key(dual_code_ring(dual)) == canonical_key(code)


def test_self_orthogonal_iff_contained_in_dual():
    for code in _random_codes(28, counts=((("R4,1", 3), 80), (("R6,2", 2), 40)) + COMPUTED):
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
        assert is_self_orthogonal_ring(code) == (canonical_key(joined) == canonical_key(dual))
        assert is_self_dual_ring(code) == (canonical_key(code) == canonical_key(dual))


def test_self_orthogonal_matches_codeword_dots():
    rng = random.Random(29)
    spec = preset("R4,1")
    for _ in range(60):
        code = random_code(rng, spec, 2)
        words = list(enumerate_codewords(code))
        slow = all(
            u_valuation(spec, spec.ops.dot(a, b)) >= spec.e
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


def _oracle_walks(spec, n, cap=3000):
    """Every candidate of the oracle's walks over every type of length n,
    at full depth and, on the finer profiles, two levels below it."""
    for level in (spec.e, spec.e - 2):
        for lam in _all_types(spec.e, n):
            if level >= 1 and _walk_size(spec, n, lam, level) <= cap:
                yield from _matrix_candidates(spec, n, lam, level)


def _stage_lifts(spec, n):
    """Every base_lift and lift_once yield of every valid chain of length n."""
    half = expected_chain_length(spec)
    for lam in _all_types(spec.e, n):
        for chain in enumerate_so_chains(spec, n, lam[:half]):
            if validate_chain(chain):
                continue
            jets = list(base_lift(chain, lam[half]))
            yield from jets
            for k in range(1, len(stage_plan(spec))):
                jets = [c for jet in jets for c in lift_once(jet, chain, lam[half + k])]
                yield from jets


def _truncations(codes):
    """Each full-depth code pushed down to every lower level of its parity."""
    for code in codes:
        if code.level == code.ring.e:
            for level in range(code.level - 2, 0, -2):
                yield truncate_code(code, level)


@pytest.mark.parametrize(
    "label", PRESET_NAMES + ("CR(2^2,1;5,2;1)", "CR(2^3,1;3,3;3)", "CR(2^2,2;3,1;1)")
)
def test_orthogonality_predicates_equal_the_valuation_reference(label):
    # the mask test and the arithmetic palindrome check decide exactly as
    # valuations and type tuples do, on every oracle candidate, every
    # truncation (gamma > 0) and every stage lift
    spec = _ring(label)
    walked = [code for n in (1, 2) for code in _oracle_walks(spec, n)]
    # R6,2 and R8,2 lift 256,247 and 7,049,103 codes at n = 3
    lengths = (1, 2) if label in ("R6,2", "R8,2") else (1, 2, 3)
    lifted = [code for n in lengths for code in _stage_lifts(spec, n)]
    seen = {"so": set(), "sd": set(), "gamma": set()}
    for code in itertools.chain(walked, lifted, _truncations(walked), _truncations(lifted)):
        so = is_self_orthogonal_ring(code)
        sd = is_self_dual_ring(code)
        assert so == reference_is_self_orthogonal_ring(code), code
        assert sd == reference_is_self_dual_ring(code), code
        seen["so"].add(so)
        seen["sd"].add(sd)
        seen["gamma"].add(code.gamma > 0)
    assert seen == {"so": {False, True}, "sd": {False, True}, "gamma": {False, True}}


def _written_out(plan, pivots, templates):
    """fill_candidates by hand: one matrix per digit assignment to the
    writes, in the order of itertools.product over them."""
    writes = [(h, r, c, shift) for h, r, row in plan.rows for c, shift in row]
    for digits in itertools.product(range(plan.spec.q), repeat=len(writes)):
        blocks = [[list(row) for row in block] for block in templates]
        for (h, r, c, shift), d in zip(writes, digits):
            blocks[h - 1][r][c] |= d << shift
        rows = tuple(tuple(map(tuple, block)) for block in blocks)
        yield RingCode(plan.spec, plan.level, plan.n, plan.profile, rows, pivots)


@pytest.mark.parametrize(
    "label, n, profile, pivots, slots",
    [
        # one row of 14 writes: its leading writes are walked above the listed ones
        ("R4,1", 5, (1, 0, 0, 0), ((0,), (), (), ()),
         [(1, 0, [(c, mu) for c in (1, 2, 3, 4) for mu in range(4)][:14])]),
        # a first row of 13 writes over a second of two
        ("R4,1", 5, (1, 1, 0, 0), ((0,), (1,), (), ()),
         [(1, 0, [(c, mu) for c in (1, 2, 3, 4) for mu in range(4) if (c, mu) != (1, 0)][:13]),
          (2, 0, [(2, 0), (4, 2)])]),
        # q = 4: seven writes of two bits each, then one
        ("R6,2", 3, (1, 1, 0, 0, 0, 0), ((0,), (1,), (), (), (), ()),
         [(1, 0, [(2, mu) for mu in range(6)] + [(1, 0)]), (2, 0, [(2, 3)])]),
        # a row with no writes stays as the template has it
        ("R4,1", 4, (1, 1, 0, 0), ((0,), (1,), (), ()),
         [(1, 0, []), (2, 0, [(2, 0), (3, 1)])]),
    ],
)
def test_fill_candidates_follow_the_product_over_slots(label, n, profile, pivots, slots):
    spec = _ring(label)
    templates = [[tuple(int(c == p) for c in range(n)) for p in piv] for piv in pivots]
    plan = fill_plan(spec, spec.e, n, profile, slots)
    assert [row[:2] for row in plan.rows] == [(h, r) for h, r, writes in slots if writes]
    got = fill_candidates(plan, pivots, templates)
    assert list(got) == list(_written_out(plan, pivots, templates))


def test_the_first_row_is_listed_in_slices(monkeypatch):
    # a one-row walk of 2^20 candidates holds at most 2^12 variants of its
    # row at once: listing the row whole took the peak RSS of the largest
    # default-budget walk (R6,2 n=3, one row of 2^20 variants) to 131 MB,
    # against 17 MB in slices
    lengths = []
    listed = ringcodes._row_variants

    def recording(*args):
        out = listed(*args)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(ringcodes, "_row_variants", recording)
    spec, n = preset("R4,1"), 6
    assert spec.q == 2
    writes = [(c, mu) for c in range(1, n) for mu in range(spec.e)]
    assert len(writes) == 20
    plan = fill_plan(spec, spec.e, n, (1, 0, 0, 0), [(1, 0, writes)])
    templates = [[tuple(int(c == 0) for c in range(n))], [], [], []]
    stream = fill_candidates(plan, ((0,), (), (), ()), templates)
    assert len(list(itertools.islice(stream, 5000))) == 5000
    assert lengths and max(lengths) <= 2**ringcodes._LISTED_BITS
