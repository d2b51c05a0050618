"""Exhaustive recounts arbitrating the closed forms and the fast lift."""

import pytest

from chaincodes import fieldcodes, lifting, oracle
from chaincodes.chain import PRESET_NAMES, make_ring, parse_ring_spec, preset
from chaincodes.enumeration import _all_types, count_so_type, sigma, total_counts
from chaincodes.fieldcodes import make_field_code, zero_code
from chaincodes.lifting import SOChain, base_lift, lift_once, stage_count_formula
from chaincodes.oracle import (
    BudgetError,
    OracleBudget,
    _matrix_candidates,
    _walk_size,
    brute_force_code_count,
    brute_force_doubly_even_count,
    brute_force_lift_count,
    default_budget,
    enumerate_codes_of_type,
)
from chaincodes.ringcodes import code_signature
from chaincodes.tables import GOLDEN_TABLES, reproduce_table

from _util import (
    CR_RINGS,
    reference_matrix_candidates,
    reference_type_rows,
    reference_walk_size,
    stream_digest,
)


def test_first_table_rows_recounted_exhaustively():
    r41 = preset("R4,1")
    for lambdas, expected in GOLDEN_TABLES[1].rows:
        assert brute_force_code_count(r41, 3, lambdas, "so") == expected, lambdas


def test_single_type_spot_checks():
    r41 = preset("R4,1")
    assert brute_force_code_count(r41, 1, (0, 0, 0, 1), "so") == 1
    assert brute_force_code_count(r41, 3, (0, 0, 1, 0), "so") == 28


def test_unit_multiples_deduplicate():
    # the unit multiples of the one row span one code, written once
    r41 = preset("R4,1")
    codes = list(enumerate_codes_of_type(r41, 1, (1, 0, 0, 0)))
    assert len(codes) == 1


def test_short_profiles_are_refused():
    # the walk runs at full depth, so a type needs one entry per scale
    with pytest.raises(ValueError, match="shorter than the depth 4"):
        next(enumerate_codes_of_type(preset("R4,1"), 2, (0, 1, 0)))
    with pytest.raises(ValueError, match="longer than the depth 4"):
        next(enumerate_codes_of_type(preset("R4,1"), 2, (0, 0, 0, 0, 1)))


def test_a_repeated_code_is_an_error(monkeypatch):
    # the walk writes each code once; a second matrix of the same code
    # means the walk is wrong, so it must stop the recount, not be skipped
    walk = oracle._matrix_candidates

    def twice(*args):
        for cand in walk(*args):
            yield cand
            yield cand

    monkeypatch.setattr(oracle, "_matrix_candidates", twice)
    with pytest.raises(
        RuntimeError, match=r"repeated a code of type \(0, 1, 0, 1\) at n=2 over CR\(2\^2,1;3,1;1\)"
    ):
        brute_force_code_count(preset("R4,1"), 2, (0, 1, 0, 1), "so")


def _brute_total(spec, n, predicate):
    total = 0
    for lam in _all_types(spec.e, n):
        total += brute_force_code_count(spec, n, lam, predicate)
    return total


def test_exhaustive_totals_match_closed_forms():
    r41 = preset("R4,1")
    assert _brute_total(r41, 3, "so") == 291
    assert _brute_total(r41, 2, "sd") == 3
    assert _brute_total(r41, 3, "sd") == total_counts(r41, 3)[1] == 7


def test_doubly_even_recount_pins():
    assert brute_force_doubly_even_count(4, 1, 1, True) == 1
    assert brute_force_doubly_even_count(2, 1, 1, False) == 0
    assert brute_force_doubly_even_count(3, 0, 1, False) == 1


def test_doubly_even_recount_grid_matches_subspace_walk():
    for m in (1, 2):
        for n in range(1, 5):
            for d in range(0, 3):
                for with_one in (False, True):
                    got = brute_force_doubly_even_count(n, d, m, with_one)
                    assert got == sigma(n, d, m, with_one), (n, d, m, with_one)


def test_reproduce_first_table():
    reports = reproduce_table(1)
    assert len(reports) == 17
    assert all(r.match is True for r in reports)
    assert [r.closed_form for r in reports] == [
        v for _, v in GOLDEN_TABLES[1].rows
    ]
    assert all(r.brute_force == r.closed_form for r in reports)


def test_reproduce_table_can_skip_large_rows():
    reports = reproduce_table(1, max_oracle_count=10)
    skipped = [r for r in reports if r.brute_force is None]
    assert skipped
    for r in reports:
        if r.closed_form <= 10:
            assert r.match is True
        else:
            assert r.brute_force is None and r.match is None


def test_budget_guards():
    r82 = preset("R8,2")
    with pytest.raises(BudgetError, match="ceiling"):
        brute_force_code_count(r82, 2, (1, 0, 0, 0, 0, 0, 0, 0), "so")
    r41 = preset("R4,1")
    with pytest.raises(BudgetError, match="ceiling"):
        brute_force_code_count(r41, 6, (1, 0, 0, 0), "so")
    tiny = OracleBudget(max_candidates=2, max_length=5, max_ring_bits=13)
    with pytest.raises(BudgetError):
        brute_force_code_count(r41, 2, (0, 1, 0, 0), "so", budget=tiny)
    # a roomier explicit budget admits what the default refuses
    wide = OracleBudget(max_candidates=10**6, max_length=10, max_ring_bits=13)
    assert brute_force_code_count(r41, 6, (0, 0, 0, 1), "so", budget=wide) == 63


def test_default_budget_is_shared_and_the_variable_read_per_call(monkeypatch):
    monkeypatch.delenv("CHAINCODES_BUDGET", raising=False)
    assert default_budget() is default_budget() == OracleBudget()
    monkeypatch.setenv("CHAINCODES_BUDGET", "7")
    assert default_budget() == OracleBudget.lifted(7)
    monkeypatch.setenv("CHAINCODES_BUDGET", "abc")
    for _ in range(2):
        with pytest.raises(ValueError, match="CHAINCODES_BUDGET"):
            default_budget()


def test_lift_recount_flat_zone():
    r41 = preset("R4,1")
    ones4 = make_field_code(r41.gr, 4, [(1, 1, 1, 1)])
    chain = SOChain(r41, 4, (ones4, ones4))
    base = list(base_lift(chain, 1))
    assert len(base) == 12
    for code in base[:2]:
        fast = len(list(lift_once(code, chain, 0)))
        assert fast == 32
        assert brute_force_lift_count(code, chain.codes, 0) == 32


def test_lift_recount_small_type():
    r41 = preset("R4,1")
    pair = make_field_code(r41.gr, 3, [(1, 1, 0)])
    chain = SOChain(r41, 3, (zero_code(r41.gr, 3), pair))
    base = list(base_lift(chain, 1))
    assert len(base) == 2
    for code in base:
        assert len(list(lift_once(code, chain, 1))) == 1
        assert brute_force_lift_count(code, chain.codes, 1) == 1


def test_lift_recount_odd_depth():
    r51 = preset("R5,1")
    lam = (0, 0, 1, 1, 0)
    total = 0
    for w in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
        outer = make_field_code(r51.gr, 3, [w])
        z3 = zero_code(r51.gr, 3)
        chain = SOChain(r51, 3, (z3, z3, outer))
        base_formula = stage_count_formula(r51, 3, lam, chain.contains_one, 3)
        top_formula = stage_count_formula(r51, 3, lam, chain.contains_one, 5)
        base = list(base_lift(chain, 1))
        assert len(base) == base_formula == 6
        for code in base:
            fast = len(list(lift_once(code, chain, 0)))
            assert fast == top_formula == 4
            assert brute_force_lift_count(code, chain.codes, 0) == fast
            total += fast
    assert total == count_so_type(r51, 3, lam) == 72


@pytest.mark.parametrize("name", ["R4,1", "R5,1"])
def test_lift_recount_matches_search_on_every_chain(name):
    # the cells above, widened to every valid chain of every type at n = 3:
    # the second and last stage yields exactly as many lifts per base code
    # as the recount without column-support shortcuts finds
    spec = preset(name)
    assert len(lifting.stage_plan(spec)) == 2
    half = lifting.expected_chain_length(spec)
    compared = 0
    for lam in _all_types(spec.e, 3):
        for chain in lifting.enumerate_so_chains(spec, 3, lam[:half]):
            if lifting.validate_chain(chain):
                continue
            for code in base_lift(chain, lam[half]):
                fast = len(list(lift_once(code, chain, lam[half + 1])))
                assert brute_force_lift_count(code, chain.codes, lam[half + 1]) == fast
                compared += 1
    assert compared > 80


def test_oracle_walk_size_matches_budget_estimate():
    # the budget check trusts _walk_size, the reference walk's size at full
    # depth; the reference walk must yield exactly that many distinct
    # matrices, at full depth and on finer profiles below it
    checked = 0
    for name in PRESET_NAMES:
        spec = preset(name)
        for level in (spec.e, spec.e - 2):
            for n in (1, 2):
                for lam in _all_types(spec.e, n):
                    want = reference_walk_size(spec, n, lam, level)
                    if level == spec.e:
                        assert _walk_size(spec, n, lam) == want
                    if want > 1500:
                        continue
                    seen = set()
                    for cand in reference_matrix_candidates(spec, n, lam, level):
                        assert cand.profile == lam
                        seen.add((cand.pivots, cand.block_rows))
                    assert len(seen) == want, (name, level, lam)
                    checked += 1
    assert checked > 50


def _unit_left_of_pivot(cand):
    """Whether some row has a unit entry (digit 0 nonzero) left of its pivot."""
    low = cand.ring.q - 1
    return any(
        x & low
        for block, piv in zip(cand.block_rows, cand.pivots)
        for row, p in zip(block, piv)
        for x in row[:p]
    )


def test_oracle_walk_writes_each_code_once():
    # the walk is the reference walk less the matrices with a unit left of
    # a row's own pivot, in the same order; it holds every code of the
    # reference walk, each once, and stays within the budget estimate
    rings = [preset(name) for name in PRESET_NAMES] + [parse_ring_spec(r) for r in CR_RINGS]
    rings.append(make_ring(3, 3, 3, 2, modulus=(1, 1, 0, 1)))
    checked = pruned = 0
    for spec in rings:
        for n in range(1, 5):
            for lam in _all_types(spec.e, n):
                size = spec.q ** sum(r * (spec.e - h) for h, r in enumerate(lam))
                if reference_walk_size(spec, n, lam, spec.e) > 3000 or size > 256:
                    continue
                walk = list(_matrix_candidates(spec, n, lam))
                reference = list(reference_matrix_candidates(spec, n, lam, spec.e))
                kept = [c for c in reference if not _unit_left_of_pivot(c)]
                assert walk == kept, (spec, n, lam)
                sigs = {code_signature(c) for c in walk}
                assert len(sigs) == len(walk), (spec, n, lam)
                assert sigs == {code_signature(c) for c in reference}, (spec, n, lam)
                assert len(walk) <= _walk_size(spec, n, lam)
                checked += 1
                pruned += len(reference) - len(walk)
    assert checked > 400 and pruned > 70_000


def test_first_pivot_placement_writes_most():
    # _walk_size counts the writes of the placement (0..k-1): no placement
    # writes more, and there the walk drops no write of the reference.  In
    # every placement no row writes more than the first
    for e in (4, 5):
        for n in range(1, 5):
            for lam in _all_types(e, n):
                placements = list(oracle._pivot_placements(lam, range(n)))
                sizes = []
                for piv in placements:
                    writes = [len(w) for _, _, w in oracle._type_rows(n, piv)]
                    # the first written row is listed in slices, the others whole
                    assert not writes or writes[0] == max(writes)
                    sizes.append(sum(writes))
                assert sizes[0] == max(sizes)
                first = placements[0]
                assert oracle._type_rows(n, first) == reference_type_rows(n, lam, e, first)


@pytest.mark.parametrize(
    "name, n, pinned",
    [
        ("R4,1", 2, (109, "58c499cf666062904fdb37ad4fa5d24f3b2415f744491a1e0d61d04c176e655b")),
        ("R6,2", 1, (7, "3212816e8260d436d16a462dcdf31453898745f73c9e0d15032bbe5441830d73")),
        ("R6,2", 2, (14551, "eb50201018f6b5f5f2bb0d2632980cc3efddac06fe463812f2b89cf3b0b04b18")),
    ],
)
def test_oracle_candidate_stream_is_pinned(name, n, pinned):
    # pinned while fill_candidates walked rows in nested loops: every
    # matrix of the reference walk (every placement, every digit) of every
    # type, in walk order
    spec = preset(name)
    stream = (
        cand
        for lam in _all_types(spec.e, n)
        for cand in reference_matrix_candidates(spec, n, lam, spec.e)
    )
    assert stream_digest(stream) == pinned


def test_traced_names_are_looked_up_at_call_time(monkeypatch):
    # perfbench/tracer.py rebinds these module attributes; the searches
    # must call through them rather than through import-time copies.  The
    # stage search tests rows as it writes them, so lifting looks up
    # is_self_orthogonal_ring only in extract_chain, and it reaches
    # enumerate_subspaces only when a lift plan is built
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(lifting, "is_self_orthogonal_ring")
    counting(oracle, "is_self_orthogonal_ring")
    counting(oracle, "is_self_dual_ring")
    counting(oracle, "code_signature")
    counting(fieldcodes, "enumerate_subspaces")

    lifting._lift_plan.cache_clear()
    r41 = preset("R4,1")
    pair = make_field_code(r41.gr, 3, [(1, 1, 0)])
    chain = SOChain(r41, 3, (zero_code(r41.gr, 3), pair))
    assert len(list(base_lift(chain, 1))) == 2
    code = lifting.construct_self_orthogonal(chain, (0, 1, 1, 1))
    assert lifting.extract_chain(code).codes == chain.codes
    assert brute_force_code_count(r41, 2, (0, 1, 0, 1), "so") == 2
    assert brute_force_code_count(r41, 2, (0, 1, 0, 1), "sd") == 2
    assert set(calls) == {
        "lifting.is_self_orthogonal_ring",
        "oracle.is_self_orthogonal_ring",
        "oracle.is_self_dual_ring",
        "oracle.code_signature",
        "fieldcodes.enumerate_subspaces",
    }
