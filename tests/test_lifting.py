"""Chain validation, stage plans, and the staged lifting construction."""

import pytest

from chaincodes import lifting
from chaincodes.chain import (
    PRESET_NAMES,
    from_u_adic,
    make_ring,
    parse_ring_spec,
    preset,
    to_u_adic,
)
from chaincodes.enumeration import _all_types
from chaincodes.fieldcodes import make_field_code, zero_code
from chaincodes.lifting import (
    SOChain,
    base_lift,
    chain_matrix,
    construct_self_orthogonal,
    enumerate_so_chains,
    expected_chain_length,
    extract_chain,
    lift_once,
    stage_count_formula,
    stage_obstruction,
    stage_plan,
    validate_chain,
)
from chaincodes.ringcodes import (
    code_signature,
    fill_candidates,
    is_self_dual_ring,
    is_self_orthogonal_ring,
    satisfies_deep_orthogonality,
    torsion_code,
)

from _util import reference_so_chains, stream_digest


def test_stage_plans_for_presets():
    assert stage_plan(preset("R4,1")) == [(2, "base"), (4, "top")]
    assert stage_plan(preset("R5,1")) == [(3, "base"), (5, "top")]
    assert stage_plan(preset("R6,2")) == [
        (2, "base"),
        (4, "break_crossing"),
        (6, "top"),
    ]
    assert stage_plan(preset("R8,2")) == [
        (2, "base"),
        (4, "break_crossing"),
        (6, "above_break"),
        (8, "top"),
    ]


def test_expected_chain_lengths():
    assert expected_chain_length(preset("R4,1")) == 2
    assert expected_chain_length(preset("R5,1")) == 3
    assert expected_chain_length(preset("R6,2")) == 3
    assert expected_chain_length(preset("R8,2")) == 4


def test_validate_chain_accepts_and_rejects():
    r41 = preset("R4,1")
    z2 = zero_code(r41.gr, 2)
    assert validate_chain(SOChain(r41, 2, (z2, z2))) == []
    # a weight-2 member cannot sit at the doubly even slot
    bad = make_field_code(r41.gr, 2, [(1, 1)])
    msgs = validate_chain(SOChain(r41, 2, (bad, bad)))
    assert any("doubly even" in m for m in msgs)
    # wrong member count
    msgs = validate_chain(SOChain(r41, 2, (z2,)))
    assert any("members" in m for m in msgs)
    # non-nested members
    a = make_field_code(r41.gr, 3, [(1, 1, 0)])
    b = make_field_code(r41.gr, 3, [(1, 0, 1)])
    msgs = validate_chain(SOChain(r41, 3, (a, b)))
    assert any("contained" in m for m in msgs)
    # a non-self-orthogonal member
    c = make_field_code(r41.gr, 3, [(1, 0, 0)])
    msgs = validate_chain(SOChain(r41, 3, (zero_code(r41.gr, 3), c)))
    assert any("self-orthogonal" in m for m in msgs)


def test_walkthrough_chain_is_valid():
    r82 = preset("R8,2")
    ones4 = make_field_code(r82.gr, 4, [(1, 1, 1, 1)])
    chain = SOChain(r82, 4, (ones4, ones4, ones4, ones4))
    assert validate_chain(chain) == []


def test_chain_matrix_blocks_follow_dimension_steps():
    r82 = preset("R8,2")
    gr = r82.gr
    inner = make_field_code(gr, 4, [(1, 1, 1, 1)])
    outer = make_field_code(gr, 4, [(1, 1, 1, 1), (0, 1, 1, 0)])
    chain = SOChain(r82, 4, (inner, inner, outer, outer))
    blocks = chain_matrix(chain)
    assert [len(rows) for rows, _ in blocks] == [1, 0, 1, 0]
    assert blocks[0][0][0] == (1, 1, 1, 1)
    assert blocks[2][0][0][1] == 1  # the new row extends the span


def test_base_and_top_counts_for_small_type():
    # R4,1 n=3, chain 0 < <(1,1,0)>, full type {0,1,1,1}
    r41 = preset("R4,1")
    z3 = zero_code(r41.gr, 3)
    c2 = make_field_code(r41.gr, 3, [(1, 1, 0)])
    chain = SOChain(r41, 3, (z3, c2))
    lam = (0, 1, 1, 1)
    base_codes = list(base_lift(chain, 1))
    assert len(base_codes) == 2
    assert stage_count_formula(r41, 3, lam, chain.contains_one, 2) == 2
    assert stage_count_formula(r41, 3, lam, chain.contains_one, 4) == 1
    for code in base_codes:
        lifts = list(lift_once(code, chain, 1))
        assert len(lifts) == 1
        assert is_self_orthogonal_ring(lifts[0])
        assert satisfies_deep_orthogonality(lifts[0])
        assert lifts[0].level_type == lam


def test_stage_count_formula_refuses_negative_lengths():
    # q to a negative power made the count the float 0.0; counts are ints
    r41 = preset("R4,1")
    for level, _ in stage_plan(r41):
        with pytest.raises(ValueError, match="code length must be nonnegative"):
            stage_count_formula(r41, -1, (0, 1, 1, 1), lambda i: False, level)


def test_extract_chain_returns_torsion_members():
    r41 = preset("R4,1")
    z3 = zero_code(r41.gr, 3)
    c2 = make_field_code(r41.gr, 3, [(1, 1, 0)])
    chain = SOChain(r41, 3, (z3, c2))
    code = construct_self_orthogonal(chain, (0, 1, 1, 1))
    back = extract_chain(code)
    assert back.dims == (0, 1)
    assert set(back.codes[1].rows) == set(c2.rows)
    assert validate_chain(back) == []
    for i, member in enumerate(back.codes, start=1):
        assert member.rows == torsion_code(code, i).rows


def test_construct_self_dual_code():
    r41 = preset("R4,1")
    c11 = make_field_code(r41.gr, 2, [(1, 1)])
    chain = SOChain(r41, 2, (zero_code(r41.gr, 2), c11))
    code = construct_self_orthogonal(chain, (0, 1, 0, 1))
    assert is_self_dual_ring(code)


def test_construct_validates_the_chain_once(monkeypatch):
    # the descent's base lift runs on the chain construct already checked,
    # while base_lift called on its own still checks
    calls = []
    original = lifting.validate_chain
    monkeypatch.setattr(
        lifting, "validate_chain", lambda chain: calls.append(chain) or original(chain)
    )
    r41 = preset("R4,1")
    chain = SOChain(r41, 2, (zero_code(r41.gr, 2), make_field_code(r41.gr, 2, [(1, 1)])))
    construct_self_orthogonal(chain, (0, 1, 0, 1))
    assert len(calls) == 1
    list(base_lift(chain, 0))
    assert len(calls) == 2


def test_construct_rejects_bad_inputs():
    r41 = preset("R4,1")
    bad = make_field_code(r41.gr, 2, [(1, 1)])
    with pytest.raises(ValueError, match="invalid chain"):
        construct_self_orthogonal(SOChain(r41, 2, (bad, bad)), (1, 1, 0, 0))
    z = zero_code(r41.gr, 2)
    chain = SOChain(r41, 2, (z, make_field_code(r41.gr, 2, [(1, 1)])))
    with pytest.raises(ValueError, match="one entry per depth"):
        construct_self_orthogonal(chain, (0, 1, 0))
    with pytest.raises(ValueError, match="head"):
        construct_self_orthogonal(chain, (1, 0, 0, 0))


def test_walkthrough_stage_counts():
    # type {1,0,...,0} over the R8,2 preset, all-one chain: the staged
    # survivor counts are 16, then 512 per base code (16 groups of 32 by
    # the first fresh digit), then 1024, then 4096
    r82 = preset("R8,2")
    ones4 = make_field_code(r82.gr, 4, [(1, 1, 1, 1)])
    chain = SOChain(r82, 4, (ones4, ones4, ones4, ones4))
    lam = (1, 0, 0, 0, 0, 0, 0, 0)
    assert stage_count_formula(r82, 4, lam, chain.contains_one, 2) == 16
    assert stage_count_formula(r82, 4, lam, chain.contains_one, 4) == 512
    assert stage_count_formula(r82, 4, lam, chain.contains_one, 6) == 1024
    assert stage_count_formula(r82, 4, lam, chain.contains_one, 8) == 4096

    base = list(base_lift(chain, 0))
    assert len(base) == 16
    lifts4 = list(lift_once(base[0], chain, 0))
    assert len(lifts4) == 512
    groups = {}
    for code in lifts4:
        row = code.block_rows[0][0]
        key = tuple(to_u_adic(r82, x)[2] for x in row)
        groups[key] = groups.get(key, 0) + 1
    assert len(groups) == 16
    assert set(groups.values()) == {32}


def test_obstructed_crossing_over_odd_degree_field():
    # same tower shape as the walkthrough but over the degree-1 field and
    # n = 4: the all-one chain hits the crossing obstruction
    r81 = make_ring(3, 1, 3, 2)
    assert r81.e == 8
    ones1 = make_field_code(r81.gr, 4, [(1, 1, 1, 1)])
    chain = SOChain(r81, 4, (ones1, ones1, ones1, ones1))
    msgs = validate_chain(chain)
    assert any("all-one" in m for m in msgs)
    reason = stage_obstruction(r81, 4, chain.contains_one)
    assert reason is not None
    lam = (1, 0, 0, 0, 0, 0, 0, 0)
    assert stage_count_formula(r81, 4, lam, chain.contains_one, 4) == 0
    with pytest.raises(ValueError):
        construct_self_orthogonal(chain, lam)
    # an unobstructed chain over the same ring passes
    z4 = zero_code(r81.gr, 4)
    ok_chain = SOChain(r81, 4, (z4, z4, z4, ones1))
    assert validate_chain(ok_chain) == []
    assert stage_obstruction(r81, 4, ok_chain.contains_one) is None


def test_valid_chains_are_never_obstructed():
    # a valid chain holding the all-one word in member ceil(e/2) - kappa holds
    # it in the doubly even member, so n = 0 (mod 4), and validate_chain has
    # already refused n = 4 (mod 8) over a field of odd degree
    valid = {}
    for spec in (make_ring(3, 1, 3, 2), make_ring(3, 2, 3, 2), make_ring(3, 1, 3, 1)):
        want = expected_chain_length(spec)
        chains = [
            chain
            for head in _all_types(want, 2)  # a self-orthogonal code has dim <= n/2
            for chain in enumerate_so_chains(spec, 4, head)
            if not validate_chain(chain)
        ]
        assert all(stage_obstruction(spec, 4, c.contains_one) is None for c in chains)
        one_at = (spec.e + 1) // 2 - spec.kappa
        valid[spec.gr.m, spec.t] = (len(chains), sum(c.contains_one(one_at) for c in chains))
    assert valid == {(1, 2): (19, 0), (2, 2): (129, 12), (1, 1): (37, 0)}


def test_flat_zone_base_jets_multiply_through():
    # R4,1 n=4 type {1,0,1,0}: base jets at level 2 split modules that a
    # level-2 reduction could merge, and each jet carries 32 lifts; the
    # full count 12 * 32 lands on the frozen table value 384
    r41 = preset("R4,1")
    ones4 = make_field_code(r41.gr, 4, [(1, 1, 1, 1)])
    chain = SOChain(r41, 4, (ones4, ones4))
    assert validate_chain(chain) == []
    lam = (1, 0, 1, 0)
    assert stage_count_formula(r41, 4, lam, chain.contains_one, 2) == 12
    base = list(base_lift(chain, 1))
    assert len(base) == 12
    assert stage_count_formula(r41, 4, lam, chain.contains_one, 4) == 32
    seen = set()
    total = 0
    for code in base:
        lifts = list(lift_once(code, chain, 0))
        assert len(lifts) == 32
        total += len(lifts)
        for lf in lifts:
            sig = code_signature(lf)
            assert sig not in seen
            seen.add(sig)
    assert total == 384


def test_flat_zone_with_unreduced_carried_row():
    # R4,1 n=4 type {1,1,0,0}, chain (<1111>, <1111,0110>): 4 base jets,
    # 32 lifts each; three chains of this shape account for the table 384
    r41 = preset("R4,1")
    ones4 = make_field_code(r41.gr, 4, [(1, 1, 1, 1)])
    two4 = make_field_code(r41.gr, 4, [(1, 1, 1, 1), (0, 1, 1, 0)])
    chain = SOChain(r41, 4, (ones4, two4))
    assert validate_chain(chain) == []
    lam = (1, 1, 0, 0)
    assert stage_count_formula(r41, 4, lam, chain.contains_one, 2) == 4
    base = list(base_lift(chain, 0))
    assert len(base) == 4
    assert stage_count_formula(r41, 4, lam, chain.contains_one, 4) == 32
    seen = set()
    total = 0
    for code in base:
        for lf in lift_once(code, chain, 0):
            sig = code_signature(lf)
            assert sig not in seen
            seen.add(sig)
            total += 1
    assert total == 128


def test_enumerate_so_chains_counts():
    r41 = preset("R4,1")
    # one-dimensional top member: any of the three even-weight lines
    chains = list(enumerate_so_chains(r41, 3, (0, 1)))
    assert len(chains) == 3
    tops = {c.codes[1].rows[0] for c in chains}
    assert tops == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    # zero steps give the single all-zero chain
    chains = list(enumerate_so_chains(r41, 3, (0, 0)))
    assert len(chains) == 1
    assert chains[0].dims == (0, 0)
    with pytest.raises(ValueError):
        list(enumerate_so_chains(r41, 3, (0, 1, 0)))


_CHAIN_GRID = [
    (name, n)
    for name in ("R4,1", "R5,1", "CR(2^2,1;5,2;1)", "CR(2^3,1;3,3;3)")
    for n in range(1, 6)
] + [(name, n) for name in ("R6,2", "R8,2", "CR(2^2,2;3,1;1)") for n in range(1, 4)]


@pytest.mark.parametrize("name, n", _CHAIN_GRID)
def test_chains_equal_the_reference_walk(name, n):
    # growing each member by the subspaces of its free columns finds the
    # same chains as filtering every subspace of the ambient space; no
    # self-orthogonal code has dimension above n/2
    spec = parse_ring_spec(name) if name.startswith("CR(") else preset(name)
    for head in _all_types(expected_chain_length(spec), n):
        got = [chain.codes for chain in enumerate_so_chains(spec, n, head)]
        assert len(set(got)) == len(got), head
        want = set(reference_so_chains(spec, n, head)) if 2 * sum(head) <= n else set()
        assert set(got) == want, head


def test_length_seven_chain_count():
    chains = list(enumerate_so_chains(preset("R4,1"), 7, (1, 1)))
    assert len(chains) == 945
    assert sum(not validate_chain(chain) for chain in chains) == 525


def _lift_stream(name, n):
    """Every base_lift/lift_once yield of every valid chain of every type,
    stage by stage, in the order they are produced."""
    spec = preset(name)
    half = expected_chain_length(spec)
    stages = len(stage_plan(spec))
    for lam in _all_types(spec.e, n):
        for chain in enumerate_so_chains(spec, n, lam[:half]):
            if validate_chain(chain):
                continue
            jets = list(base_lift(chain, lam[half]))
            yield from jets
            for k in range(1, stages):
                jets = [c for jet in jets for c in lift_once(jet, chain, lam[half + k])]
                yield from jets


@pytest.mark.parametrize(
    "name, n, pinned",
    [
        ("R4,1", 3, (379, "e0c5e078ca4de9325cedd6c299dba3b23aad5700bf00d4f6c95765afcc952a4a")),
        ("R6,2", 2, (353, "5c52312386daa41c7fb72f977ee3e8599cd73844e58919a2b9418f170a9f930f")),
    ],
)
def test_lift_yields_are_pinned(name, n, pinned):
    # pinned while elements were nested tuples: yield order and content must
    # not depend on how elements are encoded
    assert stream_digest(_lift_stream(name, n)) == pinned


def _unfiltered_second_stage(name, n):
    """The second stage written without the row-wise test: every candidate
    over every base-level code of every valid chain of every type."""
    spec = preset(name)
    half = expected_chain_length(spec)
    level = 4 + spec.e % 2
    for lam in _all_types(spec.e, n):
        for chain in enumerate_so_chains(spec, n, lam[:half]):
            if validate_chain(chain):
                continue
            for jet in base_lift(chain, lam[half]):
                carried = tuple(
                    (jet.pivots[h - 1], jet.precision(h)) for h in range(1, len(jet.profile) + 1)
                )
                _, bottoms = lifting._lift_plan(
                    spec, n, level, jet.gamma - 1, carried, lam[half + 1]
                )
                for rows, pivots, plan in bottoms:
                    unfiltered = plan._replace(test=None)
                    yield from fill_candidates(unfiltered, pivots, jet.block_rows, rows)


@pytest.mark.parametrize(
    "name, n, pinned",
    [
        ("R4,1", 4, (12585, "fc7e1b92ae204af67e005883f31117782e45925d060ef27511d7158f01023d10")),
        ("R5,1", 3, (678, "b5c6102405d6d2d8be99b6be7bd9f7e6284f139132f018000077bbdeb20f06e4")),
    ],
)
def test_unfiltered_stage_stream_is_pinned(name, n, pinned):
    # pinned while fill_candidates walked rows in nested loops: writing
    # every slot without a test keeps the order of itertools.product
    assert stream_digest(_unfiltered_second_stage(name, n)) == pinned


def _filtered_stream(spec, n, level, gamma, carried, templates, new_count):
    """A stage's candidates written without the row-wise test, then
    filtered by the two whole-code predicates."""
    _, bottoms = lifting._lift_plan(spec, n, level, gamma, carried, new_count)
    for rows, pivots, plan in bottoms:
        for cand in fill_candidates(plan._replace(test=None), pivots, templates, rows):
            if is_self_orthogonal_ring(cand) and satisfies_deep_orthogonality(cand):
                yield cand


_CR_RINGS = ("CR(2^2,1;5,2;1)", "CR(2^3,1;3,3;3)", "CR(2^2,2;3,1;1)")
# R8,2 at n = 3 writes 8.1 million candidates, too many for the suite
_SEARCH_GRID = [
    (name, n)
    for name in PRESET_NAMES + _CR_RINGS
    for n in (1, 2, 3)
    if (name, n) != ("R8,2", 3)
] + [("R4,1", 4)]


@pytest.mark.parametrize("name, n", _SEARCH_GRID)
def test_stage_search_equals_filtered_stream(name, n):
    # the row-wise test prunes exactly what the whole-code predicates
    # reject, and keeps the survivors in the stream's order, at every stage
    # of every valid chain of every type
    spec = parse_ring_spec(name) if name.startswith("CR(") else preset(name)
    half = expected_chain_length(spec)
    stages = len(stage_plan(spec))
    calls = 0
    for lam in _all_types(spec.e, n):
        for chain in enumerate_so_chains(spec, n, lam[:half]):
            if validate_chain(chain):
                continue
            mat = chain_matrix(chain)
            templates = [rows for rows, _ in mat]
            carried = tuple((piv, 1) for _, piv in mat)
            jets = list(base_lift(chain, lam[half]))
            assert jets == list(_filtered_stream(
                spec, n, 2 + spec.e % 2, spec.e // 2 - 1, carried, templates, lam[half]
            )), (lam, chain.dims)
            for k in range(1, stages):
                lifted = []
                for jet in jets:
                    got = list(lift_once(jet, chain, lam[half + k]))
                    carried = tuple(
                        (jet.pivots[h - 1], jet.precision(h))
                        for h in range(1, len(jet.profile) + 1)
                    )
                    want = list(_filtered_stream(
                        spec, n, jet.level + 2, jet.gamma - 1, carried,
                        jet.block_rows, lam[half + k],
                    ))
                    assert got == want, (lam, chain.dims, jet.level + 2)
                    lifted.extend(got)
                    calls += 1
                jets = lifted
            calls += 1
    assert calls > 0
