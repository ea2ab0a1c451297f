import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import square_free_sets
from oracles import (
    brute_cross_sum,
    divisor_closure_reference,
    normalize_reference,
    brute_first_active_swap,
    brute_is_complete,
    brute_is_divisor_closed,
    brute_pair_sum,
    brute_swap_partition,
)
from gcdsums.verify import random_index_set

from gcdsums import (
    DomainError,
    IndexSet,
    MultiIndex,
    PrimePowerWeights,
    completeness_exchange_identity,
    completeness_step,
    divisor_closure,
    gcd_sum,
    is_complete,
    is_divisor_closed,
    normalize_to_complete,
    swap_partition,
)
from gcdsums import transforms
from gcdsums.transforms import MONOTONE_TOL, first_active_swap

half = PrimePowerWeights(0.5)
zero = MultiIndex.zero()
e1 = MultiIndex.unit(1)
e2 = MultiIndex.unit(2)
e3 = MultiIndex.unit(3)


def test_is_divisor_closed_examples():
    assert is_divisor_closed(IndexSet([zero]))
    assert is_divisor_closed(IndexSet([zero, e1, e2, e1 + e2]))
    assert not is_divisor_closed(IndexSet([e1]))


def test_is_complete_examples():
    assert is_complete(IndexSet([zero]))
    assert not is_complete(IndexSet([zero, e2]))
    assert is_complete(IndexSet([zero, e1, e2, e1 + e2]))
    assert is_complete(IndexSet([zero, e1, e2]))
    assert not is_complete(IndexSet([zero, e1, e3]))


def completion(masks) -> IndexSet:
    """The smallest complete set containing the masks (bit b is position b + 1)."""
    seen = set(masks) | {0}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for j in range(x.bit_length()):
            if x >> j & 1:
                below = x ^ 1 << j
                for y in [below] + [below | 1 << i for i in range(j) if not x >> i & 1]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
    return IndexSet(
        MultiIndex({b + 1: 1 for b in range(x.bit_length()) if x >> b & 1}) for x in seen
    )


@st.composite
def near_complete_sets(draw, top=70, max_shift=0):
    """A completion of a few small supports reaching position `top`, every
    position maybe raised by up to `max_shift` (so low positions go unused),
    then maybe one member removed or one member added."""
    gens = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, top - 1)).map(lambda p: 1 << p[0] | 1 << p[1]),
        min_size=1, max_size=3,
    ))
    shift = draw(st.integers(0, max_shift))
    members = [MultiIndex({j + shift: 1 for j, _ in m.items}) for m in completion(gens)]
    change = draw(st.sampled_from(("none", "drop", "add")))
    if change == "drop" and len(members) > 1:
        members.pop(draw(st.integers(0, len(members) - 1)))
    elif change == "add":
        extra = MultiIndex({j: 1 for j in draw(st.frozensets(st.integers(1, top), max_size=3))})
        if extra not in members:
            members.append(extra)
    return IndexSet(members)


def test_is_complete_above_64_positions():
    assert is_complete(completion([1 << 69]))
    assert is_complete(completion([1 << 1 | 1 << 66, 1 << 64]))
    B = completion([1 | 1 << 65])
    assert not is_complete(IndexSet(m for m in B if m != MultiIndex({1: 1, 60: 1})))
    assert is_complete(IndexSet([*B, MultiIndex({67: 1})]))
    assert not is_complete(IndexSet([*B, MultiIndex({1: 1, 67: 1})]))


@settings(max_examples=60)
@given(near_complete_sets())
def test_is_complete_matches_multiindex_definition(B):
    assert is_complete(B) == brute_is_complete(B.members)


@given(square_free_sets(max_index=6, max_n=12))
def test_is_complete_matches_multiindex_definition_small(B):
    assert is_complete(B) == brute_is_complete(B.members)


@settings(max_examples=200)
@given(st.one_of(near_complete_sets(top=6, max_shift=2), square_free_sets(max_index=6, max_n=12)))
def test_is_complete_on_both_paths_matches_multiindex_definition(B):
    # the lattice indicator's adjacent shifts and the set-bit scan, each
    # forced onto every set
    expected = brute_is_complete(B.members)
    for lattice in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transforms, "_lattice_cheaper", lambda n, m: lattice)
            assert is_complete(B) == expected


def test_is_complete_takes_the_lattice_on_cubes(monkeypatch):
    from gcdsums.search import cube_construction

    # the set-bit scan is not reached
    monkeypatch.setattr(transforms, "_is_divisor_closed", None)
    monkeypatch.setattr(transforms, "_first_swap", None)
    for k in (1, 5, 12, 16):
        assert is_complete(cube_construction(k))
    # {10} gone: {1, 10} has no divisor
    assert not is_complete(IndexSet.from_masks(x for x in range(1 << 10) if x != 1 << 9))
    # the 8-cube with {9}, {10} and {1, 10}: divisor closed on positions 1..10,
    # but {1, 10} has no shift to {1, 9}
    assert not is_complete(IndexSet.from_masks([*range(1 << 8), 1 << 8, 1 << 9, 1 << 9 | 1]))
    assert is_complete(IndexSet.from_masks([*range(1 << 8), 1 << 8, 1 << 9]))


def test_is_complete_rejects_far_positions_at_once():
    # a complete set with position j holds the empty member and {1}, ..., {j}
    B = completion([1 << 5])
    assert len(B) == 7 and is_complete(B)
    far = IndexSet([zero, e1, e2, MultiIndex({5_761_455: 1})])
    assert not is_complete(far)
    assert first_active_swap(far) == (3, 5_761_455)


def test_is_complete_rejects_non_square_free():
    with pytest.raises(DomainError):
        is_complete(IndexSet([zero, e1, MultiIndex({1: 2})]))


@pytest.mark.parametrize("scan", [is_divisor_closed, first_active_swap])
def test_square_free_scans_reject_non_square_free(scan):
    with pytest.raises(DomainError):
        scan(IndexSet([zero, e1, MultiIndex({1: 2})]))


@settings(max_examples=60)
@given(near_complete_sets())
def test_scans_match_multiindex_definitions(B):
    assert is_divisor_closed(B) == brute_is_divisor_closed(B.members)
    assert first_active_swap(B) == brute_first_active_swap(B.members)


@given(square_free_sets(max_index=6, max_n=12))
def test_scans_match_multiindex_definitions_small(B):
    assert is_divisor_closed(B) == brute_is_divisor_closed(B.members)
    assert first_active_swap(B) == brute_first_active_swap(B.members)


@st.composite
def closed_sets_and_pairs(draw):
    """A divisor-closed set, reaching position 70 or small, and a pair i < j
    with j usually in its support."""
    B = draw(st.one_of(near_complete_sets(), square_free_sets(max_index=7, max_n=12)))
    if not brute_is_divisor_closed(B.members):
        B, _ = divisor_closure(half, B)
    j = draw(st.sampled_from([j for j in B.universe() if j > 1] or [2]) | st.integers(2, 72))
    return B, draw(st.integers(1, j - 1)), j


@settings(max_examples=80)
@given(closed_sets_and_pairs())
def test_swap_partition_matches_multiindex_definition(case):
    B, i, j = case
    part = swap_partition(B, i, j)
    got = tuple(p.as_set() if p is not None else set() for p in part.parts())
    assert got == brute_swap_partition(B.members, i, j)


@settings(max_examples=60)
@given(closed_sets_and_pairs())
def test_completeness_step_matches_multiindex_swap(case):
    B, i, j = case
    movable = brute_swap_partition(B.members, i, j)[0]
    if not movable:
        with pytest.raises(DomainError):
            completeness_step(half, B, i, j)
        return
    expected = {m.with_unit_removed(j).with_unit_added(i) if m in movable else m for m in B}
    # a floor of 0 skips the high-precision recertification of the verdict
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "STRICT_MARGIN_FLOOR", 0.0)
        after, _, _ = completeness_step(half, B, i, j)
    assert after.as_set() == expected


def test_divisor_closure_singleton():
    closed, trace = divisor_closure(half, IndexSet([e2]))
    assert closed == IndexSet([zero])
    assert gcd_sum_equal(closed, 1.0)


def gcd_sum_equal(B, value):
    return brute_pair_sum(half, B.members) == pytest.approx(value, rel=1e-12)


def test_divisor_closure_two_member_example():
    B = IndexSet([e1, e2 + e3])
    closed, trace = divisor_closure(half, B)
    # ascending-position sweep: e1 drops to zero first, then e2+e3 -> e3
    assert closed == IndexSet([zero, e3])
    assert len(closed) == len(B)
    s_before = brute_pair_sum(half, B.members)
    s_after = brute_pair_sum(half, closed.members)
    assert s_before == pytest.approx(2 + 2 * half.pow(e1 + e2 + e3), rel=1e-12)
    assert s_after >= s_before - MONOTONE_TOL
    for step in trace.steps:
        assert step.s_after >= step.s_before - MONOTONE_TOL


def test_divisor_closure_fixpoint():
    B = IndexSet([zero, e1, e2, e1 + e2])
    closed, trace = divisor_closure(half, B)
    assert closed == B
    assert trace.steps == []


def test_divisor_closure_rejects_non_square_free():
    with pytest.raises(DomainError):
        divisor_closure(half, IndexSet([MultiIndex({1: 2})]))


@given(square_free_sets(max_index=8, max_n=10))
def test_divisor_closure_properties(B):
    closed, trace = divisor_closure(half, B)
    assert is_divisor_closed(closed)
    assert len(closed) == len(B)
    assert brute_pair_sum(half, closed.members) >= brute_pair_sum(half, B.members) - MONOTONE_TOL


def test_swap_partition_examples():
    part = swap_partition(IndexSet([zero, e2]), 1, 2)
    assert part.movable == IndexSet([e2])
    assert part.saturated is None and part.both_lifted is None and part.i_lifted is None
    assert part.rest == IndexSet([zero])

    part2 = swap_partition(IndexSet([zero, e1, e2, e1 + e2]), 1, 2)
    assert part2.movable is None  # the swap target e1 is present

    part3 = swap_partition(IndexSet([zero]), 1, 2)
    assert part3.movable is None and part3.rest == IndexSet([zero])


def test_swap_partition_class_assignment():
    # base members of each flavor: saturated, both lifts, only the i lift, bare
    B = IndexSet([zero, e1, e2, e3, e2 + e3])
    part = swap_partition(B, 1, 2)
    assert part.movable == IndexSet([e2 + e3])
    assert part.saturated is None
    assert part.both_lifted == IndexSet([zero, e1, e2])
    assert part.i_lifted is None
    assert part.rest == IndexSet([e3])


def test_swap_partition_validation():
    with pytest.raises(DomainError):
        swap_partition(IndexSet([zero]), 2, 2)
    with pytest.raises(DomainError):
        swap_partition(IndexSet([e1]), 1, 2)  # not divisor closed


@given(square_free_sets(max_index=7, max_n=10))
def test_swap_partition_partitions(B):
    closed, _ = divisor_closure(half, B)
    part = swap_partition(closed, 1, 3)
    pieces = [p for p in part.parts() if p is not None]
    union = set()
    total = 0
    for p in pieces:
        assert union.isdisjoint(p.as_set())
        union |= p.as_set()
        total += len(p)
    assert union == closed.as_set()
    assert total == len(closed)


def test_completeness_step_examples():
    B2, strict, _ = completeness_step(half, IndexSet([zero, e2]), 1, 2)
    assert B2 == IndexSet([zero, e1])
    assert strict
    assert brute_pair_sum(half, [zero, e2]) == pytest.approx(3.1547005, abs=1e-6)
    assert brute_pair_sum(half, B2.members) == pytest.approx(3.4142136, abs=1e-6)

    B3, strict3, _ = completeness_step(half, IndexSet([zero, e1, e3]), 2, 3)
    assert B3 == IndexSet([zero, e1, e2])
    assert strict3


def test_completeness_step_requires_movable():
    with pytest.raises(DomainError):
        completeness_step(half, IndexSet([zero, e1, e2, e1 + e2]), 1, 2)


def test_completeness_step_certified_path_matches(monkeypatch):
    # forcing every margin through the high-precision comparison must not
    # change any verdict
    B = IndexSet([zero, e2, e3, e2 + e3])
    fast, strict_fast, _ = completeness_step(half, B, 1, 2)
    monkeypatch.setattr(transforms, "STRICT_MARGIN_FLOOR", math.inf)
    slow, strict_slow, _ = completeness_step(half, B, 1, 2)
    assert fast == slow
    assert strict_fast == strict_slow is True


@settings(max_examples=60)
@given(square_free_sets(max_index=7, max_n=9))
def test_exchange_identity_on_random_sets(B):
    closed, _ = divisor_closure(half, B)
    pair = first_active_swap(closed)
    if pair is None:
        return
    i, j = pair
    ident = completeness_exchange_identity(half, closed, i, j)
    assert ident.ok
    assert all(c >= 1.0 for c in ident.coefficients)
    assert ident.lhs == pytest.approx(ident.rhs, rel=1e-9)
    # oracle: the identity's left side recomputed with dict arithmetic
    part = swap_partition(closed, i, j)
    moved = [m.with_unit_removed(j).with_unit_added(i) for m in part.movable]
    others = [m for m in closed if m not in part.movable]
    assert ident.lhs == pytest.approx(brute_cross_sum(half, moved, others), rel=1e-12)


@settings(max_examples=60)
@given(square_free_sets(max_index=7, max_n=9))
def test_completeness_step_strictly_increases(B):
    closed, _ = divisor_closure(half, B)
    pair = first_active_swap(closed)
    if pair is None:
        return
    after, strict, s_after = completeness_step(half, closed, *pair)
    assert strict
    assert len(after) == len(closed)
    assert brute_pair_sum(half, after.members) > brute_pair_sum(half, closed.members)
    # the third value is the sum of the new set, bit for bit
    assert s_after == gcd_sum(half, after)


def test_normalize_examples():
    done, _ = normalize_to_complete(half, IndexSet([zero, e2]))
    assert done == IndexSet([zero, e1])
    done2, _ = normalize_to_complete(half, IndexSet([e2 + e3]))
    assert done2 == IndexSet([zero])
    already = IndexSet([zero, e1, e2, e1 + e2])
    done3, trace3 = normalize_to_complete(half, already)
    assert done3 == already
    assert trace3.steps == []


@given(square_free_sets(max_index=8, max_n=10))
def test_normalize_properties(B):
    done, trace = normalize_to_complete(half, B)
    assert is_complete(done)
    assert len(done) == len(B)
    assert brute_pair_sum(half, done.members) >= brute_pair_sum(half, B.members) - MONOTONE_TOL
    for step in trace.steps:
        assert step.s_after >= step.s_before - MONOTONE_TOL
        # closure steps carry no verdict; every swap is strict
        assert step.strict is (None if step.description.startswith("drop") else True)


def test_normalize_strict_for_multiple_alphas():
    rng = random.Random(42)
    for alpha in (0.4, 0.5, 0.8, 1.0):
        t = PrimePowerWeights(alpha)
        for _ in range(25):
            size = rng.randint(1, 8)
            members = set()
            while len(members) < size:
                members.add(MultiIndex({j: 1 for j in rng.sample(range(1, 8), rng.randint(0, 5))}))
            current, _ = divisor_closure(t, IndexSet(members))
            while True:
                pair = first_active_swap(current)
                if pair is None:
                    break
                current, strict, _ = completeness_step(t, current, *pair)
                assert strict
            assert is_complete(current)


def test_completeness_step_reuses_given_sum():
    B = IndexSet([zero, e2, e3, e2 + e3])
    after, strict, s_after = completeness_step(half, B, 1, 2)
    # a given s_before stands in for S(t, B): a wrong one decides the verdict
    assert completeness_step(half, B, 1, 2, s_before=gcd_sum(half, B)) == (after, strict, s_after)
    assert completeness_step(half, B, 1, 2, s_before=1e9)[1] is False


def test_normalize_sums_once_per_run(monkeypatch):
    calls = []
    counted = transforms.gcd_sum

    def counting(t, B):
        calls.append(len(B))
        return counted(t, B)

    monkeypatch.setattr(transforms, "gcd_sum", counting)
    rng = random.Random(7)
    total_swaps = 0
    for _ in range(40):
        members = {MultiIndex({j: 1 for j in rng.sample(range(1, 8), rng.randint(0, 5))})
                   for _ in range(rng.randint(1, 10))}
        _, trace = normalize_to_complete(half, IndexSet(members))
        # S of the input, before the first move; every move carries S by its delta
        assert len(calls) == (1 if trace.steps else 0)
        total_swaps += sum(step.strict is not None for step in trace.steps)
        calls.clear()
    assert total_swaps > 40


def test_trace_records_weights_label():
    _, trace = normalize_to_complete(half, IndexSet([zero, e3]))
    assert trace.weights == half.label()
    d = trace.to_dict()
    assert d["final"] == ["mi", "mi 1:1"]
    assert all({"description", "s_before", "s_after"} <= set(s) for s in d["steps"])


def wide_sets(seed, count=4):
    """Random square-free sets on 20-40 positions: their runs take more than
    one product table (`_slices`)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(20, 40)
        members = {MultiIndex({j: 1 for j in rng.sample(range(1, m + 1), rng.randint(0, 5))})
                   for _ in range(rng.randint(15, 40))}
        B = IndexSet(members)
        if len(B.universe()) >= 20:
            out.append(B)
    return out


def trace_cases():
    for seed in range(5):
        rng = random.Random(seed)
        yield from (random_index_set(rng) for _ in range(40))
    yield from wide_sets(11)


def assert_same_trace(steps, expected):
    assert [(s.description, s.strict) for s in steps] == [(e[0], e[3] if len(e) > 3 else None)
                                                          for e in expected]
    for step, (_, s_before, s_after, *_) in zip(steps, expected):
        assert step.s_before == pytest.approx(s_before, rel=1e-12)
        assert step.s_after == pytest.approx(s_after, rel=1e-12)


def test_normalize_matches_full_sum_replay():
    for B in trace_cases():
        done, trace = normalize_to_complete(half, B)
        expected_set, expected = normalize_reference(half, B)
        assert done == expected_set
        assert_same_trace(trace.steps, expected)


def test_divisor_closure_matches_full_sum_replay():
    for B in trace_cases():
        closed, trace = divisor_closure(half, B)
        expected_set, expected = divisor_closure_reference(half, B)
        assert closed == expected_set
        assert_same_trace(trace.steps, expected)


def test_wide_sets_take_sliced_tables():
    from gcdsums.gcdsum import _slices

    for B in wide_sets(11):
        assert len(_slices(len(B.universe()))) > 1


def test_recertified_swaps_keep_the_trace(monkeypatch):
    sets = [random_index_set(random.Random(seed)) for seed in range(30)] + wide_sets(12, 2)
    plain = [normalize_to_complete(half, B) for B in sets]
    calls = []
    exact = transforms.gcd_sum_mp

    def counting(t, B, dps=50):
        calls.append(dps)
        return exact(t, B, dps=dps)

    # every swap's margin is below this floor, so each is decided at 50 digits
    monkeypatch.setattr(transforms, "STRICT_MARGIN_FLOOR", math.inf)
    monkeypatch.setattr(transforms, "gcd_sum_mp", counting)
    swaps = 0
    for B, (done, trace) in zip(sets, plain):
        again, retrace = normalize_to_complete(half, B)
        assert again == done
        assert [(s.description, s.strict, s.s_after) for s in retrace.steps] == \
            [(s.description, s.strict, s.s_after) for s in trace.steps]
        swaps += sum(s.strict is not None for s in retrace.steps)
        assert all(s.strict is True for s in retrace.steps if s.strict is not None)
    assert swaps > 30
    assert calls == [50] * (2 * swaps)


def test_move_blocks_match_one_block(monkeypatch):
    sets = [random_index_set(random.Random(seed)) for seed in range(20)] + wide_sets(13, 2)
    plain = [normalize_to_complete(half, B)[1].steps for B in sets]
    # a budget of one float cuts every move's gather into one-row blocks
    monkeypatch.setattr(transforms, "_BLOCK_BUDGET", 1)
    for B, steps in zip(sets, plain):
        again = normalize_to_complete(half, B)[1].steps
        assert [(s.description, s.strict) for s in again] == [(s.description, s.strict) for s in steps]
        for a, b in zip(again, steps):
            assert a.s_after == pytest.approx(b.s_after, rel=1e-12)
