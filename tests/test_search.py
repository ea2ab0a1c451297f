import math

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from oracles import (
    addable_reference,
    brute_downsets,
    brute_pair_sum,
    extremal_sf_reference,
    local_search_reference,
    removable_reference,
)

from gcdsums import (
    DomainError,
    ExplicitWeights,
    IndexSet,
    MultiIndex,
    PrimePowerWeights,
    cube_construction,
    cube_sum_closed_form,
    divisor_closure,
    enumerate_downsets,
    extremal_sf,
    gcd_sum,
    is_complete,
    is_divisor_closed,
    local_search,
)
from gcdsums import gcdsum, search, transforms

half = PrimePowerWeights(0.5)
zero = MultiIndex.zero()
e1 = MultiIndex.unit(1)
e2 = MultiIndex.unit(2)


def as_mask_set(B):
    out = set()
    for m in B:
        out.add(sum(1 << (j - 1) for j, _ in m.items))
    return frozenset(out)


def test_enumerate_examples():
    assert [as_mask_set(s) for s in enumerate_downsets(2, 3)] == [frozenset({0, 1, 2})]
    two = [as_mask_set(s) for s in enumerate_downsets(2, 2)]
    assert two == [frozenset({0, 1}), frozenset({0, 2})]
    ones = list(enumerate_downsets(5, 1))
    assert ones == [IndexSet([zero])]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_enumerate_matches_brute_force(m):
    for n in range(1, (1 << m) + 1):
        got = [as_mask_set(s) for s in enumerate_downsets(m, n)]
        assert len(got) == len(set(got)), "duplicates emitted"
        assert set(got) == brute_downsets(m, n)


def test_enumerate_counts():
    # total nonempty downsets of the m-cube: the antichain counts 168 (m=4)
    # and 7581 (m=5) minus the empty one
    assert sum(len(list(enumerate_downsets(4, n))) for n in range(1, 17)) == 167
    assert sum(len(list(enumerate_downsets(5, n))) for n in range(1, 33)) == 7580


def test_enumerate_all_are_downsets():
    for n in (3, 7, 12):
        for s in enumerate_downsets(4, n):
            assert len(s) == n
            assert is_divisor_closed(s)
            assert s.is_square_free()


def test_enumerate_validation():
    with pytest.raises(DomainError):
        list(enumerate_downsets(7, 3))
    with pytest.raises(DomainError):
        list(enumerate_downsets(3, 9))
    with pytest.raises(DomainError):
        list(enumerate_downsets(3, 0))


def test_extremal_examples():
    rep = extremal_sf(half, 2, 3)
    assert rep.maximizers == (IndexSet([zero, e1]),)
    assert rep.gamma == pytest.approx(1 + 1 / math.sqrt(2), rel=1e-12)
    assert rep.candidates == 3

    rep3 = extremal_sf(half, 3, 3)
    assert rep3.maximizers == (IndexSet([zero, e1, e2]),)
    assert rep3.gamma == pytest.approx(2.1284705, abs=1e-6)

    rep4 = extremal_sf(half, 4, 4)
    assert rep4.maximizers == (cube_construction(2),)
    assert rep4.best_value == pytest.approx(cube_sum_closed_form(half, 2), rel=1e-12)


def test_extremal_beats_every_candidate():
    rep = extremal_sf(half, 5, 4)
    best = max(brute_pair_sum(half, s.members) for s in enumerate_downsets(4, 5))
    assert rep.best_value == pytest.approx(best, rel=1e-12)


def test_extremal_maximizers_complete_small_sweep():
    for alpha in (0.5, 1.0):
        t = PrimePowerWeights(alpha)
        for m in (2, 3, 4):
            for n in range(1, min(1 << m, 6) + 1):
                for s in extremal_sf(t, n, m).maximizers:
                    assert is_complete(s)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(1, 4), st.just(1), max_size=4).map(MultiIndex),
        min_size=1, max_size=6, unique=True,
    )
)
def test_extremal_dominates_closed_user_sets(members):
    B = IndexSet(members)
    closed, _ = divisor_closure(half, B)
    rep = extremal_sf(half, len(B), 4)
    assert gcd_sum(half, closed) <= rep.best_value * (1 + 1e-12)


def test_tie_reporting():
    # a large tie tolerance must surface several candidates, best first in
    # canonical order
    rep = extremal_sf(half, 2, 3, tie_tol=0.5)
    assert len(rep.maximizers) == 3
    values = [gcd_sum(half, s) for s in rep.maximizers]
    assert max(values) == pytest.approx(rep.best_value)


def test_local_search_trivial_cases():
    rep = local_search(half, 1, 3, seed=0, iterations=50)
    assert rep.maximizers == (IndexSet([zero]),)
    assert rep.best_value == pytest.approx(1.0)

    frozen = local_search(half, 4, 4, seed=9, iterations=0)
    again = local_search(half, 4, 4, seed=9, iterations=0)
    assert frozen.maximizers == again.maximizers
    assert frozen.mode == "heuristic"


def test_local_search_reaches_cube():
    target = cube_sum_closed_form(half, 2)
    for seed in range(4):
        rep = local_search(half, 4, 4, seed=seed, iterations=300)
        assert rep.best_value >= target * (1 - 1e-12)


def test_local_search_never_beats_exhaustive():
    for n, m in ((3, 3), (5, 4), (6, 4)):
        exact = extremal_sf(half, n, m).best_value
        for seed in (0, 1):
            rep = local_search(half, n, m, seed=seed, iterations=200)
            assert rep.best_value <= exact * (1 + 1e-12)
            assert is_divisor_closed(rep.maximizers[0])


def test_cube_construction_examples():
    assert cube_construction(1) == IndexSet([zero, e1])
    assert cube_construction(2) == IndexSet([zero, e1, e2, e1 + e2])
    c3 = cube_construction(3)
    assert len(c3) == 8
    assert is_complete(c3)


def test_cube_construction_validation():
    with pytest.raises(DomainError):
        cube_construction(0)
    with pytest.raises(DomainError):
        cube_construction(21)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize(
    "m, slice_bits",
    [*((m, None) for m in range(3, 10)), (8, 4), (9, 4)],
    ids=[*map(str, range(3, 10)), "8-slices4", "9-slices4"],
)
def test_local_search_matches_reference(alpha, m, slice_bits, monkeypatch):
    # slices of 4 positions give the run 2 product tables at m = 8 and 3 at
    # m = 9; the reference is too slow where 16-position slices need two
    if slice_bits is not None:
        monkeypatch.setattr(gcdsum, "_TABLE_SLICE_BITS", slice_bits)
    t = PrimePowerWeights(alpha)
    for n in (m + 1, min(1 << m, 3 * m)):
        for seed in range(5):
            got = local_search(t, n, m, seed=seed, iterations=200)
            ref = local_search_reference(t, n, m, seed=seed, iterations=200)
            assert got.to_dict(include_elapsed=False) == ref.to_dict(include_elapsed=False)


def test_local_search_matches_reference_on_tied_weights(monkeypatch):
    # equal weights past the first make many swaps exact ties, which are
    # decided on full sums
    t = ExplicitWeights([0.6, 0.5])
    calls = []
    full = search.gcd_sum
    monkeypatch.setattr(search, "gcd_sum", lambda *a: calls.append(1) or full(*a))
    for m, n in ((4, 6), (5, 9), (6, 14)):
        for seed in range(5):
            got = local_search(t, n, m, seed=seed, iterations=200)
            ref = local_search_reference(t, n, m, seed=seed, iterations=200)
            assert got.to_dict(include_elapsed=False) == ref.to_dict(include_elapsed=False)
    # outside near ties a run sums in full twice (start and report), 30 in
    # all; completeness steps do not sum
    assert len(calls) > 300


def test_local_search_completeness_steps_sum_nothing(monkeypatch):
    # a completeness swap is one move of the run: S is carried by its delta,
    # with no full sum and no 50-digit recertification
    def forbidden(*args, **kwargs):
        raise AssertionError("full sum in a completeness step")

    monkeypatch.setattr(transforms, "gcd_sum", forbidden)
    monkeypatch.setattr(transforms, "gcd_sum_mp", forbidden)
    pairs, first_swap = [], search._first_swap
    monkeypatch.setattr(search, "_first_swap", lambda masks: pairs.append(first_swap(masks)) or pairs[-1])
    for seed in range(3):
        local_search(half, 40, 8, seed=seed, iterations=200)
    assert sum(pair is not None for pair in pairs) > 10


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("m", range(3, 7))
def test_extremal_sf_matches_reference(alpha, m):
    t = PrimePowerWeights(alpha)
    for n in sorted({1, 2, m, m + 3, min(1 << m, 2 * m - 1)}):
        got = extremal_sf(t, n, m)
        ref = extremal_sf_reference(t, n, m)
        assert got.to_dict(include_elapsed=False) == ref.to_dict(include_elapsed=False)


def test_extremal_sf_wide_tie_tolerance_matches_reference():
    for tie_tol in (1e-3, 0.05, 0.5):
        got = extremal_sf(half, 6, 4, tie_tol=tie_tol)
        ref = extremal_sf_reference(half, 6, 4, tie_tol=tie_tol)
        assert got.to_dict(include_elapsed=False) == ref.to_dict(include_elapsed=False)


@st.composite
def mask_runs(draw):
    """Weights, 1-24 positions below 61, and distinct masks over them (bit b
    for the b-th position), with a member x, a non-member y and bits i <= j:
    a swap of j for i, or dropping j when i == j.  Past 16 positions the run
    needs two product tables."""
    alpha = draw(st.sampled_from([0.3, 0.5, 1.0, 2.0]))
    k = draw(st.integers(1, 24))
    positions = tuple(sorted(draw(st.sets(st.integers(1, 60), min_size=k, max_size=k))))
    masks = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1,
                          max_size=min(1 << k, 40) - 1, unique=True))
    x = draw(st.sampled_from(masks))
    if k <= 10:
        y = draw(st.sampled_from(sorted(set(range(1 << k)) - set(masks))))
    else:
        y = draw(st.integers(0, (1 << k) - 1).filter(lambda z: z not in masks))
    j = draw(st.integers(0, k - 1))
    return alpha, positions, masks, x, y, draw(st.integers(0, j)), j


@settings(max_examples=60, deadline=None)
@given(mask_runs())
@example((0.5, tuple(range(1, 21)), [0, 1, 2, 3, 1 << 19, 1 << 19 | 1], 3, 1 << 18 | 1, 2, 19))
def test_swap_delta_matches_full_sums(case):
    # the run's score of a single-member move (the search's swap) and of a
    # batch move (a completeness swap or a closure drop) is S after less S
    # before; committing the move gives the set that was scored
    alpha, positions, masks, x, y, i, j = case
    t = PrimePowerWeights(alpha)

    def index_set(members):
        return IndexSet.from_masks(
            sum(1 << p - 1 for b, p in enumerate(positions) if z >> b & 1) for z in members)

    B = index_set(masks)
    ui, uj = 1 << i, 1 << j
    if i < j:
        batch, flip = transforms._movable(set(masks), ui, uj), ui | uj
    else:
        batch, flip = [z for z in masks if z & uj and z ^ uj not in masks], uj
    for moved, flip in (([x], x ^ y), (batch, flip)):
        if not moved:
            continue
        run = transforms._MaskRun(t, B, positions, transforms.TransformTrace(t.label(), B))
        assert len(run.tables) == (1 if len(positions) <= 16 else 2)
        delta, move = run.score(moved, flip)
        after = index_set(set(masks) - set(moved) | {z ^ flip for z in moved})
        s_before, s_after = gcd_sum(t, B), gcd_sum(t, after)
        assert abs(delta - (s_after - s_before)) <= 1e-12 * max(s_before, s_after)
        run.commit(move)
        assert run.index_set() == after


def test_frontier_matches_brute_force_after_every_move(monkeypatch):
    checked = []

    class Checked(search._Frontier):
        def check(self, kind):
            assert self.removable == removable_reference(self.chosen, self.m)
            assert self.addable == addable_reference(self.chosen, self.m)
            checked.append(kind)

        def __init__(self, chosen, m):
            super().__init__(chosen, m)
            self.check("scan")

        def add(self, y):
            super().add(y)
            self.check("add")

        def remove(self, x):
            super().remove(x)
            self.check("remove")

    monkeypatch.setattr(search, "_Frontier", Checked)
    rep = local_search(half, 24, 7, seed=3, iterations=300)
    monkeypatch.undo()
    assert rep.to_dict(include_elapsed=False) == local_search(
        half, 24, 7, seed=3, iterations=300).to_dict(include_elapsed=False)
    # the initial scan and the rescans after completeness steps, the initial
    # growth, and the accepted swaps
    assert checked.count("scan") >= 2
    assert checked.count("add") > 24 and checked.count("remove") > 5


def test_local_search_validation():
    with pytest.raises(DomainError):
        local_search(half, 5, search.HEURISTIC_MAX_INDEX + 1)
    with pytest.raises(DomainError):
        local_search(half, 5, 6, iterations=-1)
    with pytest.raises(DomainError):
        local_search(half, 0, 6)
