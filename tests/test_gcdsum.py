import itertools
import json
import math
import random
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import index_sets, multi_indices, square_free_sets
from oracles import (
    brute_closure_majorant,
    brute_cross_sum,
    brute_is_divisor_closed,
    brute_lcm_closure,
    brute_pair_matrix,
    brute_pair_sum,
    brute_pair_sum_mp,
    brute_weighted_form,
    eager_index_set,
    random_downset_reference,
)

import gcdsums.gcdsum as gcdsum_module
from gcdsums import (
    ConvergenceError,
    DomainError,
    ExplicitWeights,
    IndexSet,
    MultiIndex,
    PrimePowerWeights,
    cross_sum,
    cube_sum_closed_form,
    from_mask,
    gcd_matrix,
    gcd_row_sums,
    gcd_sum,
    gcd_sum_integers,
    gcd_sum_mp,
    group_by_support,
    index_set_from_integers,
    lcm_closure,
    lcm_closure_bound,
    min_eigenvalue,
    rayleigh_bounds,
    spectral_norm,
    support_grouping_ratio,
    to_mask,
    weighted_sf_form,
)
from gcdsums.cli import main, parse_set_file
from gcdsums.errors import DuplicateMemberError
from gcdsums.multiindex import to_integer
from gcdsums.search import cube_construction
from gcdsums.verify import spectrum_interval

# Settings of the module that force each kernel path, and the operator
# (`_operator`) the path must give a square-free set.  Id 22, the largest
# universe of the transform path, keeps its old name: one product table for
# these small sets.  "split" takes product tables on slices of three
# positions, and "transform" the Walsh-Hadamard path wherever it is allowed.
# "divisor" takes the divisor factorization for every set the transform does
# not take, square-free or not; the pair paths send sets that are not
# square-free to exponent blocks.
NO_TRANSFORM = {"_transform_cheaper": lambda n, m: False, "_divisors_cheaper": lambda *size: False}
KERNEL_PATHS = {
    22: (gcdsum_module._Pairs, NO_TRANSFORM),
    "split": (gcdsum_module._Pairs, {**NO_TRANSFORM, "_TABLE_SLICE_BITS": 3}),
    "transform": (gcdsum_module._Transform, {"_transform_cheaper": lambda n, m: True}),
    "divisor": (gcdsum_module._Divisors, {**NO_TRANSFORM, "_divisors_cheaper": lambda *size: True}),
}
PAIR_BLOCK_PATHS = [22, "split"]


@contextmanager
def kernel_path(name, **settings):
    """Force one kernel path, plus any other module settings, for the block;
    gives the type of operator the path must produce for a square-free set."""
    operator, forced = KERNEL_PATHS[name]
    with pytest.MonkeyPatch.context() as mp:
        for attr, value in {**forced, **settings}.items():
            mp.setattr(gcdsum_module, attr, value)
        yield operator


half = PrimePowerWeights(0.5)
zero = MultiIndex.zero()
e1 = MultiIndex.unit(1)
e2 = MultiIndex.unit(2)
e3 = MultiIndex.unit(3)


def test_index_set_canonical_and_distinct():
    B = IndexSet([e2, zero, e1])
    assert B.members == (zero, e1, e2)
    with pytest.raises(DomainError):
        IndexSet([e1, e1])
    with pytest.raises(DomainError):
        IndexSet([])


@st.composite
def exponent_rows(draw):
    """A universe of up to 70 positions below 140 and distinct rows over it,
    square-free or with exponents up to 3, in no particular order; some
    columns may be all zero."""
    universe = sorted(draw(st.sets(st.integers(1, 140), max_size=70)))
    top = draw(st.sampled_from([1, 3]))
    width = len(universe)
    rows = draw(st.lists(st.lists(st.integers(0, top), min_size=width, max_size=width)
                         .map(tuple), min_size=1, max_size=12, unique=True))
    return universe, np.array(rows, dtype=np.int64).reshape(len(rows), width)


@given(exponent_rows())
def test_from_rows_equals_the_decoded_members(case):
    universe, rows = case
    decoded = IndexSet(
        MultiIndex({j: e for j, e in zip(universe, row) if e}) for row in rows.tolist()
    )
    B = IndexSet.from_rows(universe, rows)
    assert B.members == decoded.members and B == decoded and hash(B) == hash(decoded)
    assert B.universe() == decoded.universe()
    assert B.exponent_matrix().dtype == decoded.exponent_matrix().dtype
    assert np.array_equal(B.exponent_matrix(), decoded.exponent_matrix())
    assert B.is_square_free() == decoded.is_square_free() == (rows.max(initial=0) <= 1)
    if B.is_square_free():
        assert np.array_equal(B.masks(), decoded.masks())
    else:
        for S in (B, decoded):
            with pytest.raises(DomainError):
                S.masks()


@given(st.lists(st.integers(0, (1 << 130) - 1), min_size=1, max_size=10, unique=True))
def test_masks_agree_with_to_mask(values):
    # column i of the universe is bit i % 64 of word i // 64
    B = IndexSet(map(from_mask, values))
    words = B.masks()
    assert words.dtype == np.uint64 and words.shape == (len(B), max(1, -(-len(B.universe()) // 64)))
    for a, row in zip(B.members, words):
        x = to_mask(a)
        assert int.from_bytes(row.tobytes(), "little") == sum(
            1 << i for i, j in enumerate(B.universe()) if x >> (j - 1) & 1
        )


@st.composite
def member_lists(draw):
    """Distinct members in no particular order: square-free or with exponents
    up to 4, on positions up to 12, 70 or 200 (so mask words past the first),
    the zero member among them at times."""
    top = draw(st.sampled_from([1, 1, 4]))
    position = st.integers(1, draw(st.sampled_from([12, 70, 200])))
    member = st.dictionaries(position, st.integers(1, top), max_size=7).map(MultiIndex)
    return draw(st.lists(member, min_size=1, max_size=20, unique=True))


@given(member_lists(), st.randoms(use_true_random=False))
@example([zero], random.Random(0))
@example([zero, MultiIndex({65: 1}), MultiIndex({1: 1, 200: 1}), e2], random.Random(1))
@example([MultiIndex({3: 2}), zero, MultiIndex({3: 1, 70: 4})], random.Random(2))
def test_constructors_match_the_eager_construction(members, rng):
    ref, universe, matrix, words = eager_index_set(members)
    rng.shuffle(members)
    column = {j: i for i, j in enumerate(universe)}
    rows = np.zeros((len(members), len(universe)), dtype=np.int64)
    for r, m in enumerate(members):
        for j, e in m.items:
            rows[r, column[j]] = e
    built = {"members": IndexSet(members), "rows": IndexSet.from_rows(universe, rows)}
    if words is not None:
        masks = [to_mask(m) for m in members]
        built["masks"] = IndexSet.from_masks(masks)
        with pytest.MonkeyPatch.context() as mp:
            # small mask lists are sorted in Python; take the lexsort path too
            mp.setattr(gcdsum_module, "_PYTHON_SORT_MAX", 0)
            built["masks, lexsort"] = IndexSet.from_masks(masks)
    with tempfile.TemporaryDirectory() as tmp:
        # members whose integer fits 63 bits go in as integers every other line
        path = Path(tmp) / "set.txt"
        path.write_text("".join(
            f"{to_integer(m)}\n" if i % 2 and to_integer(m) < 1 << 63 else f"{m}\n"
            for i, m in enumerate(members)))
        built["file"] = parse_set_file(str(path))
    for name, B in built.items():
        assert B == built["members"], name
        assert B.members == ref and hash(B) == hash(ref), name
        assert B.as_set() == frozenset(members) and all(m in B for m in members), name
        assert B.universe() == universe, name
        assert B.exponent_matrix().dtype == np.int16, name
        assert np.array_equal(B.exponent_matrix(), matrix), name
        assert B.is_square_free() == (words is not None), name
        if words is not None:
            assert np.array_equal(B.masks(), words), name
            assert B.position_masks() == tuple(map(to_mask, ref)), name
    if len(members) > 1:
        assert IndexSet.from_rows(universe, rows[1:]) != built["members"]


def test_from_masks_rejects_bad_input():
    with pytest.raises(DomainError, match="nonempty"):
        IndexSet.from_masks([])
    for small in (0, 32):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gcdsum_module, "_PYTHON_SORT_MAX", small)
            with pytest.raises(DomainError, match="distinct"):
                IndexSet.from_masks([5, 1 << 100, 5])
    with pytest.raises(DomainError, match=">= 0"):
        IndexSet.from_masks([1, -2])
    with pytest.raises(DomainError, match="distinct"):
        IndexSet.from_rows((1, 2), np.array([[0, 1], [1, 0], [0, 1]]))
    with pytest.raises(DomainError, match="too large"):
        IndexSet([MultiIndex({1: 30_001})])
    with pytest.raises(DomainError, match="too large"):  # checked before any int16 array
        IndexSet([zero, MultiIndex({2: 10**20})])


@pytest.mark.parametrize("rows, repeat", [
    ([[0, 1], [1, 0], [0, 1]], (2, 0)),
    ([[1, 0], [0, 1], [2, 0], [0, 1], [1, 0], [0, 1]], (3, 1)),
    ([[3], [1], [1], [3], [3]], (2, 1)),
    ([[0], [0]], (1, 0)),
])
def test_from_rows_names_the_first_repeated_row(rows, repeat):
    # the first row equal to an earlier one, and the first row equal to it
    rows = np.array(rows)
    with pytest.raises(DuplicateMemberError, match="distinct") as err:
        IndexSet.from_rows(range(1, rows.shape[1] + 1), rows)
    assert err.value.rows == repeat


def test_cached_arrays_are_read_only():
    B = IndexSet([zero, e1, e1 + e3])
    closure = lcm_closure(IndexSet([MultiIndex({1: 2}), e2]))
    for array in (B.exponent_matrix(), B.masks(), cube_construction(3).masks(),
                  closure.exponent_matrix()):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1
    assert B.exponent_matrix() is B.exponent_matrix() and B.masks() is B.masks()
    # a foreign universe is a new array scattered from the cached one
    assert B.exponent_matrix((1, 2, 3)).tolist() == [[0, 0, 0], [1, 0, 0], [1, 0, 1]]


def test_masks_need_a_square_free_set():
    with pytest.raises(DomainError):
        IndexSet([zero, MultiIndex({1: 2})]).masks()


def test_gcd_sum_examples():
    assert gcd_sum(half, IndexSet([zero])) == 1.0
    assert gcd_sum(half, IndexSet([zero, e1])) == pytest.approx(2 + math.sqrt(2), rel=1e-14)
    t1, t2 = half.weight_at(1), half.weight_at(2)
    expected = 3 + 2 * t1 + 2 * t2 + 2 * t1 * t2
    assert gcd_sum(half, IndexSet([zero, e1, e2])) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(6.3854115, abs=1e-6)


@given(index_sets(max_index=7, max_exponent=3, max_n=9))
def test_gcd_sum_matches_brute_force(B):
    assert gcd_sum(half, B) == pytest.approx(brute_pair_sum(half, B.members), rel=1e-12)


@given(square_free_sets(max_index=7, max_n=9))
def test_gcd_sum_square_free_path_matches_brute_force(B):
    assert gcd_sum(half, B) == pytest.approx(brute_pair_sum(half, B.members), rel=1e-12)


@pytest.mark.parametrize("path", list(KERNEL_PATHS))
@settings(max_examples=50)
@given(square_free_sets(max_index=9, max_n=12))
def test_sum_and_row_sums_match_brute_force_on_every_path(path, B):
    with kernel_path(path, _BLOCK_BUDGET=40) as operator:
        assert type(gcdsum_module._operator(half, B)) is operator
        value = gcd_sum(half, B)
        rows = gcd_row_sums(half, B)
    assert value == pytest.approx(brute_pair_sum(half, B.members), rel=1e-12)
    expected = [math.fsum(row) for row in brute_pair_matrix(half, B.members)]
    assert np.allclose(rows, expected, rtol=1e-12, atol=0)


def test_split_tables_on_wide_sets():
    rng = random.Random(3)
    members = {zero}
    while len(members) < 40:
        members.add(MultiIndex({j: 1 for j in rng.sample(range(1, 63), rng.randint(1, 8))}))
    B = IndexSet(members)
    assert len(B.universe()) > gcdsum_module._XOR_TABLE_MAX_BITS
    assert gcd_sum(half, B) == pytest.approx(brute_pair_sum(half, B.members), rel=1e-12)
    expected = [math.fsum(row) for row in brute_pair_matrix(half, B.members)]
    assert np.allclose(gcd_row_sums(half, B), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", [63, 64, 70, 130])
def test_mask_words_on_wide_sets(m):
    # one to three mask words: the last member covers the positions the
    # others miss, so the universe is 1..m and slices meet every word boundary
    rng = random.Random(m)
    members = {zero}
    while len(members) < 29:
        members.add(MultiIndex({j: 1 for j in rng.sample(range(1, m + 1), rng.randint(1, 9))}))
    covered = set().union(*(a.support() for a in members))
    members.add(MultiIndex({j: 1 for j in range(1, m + 1) if j not in covered}))
    A = IndexSet(members)
    B = IndexSet(A.members[:12] + (MultiIndex({1: 1, m: 1}), MultiIndex.unit(m - 1)))
    assert A.universe() == tuple(range(1, m + 1))
    assert A.masks().shape == (len(A), -(-m // 64))
    assert gcd_sum(half, A) == pytest.approx(brute_pair_sum(half, A.members), rel=1e-12)
    expected = [math.fsum(row) for row in brute_pair_matrix(half, A.members)]
    assert np.allclose(gcd_row_sums(half, A), expected, rtol=1e-12, atol=0)
    assert cross_sum(half, A, B) == pytest.approx(
        brute_cross_sum(half, A.members, B.members), rel=1e-12
    )


@settings(max_examples=60)
@given(index_sets(max_index=7, max_exponent=4, max_n=10))
@example(IndexSet([MultiIndex.zero()]))  # no position: one empty divisor
def test_divisor_path_matches_brute_force(B):
    with kernel_path("divisor"):
        path = gcdsum_module._operator(half, B)
        value = gcd_sum(half, B)
        rows = gcd_row_sums(half, B)
    # square-free sets take it too, the set {0} among them
    assert isinstance(path, gcdsum_module._Divisors)
    assert value == pytest.approx(brute_pair_sum(half, B.members), rel=1e-12)
    expected = [math.fsum(row) for row in brute_pair_matrix(half, B.members)]
    assert np.allclose(rows, expected, rtol=1e-12, atol=0)


@settings(max_examples=60)
@given(index_sets(max_index=6, max_exponent=3, max_n=8), index_sets(max_index=8, max_exponent=2, max_n=8))
def test_exponent_sets_cross_sum_matches_brute_force(A, B):
    # a cross sum takes the pair blocks whatever the cost models prefer
    with kernel_path("divisor"):
        forward = cross_sum(half, A, B)
        backward = cross_sum(half, B, A)
    expected = brute_cross_sum(half, A.members, B.members)
    assert forward == pytest.approx(expected, rel=1e-12)
    assert backward == pytest.approx(expected, rel=1e-12)


def test_exponent_sets_cross_sum_decodes_no_member(monkeypatch):
    # the pair blocks read the sets' rows: no member is decoded
    rng = random.Random(5)
    integers = [12, *rng.sample(range(1, 10**6), 40)], [12, *rng.sample(range(1, 10**6), 30)]
    expected = brute_cross_sum(half, *(index_set_from_integers(ns).members for ns in integers))
    # sets from rows alone hold no decoded members
    A, B = (IndexSet.from_rows(S.universe(), S.exponent_matrix())
            for S in map(index_set_from_integers, integers))
    decoded, init = [], MultiIndex.__init__

    def counted_init(self, *args):
        decoded.append(args)
        init(self, *args)

    monkeypatch.setattr(MultiIndex, "__init__", counted_init)
    with kernel_path("divisor"):
        value = cross_sum(half, A, B)
    assert not decoded
    assert value == pytest.approx(expected, rel=1e-12)


def test_divisor_path_on_integers_below_1e8():
    rng = random.Random(12)
    ns = rng.sample(range(1, 10**8), 200)
    B = index_set_from_integers(ns)
    for alpha in (0.5, 1.0):
        t = PrimePowerWeights(alpha)
        assert isinstance(gcdsum_module._operator(t, B), gcdsum_module._Divisors)
        assert gcd_sum(t, B) == pytest.approx(gcd_sum_integers(ns, alpha), rel=1e-12)


def divisor_bound(B) -> float:
    """The stated relative bound of the divisor path's sum against the exact
    sum over the double weights, (10 w + 2 N + 1) 2^-53, plus the double
    weights' own error (at most 2^-53 each) carried through exponents of at
    most 2 max_a sum_j a_j."""
    E = B.exponent_matrix()
    w, top = int(np.count_nonzero(E, axis=1).max()), int(E.sum(axis=1).max())
    return (10 * w + 2 * len(B) + 1 + 4 * top) * 2.0**-53


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_divisor_path_at_the_exponent_cap(alpha):
    t = PrimePowerWeights(alpha)
    B = IndexSet([MultiIndex({1: 30_000}), MultiIndex({2: 29_999}), MultiIndex({1: 2, 2: 1})])
    with kernel_path("divisor"):
        value = gcd_sum(t, B)
        rows = gcd_row_sums(t, B)
        assert np.isfinite(gcd_matrix(t, B).matvec(np.ones(3))).all()
    assert math.isfinite(value) and np.isfinite(rows).all()
    exact = gcd_sum_mp(t, B, dps=50)
    assert abs(value - float(exact)) <= divisor_bound(B) * float(exact)
    assert math.fsum(rows) == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("values", [
    (1e-3, 1e-5, 1e-9), (1 - 1e-9, 1 - 2e-9, 1 - 3e-9), (1 - 1e-15, 0.5, 1e-12),
])
def test_divisor_path_with_weights_near_0_and_1(values):
    t = ExplicitWeights(sorted(values, reverse=True))
    B = IndexSet([zero, MultiIndex({1: 3}), MultiIndex({1: 1, 2: 2}), MultiIndex({2: 4, 3: 1}),
                  MultiIndex({1: 2, 3: 5}), e3, MultiIndex({1: 1, 2: 1, 3: 1})])
    with kernel_path("divisor"):
        value = gcd_sum(t, B)
        rows = gcd_row_sums(t, B)
    assert value == pytest.approx(brute_pair_sum(t, B.members), rel=divisor_bound(B))
    expected = [math.fsum(row) for row in brute_pair_matrix(t, B.members)]
    assert np.allclose(rows, expected, rtol=divisor_bound(B), atol=0)
    assert abs(value - float(gcd_sum_mp(t, B))) <= divisor_bound(B) * value


def test_divisor_cost_model():
    # 250 random integers below 1e8 (4522 entries, members on at most six of
    # 324 positions) take the divisor factorization; 300 smooth integers on
    # six primes (232 140 entries) and two members on the exponent cap do not
    cheaper = gcdsum_module._divisors_cheaper
    assert cheaper(4522, 6, 250**2, 324)
    assert not cheaper(232_140, 6, 300**2, 6)
    assert not cheaper(60_001, 1, 2**2, 2)
    # cheaper than the pairs, but its arrays would outgrow two pair blocks
    assert not cheaper(10**6, 9, 10**8, 10**4)
    rng = random.Random(4)
    B = index_set_from_integers(rng.sample(range(1, 10**8), 250))
    assert isinstance(gcdsum_module._operator(half, B), gcdsum_module._Divisors)
    smooth = index_set_from_integers(
        {2**rng.randint(0, 4) * 3**rng.randint(0, 4) * 5**rng.randint(0, 4) * 7**rng.randint(0, 4)
         for _ in range(300)})
    assert isinstance(gcdsum_module._operator(half, smooth), gcdsum_module._Pairs)


@pytest.mark.parametrize("k", [15, 16, 17, 18])
def test_cube_closed_form_large(k):
    assert gcd_sum(half, cube_construction(k)) == pytest.approx(
        cube_sum_closed_form(half, k), rel=1e-12
    )


def test_gcd_sum_block_paths(monkeypatch):
    rng = random.Random(7)
    members = set()
    while len(members) < 60:
        members.add(
            MultiIndex({j: rng.randint(1, 2) for j in rng.sample(range(1, 9), rng.randint(0, 6))})
        )
    B = IndexSet(members)
    whole = gcd_sum(half, B)
    monkeypatch.setattr(gcdsum_module, "_BLOCK_BUDGET", 300)
    blocked = gcd_sum(half, B)
    assert blocked == pytest.approx(whole, rel=1e-13)


def test_gcd_sum_permutation_invariant():
    rng = random.Random(1)
    members = [MultiIndex({j: 1 for j in rng.sample(range(1, 8), 3)}) for _ in range(6)]
    members = list(dict.fromkeys(members))
    shuffled = members[:]
    rng.shuffle(shuffled)
    assert gcd_sum(half, IndexSet(members)) == gcd_sum(half, IndexSet(shuffled))


def test_gcd_sum_at_least_n():
    B = IndexSet([zero, e1, e2, e3])
    assert gcd_sum(half, B) > len(B)
    assert gcd_sum(half, IndexSet([zero])) == 1.0


def test_gcd_sum_mp_agrees():
    B = IndexSet([zero, e1, e2, e1 + e2])
    assert float(gcd_sum_mp(half, B, dps=40)) == pytest.approx(gcd_sum(half, B), rel=1e-13)


@settings(max_examples=60)
@given(index_sets())
@example(IndexSet([zero]))
@example(IndexSet([MultiIndex({3: 2})]))
@example(IndexSet([zero, e1, e2, e1 + e2]))
def test_gcd_sum_mp_matches_termwise_oracle(B):
    # same products, and the counted terms multiplied exactly: equal, not close
    for t in (half, ExplicitWeights([0.9, 0.5, 0.3])):  # a constant tail from position 3
        assert gcd_sum_mp(t, B) == brute_pair_sum_mp(t, B.members)
    assert gcd_sum_mp(half, B, dps=30) == brute_pair_sum_mp(half, B.members, dps=30)


@pytest.mark.parametrize("t", [half, PrimePowerWeights(1.0), ExplicitWeights([0.9, 0.5])])
def test_gcd_sum_mp_at_the_exponent_cap(t):
    B = IndexSet([zero, MultiIndex({1: 30_000}), MultiIndex({2: 29_999}), MultiIndex({1: 2, 2: 1}),
                  MultiIndex({1: 30_000, 3: 30_000})])
    assert gcd_sum_mp(t, B) == brute_pair_sum_mp(t, B.members)


def test_gcd_sum_mp_decodes_no_member(monkeypatch):
    def sets():
        return [cube_construction(5), index_set_from_integers([1, 2, 12, 45, 360, 7**5])]

    expected = [brute_pair_sum_mp(half, B.members) for B in sets()]

    def forbidden(*args, **kwargs):
        raise AssertionError("gcd_sum_mp built a MultiIndex")

    monkeypatch.setattr(MultiIndex, "__init__", forbidden)
    assert [gcd_sum_mp(half, B) for B in sets()] == expected


def test_gcd_sum_integers_examples():
    assert gcd_sum_integers([1], 0.7) == 1.0
    assert gcd_sum_integers([2, 6], 0.5) == pytest.approx(2 + 2 / math.sqrt(3), rel=1e-14)
    assert gcd_sum_integers([1, 2, 3], 0.5) == pytest.approx(6.3854115, abs=1e-6)


def test_gcd_sum_integers_validation():
    with pytest.raises(DomainError):
        gcd_sum_integers([2, 2], 0.5)
    with pytest.raises(DomainError):
        gcd_sum_integers([0], 0.5)


@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=12, unique=True),
    st.sampled_from((0.5, 0.7, 1.0)),
)
def test_integer_and_multiindex_forms_agree(ns, alpha):
    direct = gcd_sum_integers(ns, alpha)
    lifted = gcd_sum(PrimePowerWeights(alpha), index_set_from_integers(ns))
    assert lifted == pytest.approx(direct, rel=1e-10)


def test_lcm_closure_examples():
    assert lcm_closure(IndexSet([zero])) == IndexSet([zero])
    single = IndexSet([MultiIndex({2: 5, 70: 1})])
    assert lcm_closure(single) == single
    assert lcm_closure(IndexSet([e1, e2])) == IndexSet([e1, e2, e1 + e2])
    assert lcm_closure(IndexSet([zero, e1, e2])) == IndexSet([zero, e1, e2, e1 + e2])


def test_lcm_closure_exponent_cap():
    capped = IndexSet([MultiIndex({1: 30_000}), e2])
    assert lcm_closure(capped) == IndexSet([*capped, MultiIndex({1: 30_000, 2: 1})])
    with pytest.raises(DomainError):
        lcm_closure(IndexSet([MultiIndex({1: 30_001})]))


@pytest.mark.parametrize("k", [10, 12])
def test_lcm_closure_of_cube_is_cube(k):
    cube = cube_construction(k)
    assert lcm_closure(cube) == cube


# Exponents of 10^4 on positions 1..5 make the packed key 5 * 14 = 70 bits
# wide, so these sets always take the byte-row keys; the mixed sets (at most
# 12 * 2 bits) always take packed keys, and the square-free sets on up to 70
# positions take either.  Square-free sets of up to 40 members on at most 6
# positions take the subset-lattice path whenever m 2^m < N^2.
_SPIKES = tuple(MultiIndex({j: 10**4}) for j in range(1, 6))
_CLOSURE_INPUTS = st.one_of(
    st.lists(st.integers(0, (1 << 70) - 1), min_size=1, max_size=12, unique=True).map(
        lambda masks: IndexSet(map(from_mask, masks))
    ),
    st.lists(st.integers(0, 63), min_size=1, max_size=40, unique=True).map(
        lambda masks: IndexSet(map(from_mask, masks))
    ),
    index_sets(max_index=12, max_exponent=3, max_n=12),
    st.lists(multi_indices(max_index=8, max_exponent=10**4), max_size=8).map(
        lambda members: IndexSet({*members, *_SPIKES})
    ),
)


@given(_CLOSURE_INPUTS)
@example(IndexSet(from_mask(x) for x in (0, (1 << 35) - 1, ((1 << 35) - 1) << 35, 0x5555 << 50)))
@example(IndexSet(from_mask(x) for x in (3, 5, 1 << 62, 1 << 69)))
def test_lcm_closure_matches_brute_force(B):
    closure = lcm_closure(B)
    assert [m.items for m in closure] == sorted(brute_lcm_closure(B.members))


@pytest.mark.parametrize("lattice", [True, False])
def test_lcm_closure_paths_agree(monkeypatch, lattice):
    monkeypatch.setattr(gcdsum_module, "_lattice_cheaper", lambda n, m: lattice)
    rng = random.Random(8)
    for m in (1, 3, 7, 12):
        for size in (1, 5, 40):
            masks = rng.sample(range(1 << m), min(size, 1 << m))
            B = IndexSet({from_mask(x << rng.randrange(3)) for x in masks})
            closure = lcm_closure(B)
            assert [a.items for a in closure] == sorted(brute_lcm_closure(B.members))


def test_lcm_closure_lattice_cost_model():
    # cubes from k = 1 take the lattice; N = 25 members on 16 positions do not
    assert gcdsum_module._lattice_cheaper(2, 1)
    assert gcdsum_module._lattice_cheaper(1 << 22, 22)
    assert not gcdsum_module._lattice_cheaper(25, 16)
    assert not gcdsum_module._lattice_cheaper(1 << 30, 23)


@given(index_sets(max_index=6, max_exponent=2, max_n=8))
def test_lcm_closure_properties(B):
    closure = lcm_closure(B)
    assert B.as_set() <= closure.as_set()
    n = len(B)
    assert len(closure) <= n * (n + 1) // 2


def test_closure_bound_examples():
    rhs, holds, s = lcm_closure_bound(half, IndexSet([zero]))
    assert rhs == 1.0 and holds and s == 1.0
    B = IndexSet([zero, e1])
    rhs, holds, s = lcm_closure_bound(half, B)
    t1 = half.weight_at(1)
    assert rhs == pytest.approx(1 + (1 + t1) ** 2, rel=1e-13)
    assert holds and s == gcd_sum(half, B)


@given(index_sets(max_index=8, max_exponent=3, max_n=10))
def test_closure_bound_holds(B):
    rhs, holds, s = lcm_closure_bound(half, B)
    assert holds
    assert s == gcd_sum(half, B)
    assert s <= rhs * (1 + 1e-12) + 1e-12


@pytest.mark.parametrize("path, lattice, sets", [
    (22, True, square_free_sets(max_index=9, max_n=12)),
    (22, False, square_free_sets(max_index=9, max_n=12)),
    ("split", False, square_free_sets(max_index=9, max_n=12)),
    (22, False, index_sets(max_index=7, max_exponent=3, max_n=10).filter(lambda B: not B.is_square_free())),
], ids=["lattice", "22", "split", "exponents"])
@settings(max_examples=50)
@given(st.data())
def test_closure_bound_matches_brute_force_on_every_pair_path(path, lattice, sets, data):
    # the subset lattice, or pair blocks of several closure rows each
    B = data.draw(sets)
    with kernel_path(path, _BLOCK_BUDGET=40, _lattice_cheaper=lambda n, m: lattice):
        assert gcdsum_module.LcmClosure(B).lattice is lattice
        rhs, _, _ = lcm_closure_bound(half, B)
    assert rhs == pytest.approx(brute_closure_majorant(half, B.members), rel=1e-12)


def test_closure_bound_cube_13_closed_form():
    # the majorant of the cube is prod_j (1 + (1 + t_j)^2); cube 13 takes the
    # subset lattice, a few milliseconds, where its 2^26 pairs would not
    B = cube_construction(13)
    assert gcdsum_module.LcmClosure(B).lattice
    rhs, holds, s = lcm_closure_bound(half, B)
    assert holds and s == gcd_sum(half, B)
    assert rhs == pytest.approx(
        math.prod(1.0 + (1.0 + half.weight_at(j)) ** 2 for j in range(1, 14)), rel=1e-13
    )


def test_gcd_matrix_entries():
    M = gcd_matrix(half, IndexSet([zero]))
    assert M.dense().tolist() == [[1.0]]
    M2 = gcd_matrix(half, IndexSet([zero, e1]))
    a = half.weight_at(1)
    assert np.allclose(M2.dense(), [[1, a], [a, 1]], rtol=1e-14)
    cube = gcd_matrix(half, cube_construction(2))
    t1, t2 = half.weight_at(1), half.weight_at(2)
    block1 = np.array([[1, t1], [t1, 1]])
    block2 = np.array([[1, t2], [t2, 1]])
    # members sort as (zero, e1, e1+e2, e2): kron over position 1 outer
    kron = np.kron(block1, block2)
    order = [0, 2, 3, 1]
    assert np.allclose(cube.dense(), kron[np.ix_(order, order)], rtol=1e-13)


def test_gcd_matrix_symmetric_unit_diagonal():
    B = IndexSet([zero, e1, e2, e1 + e2, MultiIndex({1: 2})])
    D = gcd_matrix(half, B).dense()
    assert np.allclose(D, D.T)
    assert np.allclose(np.diag(D), 1.0)
    assert (D > 0).all() and (D <= 1.0).all()


def test_spectral_norm_closed_forms():
    assert spectral_norm(gcd_matrix(half, IndexSet([zero]))) == pytest.approx(1.0)
    lam = spectral_norm(gcd_matrix(half, IndexSet([zero, e1])))
    assert lam == pytest.approx(1 + 1 / math.sqrt(2), rel=1e-12)
    for k in (2, 3, 5):
        lam = spectral_norm(gcd_matrix(half, cube_construction(k)))
        closed = math.prod(1 + half.weight_at(j) for j in range(1, k + 1))
        assert lam == pytest.approx(closed, rel=1e-10)


def test_spectral_norm_matches_dense_eigensolver():
    rng = random.Random(5)
    for _ in range(5):
        members = set()
        while len(members) < 12:
            members.add(MultiIndex({j: rng.randint(1, 2) for j in rng.sample(range(1, 8), rng.randint(0, 5))}))
        M = gcd_matrix(half, IndexSet(members))
        lam = spectral_norm(M)
        assert lam == pytest.approx(float(np.linalg.eigvalsh(M.dense())[-1]), rel=1e-10)


def test_matrix_free_matvec_agrees():
    rng = random.Random(11)
    members = set()
    while len(members) < 50:
        members.add(MultiIndex({j: 1 for j in rng.sample(range(1, 9), rng.randint(0, 5))}))
    B = IndexSet(members)
    reference = np.array(brute_pair_matrix(half, B.members))
    v = np.linspace(-1.0, 1.0, len(B))
    positive = np.linspace(0.5, 2.0, len(B))
    for path in KERNEL_PATHS:
        # above the dense cap matvec transforms or streams pair blocks, here
        # several per product
        with kernel_path(path, _DENSE_CAP=10, _BLOCK_BUDGET=600) as operator:
            M = gcd_matrix(half, B)
            assert np.allclose(M.matvec(v), reference @ v, rtol=1e-13, atol=1e-15)
            assert np.allclose(M.matvec(positive), reference @ positive, rtol=1e-12, atol=0)
            assert type(M._operator) is operator
            with pytest.raises(DomainError):
                M.dense()
            lam_free = spectral_norm(M)
        assert lam_free == pytest.approx(float(np.linalg.eigvalsh(reference)[-1]), rel=1e-11)


def test_divisor_matvec_above_dense_cap():
    rng = random.Random(17)
    members = set()
    while len(members) < 60:
        members.add(MultiIndex({j: rng.randint(1, 3) for j in rng.sample(range(1, 9), rng.randint(0, 4))}))
    B = IndexSet(members)
    reference = np.array(brute_pair_matrix(half, B.members))
    v = np.linspace(-1.0, 1.0, len(B))
    with kernel_path("divisor", _DENSE_CAP=10):
        M = gcd_matrix(half, B)
        assert isinstance(M._operator, gcdsum_module._Divisors)
        assert np.allclose(M.matvec(v), reference @ v, rtol=1e-13, atol=1e-14)
        with pytest.raises(DomainError):
            M.dense()
        lam = spectral_norm(M)
    assert lam == pytest.approx(float(np.linalg.eigvalsh(reference)[-1]), rel=1e-11)


def test_spectral_norm_13_cube_by_transform():
    M = gcd_matrix(half, cube_construction(13))
    assert M.n > gcdsum_module._DENSE_CAP
    closed = math.prod(1 + half.weight_at(j) for j in range(1, 14))
    assert spectral_norm(M) == pytest.approx(closed, rel=1e-10)
    assert isinstance(M._operator, gcdsum_module._Transform)


def test_power_iteration_failure_carries_state():
    M = gcd_matrix(half, IndexSet([zero, e1, e2]))
    with pytest.raises(ConvergenceError) as err:
        spectral_norm(M, tol=1e-30, max_iterations=2)
    assert err.value.estimate is not None
    assert err.value.residual is not None and err.value.residual > 0
    assert err.value.iterations == 2


def test_min_eigenvalue_closed_forms():
    assert min_eigenvalue(gcd_matrix(half, IndexSet([zero]))) == pytest.approx(1.0)
    mn = min_eigenvalue(gcd_matrix(half, IndexSet([zero, e1])))
    assert mn == pytest.approx(1 - 1 / math.sqrt(2), rel=1e-12)


def test_min_eigenvalue_positive_and_cross_checked():
    rng = random.Random(9)
    for _ in range(10):
        members = set()
        target = rng.randint(2, 25)
        while len(members) < target:
            members.add(MultiIndex({j: rng.randint(1, 2) for j in rng.sample(range(1, 9), rng.randint(0, 6))}))
        M = gcd_matrix(half, IndexSet(members))
        mn = min_eigenvalue(M)
        assert mn > 0
        np.linalg.cholesky(M.dense())  # independent positive-definiteness witness


def test_min_eigenvalue_lanczos_path(monkeypatch):
    rng = random.Random(13)
    members = set()
    while len(members) < 210:
        members.add(MultiIndex({j: 1 for j in rng.sample(range(1, 11), rng.randint(0, 7))}))
    B = IndexSet(members)
    reference = float(np.linalg.eigvalsh(np.array(brute_pair_matrix(half, B.members)))[0])
    # Lanczos gives the smallest eigenvalue only above the dense cap
    monkeypatch.setattr(gcdsum_module, "_DENSE_CAP", 100)
    for tol in (1e-8, 1e-13):
        mn = min_eigenvalue(gcd_matrix(half, B), tol=tol)
        assert abs(mn - reference) <= tol * reference


def test_lanczos_basis_blocks(monkeypatch):
    # a basis of 64-vector blocks and one of 3-vector blocks take the same steps
    rng = random.Random(13)
    B = IndexSet.from_masks(rng.sample(range(1 << 10), 210))
    spectrum = np.linalg.eigvalsh(gcd_matrix(half, B).dense())
    reference = float(spectrum[0]), float(spectrum[-1])
    monkeypatch.setattr(gcdsum_module, "_DENSE_CAP", 100)
    M = gcd_matrix(half, B)
    whole = min_eigenvalue(M), spectral_norm(M)
    monkeypatch.setattr(gcdsum_module, "_BASIS_ROWS", 3)
    blocked = min_eigenvalue(M), spectral_norm(M)
    for a, b, c in zip(whole, blocked, reference):
        assert a == pytest.approx(b, rel=1e-12)
        assert b == pytest.approx(c, rel=1e-12)


def test_ritz_pair_matches_dense_eigensolver():
    rng = np.random.default_rng(5)
    for _ in range(300):
        k = int(rng.integers(1, 60))
        diagonal = rng.normal(size=k) * 10.0 ** rng.uniform(-3, 3)
        off = np.abs(rng.normal(size=k - 1)) * 10.0 ** rng.uniform(-6, 1)
        theta, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, -1))
        scale = np.abs(theta).max()
        for i, lowest in ((0, True), (-1, False)):
            value, last = gcdsum_module._ritz(diagonal.tolist(), off.tolist(), lowest)
            assert abs(value - theta[i]) <= 8 * 2.0 ** -52 * scale
            assert abs(last) == pytest.approx(abs(vectors[-1, i]), rel=1e-6, abs=1e-12)


def test_near_degenerate_spectrum(monkeypatch):
    # t_1 = t_2 = a: eigenvalues 1 - a^2 and 1 + a^2/2 -+ sqrt(2 a^2 + a^4/4),
    # all three within 1.5e-6 of 1.  For {0, e1, e2}, closed under divisors,
    # the lowest by Lanczos on M^-1; for its translate by XOR with e1 + e2,
    # the same matrix up to order, on M
    a = 1e-6
    t = ExplicitWeights([a])
    spread = math.sqrt(2 * a * a + a ** 4 / 4)
    monkeypatch.setattr(gcdsum_module, "_DENSE_CAP", 1)
    translate = IndexSet([e1, e2, MultiIndex({1: 1, 2: 1})])
    for B, closed in ((IndexSet([zero, e1, e2]), True), (translate, False)):
        assert (gcdsum_module._inverse(t, B) is not None) == closed
        M = gcd_matrix(t, B)
        assert spectral_norm(M) == pytest.approx(1 + a * a / 2 + spread, rel=1e-14)
        assert min_eigenvalue(M) == pytest.approx(1 + a * a / 2 - spread, rel=1e-14)


@pytest.mark.parametrize("k, cap", [(8, None), (9, None), (10, None), (8, 100), (9, 100)],
                         ids=["8", "9", "10", "8-cap100", "9-cap100"])
def test_cube_spectrum_closed_forms(k, cap, monkeypatch):
    B = cube_construction(k)
    # the cube without its empty member is not closed under divisors
    opened = IndexSet.from_rows(B.universe(), B.exponent_matrix()[1:])
    reference = float(np.linalg.eigvalsh(gcd_matrix(half, opened).dense())[0])
    if cap is not None:
        # the top end by Lanczos on the transform matvec, the bottom by
        # Lanczos on M^-1 for the cube and on M for the opened cube
        monkeypatch.setattr(gcdsum_module, "_DENSE_CAP", cap)
    assert isinstance(gcdsum_module._inverse(half, B), gcdsum_module._InverseLattice)
    M = gcd_matrix(half, B)
    ts = [half.weight_at(j) for j in range(1, k + 1)]
    assert spectral_norm(M) == pytest.approx(math.prod(1 + x for x in ts), rel=1e-10)
    assert min_eigenvalue(M) == pytest.approx(math.prod(1 - x for x in ts), rel=1e-10)
    assert gcdsum_module._inverse(half, opened) is None
    assert min_eigenvalue(gcd_matrix(half, opened)) == pytest.approx(reference, rel=1e-10)


def _cli_min_eigenvalue(B, path, capsys) -> tuple[float, float]:
    """(`matrix --stat mineig` on B in process, its time in seconds)."""
    path.write_text("\n".join(B.member_strings()) + "\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["matrix", str(path), "--stat", "mineig"]) == 0
    elapsed = time.perf_counter() - start
    return json.loads(capsys.readouterr().out)["min_eigenvalue"], elapsed


@pytest.mark.parametrize("k", [10, 11, 12, 14])
def test_cube_min_eigenvalue_within_tol(k, tmp_path, capsys):
    # Lanczos on M^-1 meets min_eigenvalue's default tol of 1e-13 relative,
    # where the dense solve missed it on the 12-cube (3.6e-13)
    B = cube_construction(k)
    closed = math.prod(1 - half.weight_at(j) for j in range(1, k + 1))
    if k < 13:
        lowest = min_eigenvalue(gcd_matrix(half, B))
    else:
        lowest, elapsed = _cli_min_eigenvalue(B, tmp_path / "cube.txt", capsys)
        assert elapsed < 5.0
    assert abs(lowest - closed) <= 1e-13 * closed


def test_cube_13_min_eigenvalue_above_dense_cap(tmp_path, capsys):
    B = cube_construction(13)
    assert len(B) > gcdsum_module._DENSE_CAP
    lowest, elapsed = _cli_min_eigenvalue(B, tmp_path / "cube13.txt", capsys)
    assert elapsed < 5.0
    ts = [half.weight_at(j) for j in range(1, 14)]
    closed = math.prod(1 - x for x in ts)
    assert abs(lowest - closed) <= 1e-13 * closed
    # without its empty member the cube is not closed under divisors and its
    # lowest end takes Lanczos on M; its matrix is a principal submatrix of
    # the cube's, so by Cauchy interlacing that end lies between the cube's
    # two lowest eigenvalues, the second with t_13's factor 1 + t_13
    opened = IndexSet.from_rows(B.universe(), B.exponent_matrix()[1:])
    assert gcdsum_module._inverse(half, opened) is None
    lowest, _ = _cli_min_eigenvalue(opened, tmp_path / "open13.txt", capsys)
    second = closed * (1 + ts[-1]) / (1 - ts[-1])
    assert closed * (1 - 1e-12) <= lowest <= second * (1 + 1e-12)


@st.composite
def square_free_downsets(draw, max_m: int = 7):
    """`random_downset_reference` sets: 1 to 2^m members on m <= max_m positions."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, 1 << m))
    return IndexSet.from_masks(random_downset_reference(random.Random(draw(st.integers(0, 2 ** 32))), n, m))


@st.composite
def exponent_downsets(draw):
    """Every divisor of up to three members with exponents <= 2 on 4 positions."""
    tops = draw(st.lists(multi_indices(max_index=4, max_exponent=2), min_size=1, max_size=3))
    universe = sorted({j for top in tops for j in top.support()})
    rows = {divisor for top in tops
            for divisor in itertools.product(*(range(top.exponent(j) + 1) for j in universe))}
    return IndexSet.from_rows(universe, np.array(sorted(rows), dtype=np.int16).reshape(len(rows), -1))


INVERSE_PATHS = {"lattice": (gcdsum_module._InverseLattice, {"_INVERSE_LATTICE_NS": 0}),
                 "entries": (gcdsum_module._InverseDivisors, {"_XOR_TABLE_MAX_BITS": -1}),
                 "chosen": ((gcdsum_module._InverseLattice, gcdsum_module._InverseDivisors), {})}


def check_inverse_path(t, B, path):
    """On the inverse path's representation `path` (the cost model's choice
    for "chosen"), min_eigenvalue matches eigvalsh of the brute-force
    matrix, M (M^-1 v) = v, and the scale's logs sum to log det M (Smith's
    determinant)."""
    operator, forced = INVERSE_PATHS[path]
    reference = np.array(brute_pair_matrix(t, B.members))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gcdsum_module, "_DENSE_CAP", 0)  # every closed set takes the inverse
        for attr, value in forced.items():
            mp.setattr(gcdsum_module, attr, value)
        inverse = gcdsum_module._inverse(t, B)
        lowest = min_eigenvalue(gcd_matrix(t, B))
    assert isinstance(inverse, operator)
    assert lowest == pytest.approx(float(np.linalg.eigvalsh(reference)[0]), rel=1e-10)
    v = np.cos(np.arange(len(B)))
    assert np.linalg.norm(reference @ inverse.apply(v) - v) <= 1e-12 * np.linalg.norm(v)
    sign, logdet = np.linalg.slogdet(reference)
    assert sign == 1
    assert math.fsum(np.log(inverse.scale)) == pytest.approx(logdet, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("path", list(INVERSE_PATHS))
@settings(max_examples=40)
@given(B=square_free_downsets(), t=st.sampled_from([half, PrimePowerWeights(1.0)]))
def test_inverse_path_on_square_free_downsets(path, B, t):
    check_inverse_path(t, B, path)


@settings(max_examples=40)
@given(B=exponent_downsets(), t=st.sampled_from([half, PrimePowerWeights(1.0)]))
def test_inverse_path_on_exponent_downsets(B, t):
    check_inverse_path(t, B, "entries")


@given(B=st.one_of(square_free_sets(max_index=6, max_n=12), index_sets(max_index=4, max_exponent=2),
                   square_free_downsets(max_m=5), exponent_downsets()))
def test_inverse_taken_iff_closed_under_divisors(B):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gcdsum_module, "_DENSE_CAP", 0)
        inverse = gcdsum_module._inverse(half, B)
    assert (inverse is not None) == brute_is_divisor_closed(B.members)


def test_inverse_path_keys_wide_rows_by_bytes():
    # 1..300 over its 62 primes, and the star {0, {1}, ..., {400}}, need more
    # than 63 bits as packed keys; without 1, or the empty member, neither is
    # closed under divisors
    star = IndexSet.from_masks([0, *(1 << b for b in range(400))])
    for B in (index_set_from_integers(range(1, 301)), star):
        E = B.exponent_matrix()
        assert sum(int(e).bit_length() for e in E.max(axis=0)) > 63
        inverse = gcdsum_module._inverse(half, B)
        assert isinstance(inverse, gcdsum_module._InverseDivisors)
        M = gcd_matrix(half, B)
        v = np.cos(np.arange(len(B)))
        assert np.linalg.norm(M.dense() @ inverse.apply(v) - v) <= 1e-12 * np.linalg.norm(v)
        reference = float(np.linalg.eigvalsh(M.dense())[0])
        assert min_eigenvalue(M) == pytest.approx(reference, rel=1e-10)
        assert gcdsum_module._divisor_links(E[1:]) is None


def test_small_sets_skip_the_closure_test(monkeypatch):
    # the cost rule turns the cubes up to k = 7 down on their size alone
    def refuse(E):
        raise AssertionError("closure test on a small set")

    monkeypatch.setattr(gcdsum_module, "_divisor_links", refuse)
    for k in range(1, 8):
        closed = math.prod(1 - half.weight_at(j) for j in range(1, k + 1))
        assert min_eigenvalue(gcd_matrix(half, cube_construction(k))) == pytest.approx(closed, rel=1e-12)


def test_cost_rule_on_both_sides_of_the_crossover():
    # the subsets of random 6-position masks of the 12-cube: the dense solve
    # for 2 masks (at most 127 members), Lanczos on M^-1 over entries for 8
    # (over 200 members, as in the benchmark's sf_dense)
    rng = random.Random(4)
    for tops, operator in ((2, type(None)), (8, gcdsum_module._InverseDivisors)):
        masks = {0}
        for top in (sum(1 << b for b in rng.sample(range(12), 6)) for _ in range(tops)):
            sub = top
            while sub:  # every nonempty subset of top, in decreasing order
                masks.add(sub)
                sub = (sub - 1) & top
        B = IndexSet.from_masks(masks)
        M = gcd_matrix(half, B)
        assert isinstance(gcdsum_module._inverse(half, B), operator)
        reference = float(np.linalg.eigvalsh(M.dense())[0])
        assert min_eigenvalue(M) == pytest.approx(reference, rel=1e-10)


def test_inverse_path_failure_reports_the_lowest_end():
    # a Ritz value mu of M^-1 lies below its top, so 1/mu lies above lambda_min
    with pytest.raises(ConvergenceError) as err:
        min_eigenvalue(gcd_matrix(half, cube_construction(8)), tol=1e-30, max_iterations=2)
    closed = math.prod(1 - half.weight_at(j) for j in range(1, 9))
    assert closed < err.value.estimate < 1.0
    assert err.value.residual > 0 and err.value.iterations == 2


@pytest.mark.parametrize("cap", [None, 1])
@settings(max_examples=40)
@given(B=square_free_sets(max_index=8, max_n=12))
def test_spectrum_within_interlacing_bounds(cap, B):
    # the pair matrix is a principal submatrix of the Kronecker product of
    # [[1, t_j], [t_j, 1]] over the universe; cap 1 sends both ends to
    # Lanczos, the lowest on M^-1 for a set closed under divisors, else on M
    lo, hi = spectrum_interval(half, B)
    assert lo == pytest.approx(math.prod(1 - half.weight_at(j) for j in B.universe()))
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(gcdsum_module, "_DENSE_CAP", cap)
        M = gcd_matrix(half, B)
        assert lo * (1 - 1e-12) <= min_eigenvalue(M)
        assert spectral_norm(M) <= hi * (1 + 1e-12)


@given(B=index_sets(max_index=5, max_exponent=3, max_n=10))
def test_spectrum_interval_holds_for_exponent_sets(B):
    lo, hi = spectrum_interval(half, B)
    ev = np.linalg.eigvalsh(np.array(brute_pair_matrix(half, B.members)))
    assert lo * (1 - 1e-12) <= ev[0] and ev[-1] <= hi * (1 + 1e-12)


def test_group_by_support_examples():
    B = IndexSet([e1, MultiIndex({1: 2}), MultiIndex({1: 3})])
    groups = group_by_support(B)
    assert len(groups) == 1
    rep, block = groups[0]
    assert rep == e1 and len(block) == 3

    B2 = IndexSet([zero, e1, MultiIndex({1: 2}), e2])
    groups2 = {str(rep): len(block) for rep, block in group_by_support(B2)}
    assert groups2 == {"mi": 1, "mi 1:1": 2, "mi 2:1": 1}


@given(square_free_sets(max_index=6, max_n=8))
def test_group_by_support_square_free_singletons(B):
    groups = group_by_support(B)
    assert all(len(block) == 1 for _, block in groups)
    assert sum(len(block) for _, block in groups) == len(B)


def test_weighted_sf_form_examples():
    assert weighted_sf_form(half, IndexSet([e1]), [5]) == pytest.approx(5.0)
    reps = IndexSet([zero, e1])
    assert weighted_sf_form(half, reps, [1, 1]) == pytest.approx(gcd_sum(half, reps), rel=1e-14)
    t1 = half.weight_at(1)
    assert weighted_sf_form(half, reps, [4, 1]) == pytest.approx(5 + 4 * t1, rel=1e-14)


@pytest.mark.parametrize("path", PAIR_BLOCK_PATHS)
@settings(max_examples=50)
@given(square_free_sets(max_index=5, max_n=8), square_free_sets(max_index=9, max_n=8))
def test_cross_sum_square_free_matches_brute_force(path, A, B):
    with kernel_path(path, _BLOCK_BUDGET=40):
        value = cross_sum(half, A, B)
    assert value == pytest.approx(brute_cross_sum(half, A.members, B.members), rel=1e-12)


@pytest.mark.parametrize("path", PAIR_BLOCK_PATHS)
@settings(max_examples=50)
@given(index_sets(max_index=6, max_exponent=3, max_n=8), square_free_sets(max_index=9, max_n=8))
def test_cross_sum_mixed_exponents_matches_brute_force(path, A, B):
    with kernel_path(path):
        forward = cross_sum(half, A, B)
        backward = cross_sum(half, B, A)
    expected = brute_cross_sum(half, A.members, B.members)
    assert forward == pytest.approx(expected, rel=1e-12)
    assert backward == pytest.approx(expected, rel=1e-12)


def test_cross_sum_examples():
    t1, t2, t3 = (half.weight_at(j) for j in (1, 2, 3))
    # disjoint universes: every pair differs in both supports
    assert cross_sum(half, IndexSet([e1]), IndexSet([e2, e3])) == pytest.approx(
        t1 * t2 + t1 * t3, rel=1e-14
    )
    assert cross_sum(half, IndexSet([MultiIndex({1: 2})]), IndexSet([zero, e1])) == pytest.approx(
        t1**2 + t1, rel=1e-14
    )
    B = cube_construction(4)
    assert cross_sum(half, B, B) == gcd_sum(half, B)


@pytest.mark.parametrize("path", list(KERNEL_PATHS))
@settings(max_examples=50)
@given(square_free_sets(max_index=9, max_n=10), st.data())
def test_weighted_sf_form_matches_brute_force(path, reps, data):
    sizes = data.draw(st.lists(st.integers(1, 9), min_size=len(reps), max_size=len(reps)))
    with kernel_path(path, _BLOCK_BUDGET=40) as operator:
        assert type(gcdsum_module._operator(half, reps)) is operator
        value = weighted_sf_form(half, reps, sizes)
    assert value == pytest.approx(brute_weighted_form(half, reps.members, sizes), rel=1e-12)


def test_weighted_sf_form_validation():
    with pytest.raises(DomainError):
        weighted_sf_form(half, IndexSet([zero, e1]), [1])
    with pytest.raises(DomainError):
        weighted_sf_form(half, IndexSet([zero]), [0])


def test_support_grouping_ratio_reported():
    B = IndexSet([zero, e1, MultiIndex({1: 2}), e2, MultiIndex({1: 1, 2: 1})])
    ratio = support_grouping_ratio(half, B)
    assert math.isfinite(ratio) and ratio > 0


def test_cube_closed_form():
    assert cube_sum_closed_form(half, 1) == pytest.approx(2 + math.sqrt(2), rel=1e-14)
    t1, t2 = half.weight_at(1), half.weight_at(2)
    assert cube_sum_closed_form(half, 2) == pytest.approx((2 + 2 * t1) * (2 + 2 * t2), rel=1e-14)
    assert cube_sum_closed_form(half, 2) == pytest.approx(10.7708205, abs=1e-6)
    # vanishing-weight limit: the sum approaches the diagonal count 2^k
    tiny = PrimePowerWeights(30.0)
    assert cube_sum_closed_form(tiny, 8) == pytest.approx(2**8, rel=1e-8)


@settings(max_examples=30)
@given(st.integers(1, 8))
def test_cube_identity_small(k):
    direct = gcd_sum(half, cube_construction(k))
    assert direct == pytest.approx(cube_sum_closed_form(half, k), rel=1e-12)


@given(square_free_sets(max_index=6, max_n=8))
def test_rayleigh_sandwich_random(B):
    rb = rayleigh_bounds(half, B)
    assert rb.lower <= rb.spectral * (1 + 1e-10)
    assert rb.spectral <= rb.upper * (1 + 1e-10)
