import time

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import multi_indices, square_free_indices
from oracles import FIRST_PRIMES, lcm, primes_upto, trial_division

from gcdsums import (
    DomainError,
    MultiIndex,
    PrimeRangeError,
    PrimeTable,
    abs_diff,
    format_multiindex,
    from_integer,
    from_mask,
    is_square_free,
    leq,
    parse_multiindex,
    support,
    to_integer,
    to_mask,
)

zero = MultiIndex.zero()
e1 = MultiIndex.unit(1)
e2 = MultiIndex.unit(2)
e3 = MultiIndex.unit(3)


def test_abs_diff_examples():
    assert abs_diff(e2, e2) == zero
    assert abs_diff(e1, e1 + e2) == e2
    assert abs_diff(MultiIndex({1: 2, 2: 1}), MultiIndex({2: 3})) == MultiIndex({1: 2, 2: 2})


def test_lcm_examples():
    b = MultiIndex({1: 2, 2: 1})
    assert lcm(b, b) == b
    assert lcm(e1, e2) == e1 + e2
    assert lcm(MultiIndex({1: 2, 3: 1}), MultiIndex({1: 1, 2: 3})) == MultiIndex({1: 2, 2: 3, 3: 1})


def test_leq_examples():
    assert leq(zero, MultiIndex({5: 4}))
    assert leq(e1, e1 + e2)
    assert not leq(e1, e2)


def test_support_examples():
    assert support(zero) == frozenset()
    assert support(e3) == {3}
    assert support(MultiIndex({1: 2, 3: 1})) == {1, 3}


def test_square_free_examples():
    assert is_square_free(zero)
    assert is_square_free(e1 + e2)
    assert not is_square_free(MultiIndex({1: 2, 2: 1}))


@given(multi_indices(), multi_indices())
def test_abs_diff_symmetric(a, b):
    assert abs_diff(a, b) == abs_diff(b, a)


@given(multi_indices(), multi_indices())
def test_abs_diff_of_leq_is_subtraction(a, b):
    joined = lcm(a, b)
    assert abs_diff(a, joined) == joined - a


@given(multi_indices(), multi_indices(), multi_indices())
def test_lcm_algebra(a, b, c):
    assert lcm(a, b) == lcm(b, a)
    assert lcm(a, a) == a
    assert lcm(lcm(a, b), c) == lcm(a, lcm(b, c))
    assert leq(a, lcm(a, b))


def test_from_integer_examples():
    assert from_integer(1) == zero
    # oracle: bare trial division mapped through a hardcoded prime list
    for n in (12, 360, 2 * 5 * 29, 97, 1024, 9_699_690, 113**3):
        expected = {FIRST_PRIMES.index(p) + 1: e for p, e in trial_division(n).items()}
        assert from_integer(n) == MultiIndex(expected)


def test_to_integer_examples():
    assert to_integer(e1 + e3) == 10
    assert to_integer(zero) == 1
    assert to_integer(MultiIndex({1: 2, 2: 1})) == 12


def test_from_integer_rejects_zero():
    with pytest.raises(DomainError):
        from_integer(0)


@given(st.integers(1, 10**7))
def test_round_trip_random(n):
    assert to_integer(from_integer(n)) == n


def test_round_trip_large_deterministic():
    # composites near the top of the supported range with bounded factors; a
    # private table, so the sieve past 10^8 does not stay in the shared one
    table = PrimeTable()
    for n in (10**9, 999_999_999, 2**30 - 1, 6 * 10**8 + 4, 999_999_937 - 1, 123_456_789):
        assert to_integer(from_integer(n, table), table) == n


def test_index_set_from_integers_ranks_all_primes_in_one_call(monkeypatch):
    from gcdsums import IndexSet, index_set_from_integers
    from gcdsums.primes import DEFAULT_TABLE

    ns = [1, 2 * 999_983, 9_999_991 * 3, 7_919**2, 99_999_989, 1_000_003 * 999_983]
    expected = IndexSet([from_integer(n) for n in ns])
    calls = []
    ranks = DEFAULT_TABLE.ranks
    monkeypatch.setattr(DEFAULT_TABLE, "ranks", lambda ps: calls.append(ps) or ranks(ps))
    assert index_set_from_integers(ns) == expected
    assert calls == [[2, 3, 7_919, 999_983, 1_000_003, 9_999_991, 99_999_989]]


_SMALL_CEILING = 10 ** 6
_SMALL_TABLE = PrimeTable(ceiling=_SMALL_CEILING)
_RANK = {p: j for j, p in enumerate(primes_upto(_SMALL_CEILING), start=1)}


@given(st.integers(1, 10**12))
def test_from_integer_matches_trial_division(n):
    # a table with a 10^6 ceiling: about a third of these n are 10^6-smooth,
    # the rest must raise before the table grows past its ceiling
    factors = trial_division(n)
    if max(factors, default=1) > _SMALL_CEILING:
        with pytest.raises(PrimeRangeError):
            from_integer(n, _SMALL_TABLE)
    else:
        assert from_integer(n, _SMALL_TABLE) == MultiIndex(
            {_RANK[p]: e for p, e in factors.items()}
        )
    assert _SMALL_TABLE.limit <= _SMALL_CEILING


def test_from_integer_explicit_cases():
    assert from_integer(1, _SMALL_TABLE) == zero
    assert from_integer(2**62) == MultiIndex({1: 62})
    assert from_integer(3**39) == MultiIndex({2: 39})
    for p in (2, 997, 1009, 7919, 999_983):  # prime squares around the trial bound
        assert from_integer(p * p, _SMALL_TABLE) == MultiIndex({_RANK[p]: 2})
    assert from_integer(1009**3 * 1013, _SMALL_TABLE) == MultiIndex(
        {_RANK[1009]: 3, _RANK[1013]: 1}
    )
    # the two largest primes below 10^7 and below 10^8, with their ranks
    # pi(10^7) = 664579 and pi(10^8) = 5761455
    assert from_integer(9_999_991 * 9_999_973) == MultiIndex({664_579: 1, 664_578: 1})
    assert from_integer(9_999_991**2) == MultiIndex({664_579: 2})
    table = PrimeTable(ceiling=10**8)
    assert from_integer(99_999_989 * 99_999_971, table) == MultiIndex(
        {5_761_455: 1, 5_761_454: 1}
    )
    assert table.limit <= 10**8


def test_from_integer_out_of_range_fails_fast():
    # both factors lie above the 10^9 ceiling; trial division would run to 10^9
    table = PrimeTable()
    limit = table.limit
    start = time.perf_counter()
    with pytest.raises(PrimeRangeError, match="1000000009"):
        from_integer(1_000_000_007 * 1_000_000_009, table)
    assert time.perf_counter() - start < 1.0
    assert table.limit == limit


def test_canonical_order():
    # lexicographic on the sorted (position, exponent) items
    assert sorted([e2, e1, zero, e1 + e2]) == [zero, e1, e1 + e2, e2]
    assert MultiIndex({1: 1}) < MultiIndex({1: 2})


def test_text_form():
    assert format_multiindex(MultiIndex({1: 2, 3: 1})) == "mi 1:2 3:1"
    assert format_multiindex(zero) == "mi"
    assert parse_multiindex("mi 1:2 3:1") == MultiIndex({1: 2, 3: 1})
    assert parse_multiindex("mi") == zero


@given(multi_indices(max_index=12, max_exponent=5))
def test_text_round_trip(a):
    assert parse_multiindex(format_multiindex(a)) == a


@pytest.mark.parametrize(
    "bad",
    ["1:2", "mi 3:1 1:2", "mi 1:0", "mi 0:1", "mi x:1", "mi 1:2:3", "mi 1:99999999"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(DomainError):
        parse_multiindex(bad)


def test_constructor_drops_zero_exponents():
    assert MultiIndex({1: 0, 2: 1}) == e2


def test_constructor_rejects_bad_positions():
    with pytest.raises(DomainError):
        MultiIndex({0: 1})
    with pytest.raises(DomainError):
        MultiIndex({1: -1})


def test_subtraction_guard():
    with pytest.raises(DomainError):
        _ = e1 - e2
    assert (e1 + e2) - e1 == e2


def test_mask_examples():
    assert to_mask(zero) == 0 and from_mask(0) == zero
    assert to_mask(e1) == 1 and from_mask(1) == e1
    high = MultiIndex({3: 1, 65: 1, 130: 1})
    assert to_mask(high) == 1 << 2 | 1 << 64 | 1 << 129
    assert from_mask(1 << 2 | 1 << 64 | 1 << 129) == high


@given(square_free_indices(max_index=130))
def test_mask_round_trip(m):
    assert to_mask(m) == sum(2 ** (j - 1) for j in m.support())
    assert from_mask(to_mask(m)) == m


@given(st.integers(0, 2 ** 140))
def test_mask_round_trip_from_integers(x):
    assert to_mask(from_mask(x)) == x


def test_mask_rejects_out_of_scope():
    with pytest.raises(DomainError):
        to_mask(MultiIndex({2: 2}))
    with pytest.raises(DomainError):
        from_mask(-1)
