import math
import random
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from hypothesis import given
import hypothesis.strategies as st

from oracles import FIRST_PRIMES, primes_upto, trial_division

import gcdsums.primes as primes_module
from gcdsums import DomainError, PrimeRangeError, PrimeTable, from_integer, to_integer
from gcdsums.primes import (DEFAULT_TABLE, _MARK, _marks, _odd_blocks, factorize, is_prime,
                            sieve_range, sieve_upto)


def is_prime_slow(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_sieve_matches_trial_division():
    primes = sieve_upto(1000)
    assert list(primes) == [n for n in range(1001) if is_prime_slow(n)]


def test_first_primes():
    table = PrimeTable()
    assert [table.prime(j) for j in range(1, 31)] == list(FIRST_PRIMES)
    assert table.primes(range(1, 31)).tolist() == list(FIRST_PRIMES)


def test_index_of_inverse():
    table = PrimeTable()
    for j in (1, 5, 25, 168, 1000, 12_251, 12_252, 100_000):
        assert table.index_of(table.prime(j)) == j


def test_prefix_is_interval_zero_of_the_counts():
    # the primes up to 2^17, whatever is asked later; windows above it have
    # their base primes and count 2
    table = PrimeTable()
    assert (table.limit, len(table)) == (1 << 17, _marks()[1]) == (1 << 17, 12_251)
    assert table.ranks([3, 1_000_003]) == [2, 78_499]
    assert table.prime(100_000) == 1_299_709
    assert (table.limit, len(table), table.windows_sieved) == (1 << 17, 12_251, 2)
    # a ceiling below 2^17 caps the prefix
    assert len(PrimeTable(ceiling=10_000)) == 1229


def test_index_of_rejects_composites():
    table = PrimeTable()
    for n in (1, 4, 100, 1001):
        with pytest.raises(DomainError):
            table.index_of(n)


def test_lazy_growth():
    # a rank past the prefix is one window, kept: asking again is a lookup
    table = PrimeTable()
    assert table.prime(100_000) == 1_299_709
    assert table.prime(100_000) == 1_299_709
    assert table.index_of(1_299_709) == 100_000
    assert table.windows_sieved == 1


def test_segmented_growth_matches_dense():
    # past 2^24, sixteen sieve blocks of 2^20 odd numbers and part of a
    # seventeenth; the table's windows give the same primes by rank
    dense = sieve_upto((1 << 24) + 5000)
    table = PrimeTable()
    ranks = np.r_[1:100, 12_240:12_260, len(dense) - 100 : len(dense) + 1]
    assert np.array_equal(table.primes(ranks), dense[ranks - 1])
    assert table.index_of(16_777_259) == np.searchsorted(dense, 16_777_259) + 1  # past 2^24


def test_table_stored_as_int32_matches_int64_sieve():
    # past 2^24: sixteen sieve blocks and part of a seventeenth
    limit = (1 << 24) + 300_000
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    reference = np.flatnonzero(flags).astype(np.int64)
    primes = sieve_upto(limit)
    assert sieve_upto(1000).dtype == primes.dtype == np.int32
    assert np.array_equal(primes.astype(np.int64), reference)


def test_int32_table_ranks_near_1e8():
    table = PrimeTable()
    assert table.index_of(99_999_989) == 5_761_455
    assert table.prime(5_761_455) == 99_999_989
    for n in (99_999_989, 2 * 99_999_989, 99_999_989 * 99_999_971, 3 ** 5 * 7 * 99_999_959,
              99_999_931 * 99_999_847, 2 ** 3 * 99_999_941 ** 2):
        assert to_integer(from_integer(n, table), table) == n
    # one window per call (99 999 931 and 99 999 847 share one); prime()
    # reads the rank that index_of found
    assert table.windows_sieved == 5


_REFERENCE_LIMIT = (1 << 22) + 5000
_REFERENCE = np.array(primes_upto(_REFERENCE_LIMIT), dtype=np.int64)


def reference_range(lo, hi):
    assert hi <= _REFERENCE_LIMIT
    return _REFERENCE[(_REFERENCE >= lo) & (_REFERENCE <= hi)]


def reference_ranks(ps):
    return [int(np.searchsorted(_REFERENCE, p)) + 1 for p in ps]


# the largest prime below 10^k and pi(10^k), k = 1..8
_PI_POWERS = [(7, 4), (97, 25), (997, 168), (9973, 1229), (99_991, 9592), (999_983, 78_498),
              (9_999_991, 664_579), (99_999_989, 5_761_455)]


def test_ranks_pi_of_powers_of_ten():
    table = PrimeTable()
    primes = [p for p, _ in _PI_POWERS]
    tracemalloc.start()
    try:
        assert table.ranks(primes) == [r for _, r in _PI_POWERS]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 99 991 lies in the 2^17 prefix; one window each above it, from the
    # shipped counts: no table to 10^8
    assert peak < 1 << 20
    assert table.windows_sieved == 3
    # the ranked primes are kept: no more windows, and prime() and primes()
    # read them
    assert table.ranks(primes[::-1]) == [r for _, r in _PI_POWERS[::-1]]
    assert [table.prime(r) for _, r in _PI_POWERS] == primes
    assert table.primes([r for _, r in _PI_POWERS]).tolist() == primes
    assert table.windows_sieved == 3


def test_ranks_above_the_prefix_never_grow_it():
    table = PrimeTable()
    assert table.ranks([131_071, 3]) == reference_ranks([131_071, 3])  # 2^17 - 1
    assert table.windows_sieved == 0
    # the first prime past the prefix takes a window like any other; it
    # shares interval 1 with 262 139
    asked = [131_101, 262_139, 1_000_003]
    assert table.ranks(asked) == reference_ranks(asked)
    assert (table.limit, table.windows_sieved) == (1 << 17, 2)


def test_rank_of_the_largest_prime_below_the_ceiling():
    table = PrimeTable()
    tracemalloc.start()
    try:
        assert table.ranks([999_999_937]) == [50_847_534]  # pi(10^9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one window of at most 2^16 odd numbers, not a sieve up to 10^9
    assert peak < 1 << 20
    assert table.prime(50_847_534) == 999_999_937
    assert table.index_of(999_999_937) == 50_847_534
    assert (table.windows_sieved, table.limit) == (1, 1 << 17)


def _near_marks(mark, top):
    """The primes nearest either side of every mark 2 k mark + 1 up to top:
    a window then starts at its own mark or runs the whole stretch from the
    mark before."""
    out = set()
    for k in range(1, top // (2 * mark) + 1):
        at = int(np.searchsorted(_REFERENCE, 2 * k * mark + 1))
        out.update(int(p) for p in _REFERENCE[max(at - 2, 0) : at + 2])
    return sorted(p for p in out if 1 << 17 < p <= top)


def _intervals(ps):
    """How many intervals of _MARK odd numbers the numbers ps fall in: one
    window each."""
    return len({p // 2 // _MARK for p in ps})


def test_ranks_near_every_mark_match_the_sieve():
    near = _near_marks(_MARK, 1 << 22)
    # together: a window per interval, from its mark to the last one there
    table = PrimeTable()
    assert table.ranks(near) == reference_ranks(near)
    assert table.windows_sieved == _intervals(near)
    # one at a time: a window from the mark just below, or the whole interval
    table = PrimeTable()
    assert [table.index_of(p) for p in near] == reference_ranks(near)
    assert (table.windows_sieved, table.limit) == (len(near), 1 << 17)


def test_primes_near_every_mark_match_the_sieve():
    # rank to prime: the last prime below each mark up to 2^22, the first
    # above it and the last of its interval, all within the reference
    marks = _marks()
    ranks = sorted({int(j) for k in range(1, 33) for j in (marks[k], marks[k] + 1, marks[k + 1])
                    if j <= len(_REFERENCE)})
    expected = _REFERENCE[np.array(ranks) - 1]
    intervals = {int(np.searchsorted(marks, j)) - 1 for j in ranks if j > marks[1]}
    # together: a window per interval
    table = PrimeTable()
    assert np.array_equal(table.primes(ranks), expected)
    assert table.windows_sieved == len(intervals) == 32
    # one at a time: a window per rank past the prefix, which prime() keeps
    table = PrimeTable()
    assert [int(table.primes([j])[0]) for j in ranks] == expected.tolist()
    assert [table.prime(j) for j in ranks] == expected.tolist()
    assert table.windows_sieved == 2 * sum(j > marks[1] for j in ranks)
    assert table.ranks(expected.tolist()) == ranks
    assert table.windows_sieved == 2 * sum(j > marks[1] for j in ranks)


@pytest.mark.parametrize("block", [777, 1000, 4096, 1 << 20])
def test_ranks_by_windows_match_the_sieve(monkeypatch, block):
    # blocks of 777 and 1000 odd numbers put marks inside blocks and block
    # edges inside windows; every prime asked for lies above the 2^17 prefix,
    # so every rank is a window
    monkeypatch.setattr(primes_module, "_BLOCK", block)
    rng = random.Random(block)
    table = PrimeTable()
    above = [int(p) for p in _REFERENCE[(_REFERENCE > 1 << 17) & (_REFERENCE < 2_000_000)]]
    first = sorted(rng.sample(above, 20))
    assert table.ranks(first) == reference_ranks(first)
    assert table.windows_sieved == _intervals(first)
    inside = rng.sample([p for p in _near_marks(_MARK, first[-1]) if p not in first], 24)
    inside += rng.sample([p for p in above if p < first[-1] and p not in inside + first], 24)
    windows = table.windows_sieved
    assert table.ranks(inside) == reference_ranks(inside)
    assert table.windows_sieved - windows == _intervals(inside)
    # ranked and new primes in one call: windows only for the new ones
    windows = table.windows_sieved
    later = [int(p) for p in _REFERENCE[(_REFERENCE > 2_000_000) & (_REFERENCE < 4_000_000)]]
    mixed = rng.sample(later, 10) + rng.sample(above, 10)
    assert table.ranks(mixed) == reference_ranks(mixed)
    assert table.windows_sieved - windows == _intervals(set(mixed) - {*first, *inside})
    # odd composites take a window; even numbers are refused without one
    for n in (1009 * 1013, 2 * 1_000_003, 2003 * 2099, 2 * 2_100_001):
        with pytest.raises(DomainError, match=f"{n} is not prime"):
            table.ranks([first[0], n])
    # every prime the map keeps reads back by rank
    for p in first + inside + mixed:
        assert table.prime(table.index_of(p)) == p
    assert table.limit == 1 << 17


def test_windows_start_at_their_own_mark(monkeypatch):
    # in both directions every window starts at its interval's mark, the odd
    # number 2 k _MARK + 1, whatever was asked before
    starts = []

    def recorded(first, last, primes=None, sieve=primes_module._odd_blocks):
        if primes is not None:  # a window, not the prefix
            starts.append(first)
        return sieve(first, last, primes)

    monkeypatch.setattr(primes_module, "_odd_blocks", recorded)
    table = PrimeTable()
    low = [300_007, 400_009]
    assert table.ranks(low) == reference_ranks(low)
    assert table.prime(100_000) == 1_299_709
    ranks = reference_ranks([2_000_003, 2_090_003, 4_000_037])
    assert table.primes(ranks).tolist() == [2_000_003, 2_090_003, 4_000_037]
    # 2 000 003 and 2 090 003 share interval 15
    assert starts == [k * _MARK for k in (2, 3, 9, 15, 30)]
    assert table.windows_sieved == 5


def test_ranks_refuse_primes_above_the_ceiling_and_non_primes():
    table = PrimeTable(ceiling=10 ** 6)
    with pytest.raises(PrimeRangeError):
        table.ranks([3, 1_000_003])
    for n in (-7, 0, 1, 4, 65_535, 999_999):
        with pytest.raises(DomainError, match=f"{n} is not prime"):
            table.ranks([n])
    assert table.ranks([]) == []
    # only 999 999, odd and above the prefix, took a window: composite
    assert table.windows_sieved == 1


def test_shipped_counts_are_packaged():
    with resources.files("gcdsums").joinpath("prime_counts.npy").open("rb") as f:
        counts = np.load(f, allow_pickle=False)
    assert counts.dtype == np.uint16
    assert counts.shape == (16_384,)
    assert int(counts.sum(dtype=np.int64)) == 105_097_565  # pi(2^31)


def test_shipped_counts_match_a_full_recount_to_1e8():
    intervals = -(-10 ** 8 // (2 * _MARK))
    counted = [1]  # the prime 2, then the odd primes interval by interval
    for _, block in _odd_blocks(0, intervals * _MARK - 1):
        counted += np.count_nonzero(block.reshape(-1, _MARK), axis=1).tolist()
    assert np.array_equal(_marks()[1 : intervals + 1], np.cumsum(counted)[1:])


def test_shipped_counts_match_random_intervals_above_1e8():
    counts = np.diff(_marks())
    rng = random.Random(27)
    first = -(-10 ** 8 // (2 * _MARK))
    for k in rng.sample(range(first, len(counts)), 256):
        span = 2 * _MARK
        assert len(sieve_range(k * span + 1, (k + 1) * span)) == counts[k], k


def test_ranks_up_to_2_31():
    table = PrimeTable(ceiling=2 ** 31 - 1)
    # pi(10^9) and pi(2^31), 2^31 - 1 a Mersenne prime
    assert table.ranks([999_999_937, 2_147_483_647]) == [50_847_534, 105_097_565]
    assert (table.windows_sieved, table.limit) == (2, 1 << 17)


@pytest.mark.parametrize("lo, hi", [
    (-5, 40), (0, 1), (1, 2), (2, 2), (3, 3), (4, 4), (9, 9), (13, 13), (13, 17), (1, 13),
    (5, 12), (10, 10_000), (288, 290), (289, 289), (15_015 * 2 - 10, 15_015 * 2 + 40),
    (2, 1 << 21), (1, (1 << 21) + 1), ((1 << 21) - 5000, _REFERENCE_LIMIT),
])
def test_sieve_range_edges(lo, hi):
    # 2^21 + 1 is the first odd number of the second block from 1, and the
    # last window crosses one block edge; 13 and below are the wheel's primes
    primes = sieve_range(lo, hi)
    assert primes.dtype == np.int32
    assert np.array_equal(primes, reference_range(lo, hi))


def test_sieve_range_random_windows():
    rng = random.Random(10)
    for _ in range(200):
        lo = rng.randrange(_REFERENCE_LIMIT)
        hi = min(lo + rng.choice((10, 1000, 100_000, 3_000_000)), _REFERENCE_LIMIT)
        assert np.array_equal(sieve_range(lo, hi), reference_range(lo, hi))


@pytest.mark.parametrize("block", [144, 145, 180, 181, 64, 1])
def test_sieve_range_prime_square_on_block_edge(monkeypatch, block):
    # from 1, 17^2 = 289 is odd number 144 and 19^2 = 361 number 180: blocks
    # of 144 and 180 put them first in a block, 145 and 181 last
    monkeypatch.setattr(primes_module, "_BLOCK", block)
    for lo, hi in ((1, 5000), (2, 4001), (288, 362), (289, 361), (7, 50)):
        assert np.array_equal(sieve_range(lo, hi), reference_range(lo, hi)), (lo, hi)


def test_sieve_range_empty_when_hi_below_lo():
    for lo, hi in ((10, 9), (3, 2), (100, -100), (1 << 20, 5)):
        primes = sieve_range(lo, hi)
        assert primes.dtype == np.int32 and primes.size == 0


def test_sieve_range_refuses_primes_past_int32():
    with pytest.raises(DomainError):
        sieve_range((1 << 31) - 10, 1 << 31)


def test_stored_table_is_read_only():
    # the prefix cannot be written; primes() hands out copies of it
    table = PrimeTable()
    for t in (table, DEFAULT_TABLE):
        assert not t._primes.flags.writeable
        with pytest.raises(ValueError):
            t._primes[0] = 4
        copy = t.primes([1, 2, 100_000])
        copy[:] = 4
        assert t.prime(1) == 2 and t.index_of(3) == 2
        assert t.primes([1, 2, 100_000]).tolist() == [2, 3, 1_299_709]


def test_ceiling_must_fit_int32():
    with pytest.raises(DomainError):
        PrimeTable(ceiling=1 << 31)


def test_ceiling_enforced():
    # the last rank below the ceiling reads back; the next one is refused,
    # alone or in a batch, without a window past the ceiling
    for ceiling, pi, last in ((10_000, 1229, 9973), (2 ** 31 - 1, 105_097_565, 2 ** 31 - 1)):
        table = PrimeTable(ceiling=ceiling)
        assert table.prime(pi) == last
        windows = table.windows_sieved
        for ask in (lambda: table.prime(pi + 1), lambda: table.primes([1, pi, pi + 1]),
                    lambda: table.prime(ceiling)):
            with pytest.raises(PrimeRangeError):
                ask()
        assert table.windows_sieved == windows
        with pytest.raises(DomainError):
            table.primes([3, 0])


def test_is_prime_matches_sieve():
    limit = 200_000
    primes = set(primes_upto(limit))
    assert [n for n in range(limit + 1) if is_prime(n)] == sorted(primes)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to every prime base up to 11, 13, 23 and 37
    for n, factors in (
        (2_152_302_898_747, (6763, 10627, 29947)),
        (3_474_749_660_383, (1303, 16927, 157543)),
        (3_825_123_056_546_413_051, (149491, 747451, 34233211)),
        (318_665_857_834_031_151_167_461, (399165290221, 798330580441)),
    ):
        assert n == math.prod(factors)
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1)
    assert not is_prime((2**31 - 1) * (2**61 - 1))
    assert is_prime(_PSI_13)  # where exactness ends


# the least strong pseudoprime to the first thirteen prime bases
_PSI_13 = 1_287_836_182_261 * 2_575_672_364_521


def test_probable_prime_above_exact_bound_only_raises():
    # a composite reported prime is a "factor" above the ceiling
    with pytest.raises(PrimeRangeError):
        from_integer(_PSI_13, PrimeTable(ceiling=10_000))


@given(st.integers(1, 10**12))
def test_factorize_matches_trial_division(n):
    assert factorize(n) == trial_division(n)


def test_factorize_large_factors():
    assert factorize(1) == {}
    assert factorize(2**62) == {2: 62}
    assert factorize(3**39) == {3: 39}
    assert factorize(99_999_989**2 * 9_999_991) == {99_999_989: 2, 9_999_991: 1}
    assert factorize(1_000_000_007 * 1_000_000_009) == {1_000_000_007: 1, 1_000_000_009: 1}
    assert factorize((2**31 - 1) * (2**61 - 1)) == {2**31 - 1: 1, 2**61 - 1: 1}
    with pytest.raises(DomainError):
        factorize(0)
