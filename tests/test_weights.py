import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import multi_indices
from oracles import FIRST_PRIMES

from gcdsums import (
    AuxiliaryWeights,
    DomainError,
    ExplicitWeights,
    MultiIndex,
    PrimePowerWeights,
    PrimeTable,
    count_above_half,
    doubled_weights,
    verify_decay,
)
from gcdsums.primes import sieve_upto

half = PrimePowerWeights(0.5)


def test_weight_at_examples():
    assert half.weight_at(1) == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert half.weight_at(2) == pytest.approx(1 / math.sqrt(3), rel=1e-15)
    assert PrimePowerWeights(1.0).weight_at(3) == pytest.approx(0.2, rel=1e-15)


def test_weights_decreasing():
    values = [half.weight_at(j) for j in range(1, 50)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0 < v < 1 for v in values)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
def test_weights_for_matches_prime_by_prime(alpha):
    # positions in the prefix of 12 251 primes and past it, in two intervals
    # of the counts
    t = PrimePowerWeights(alpha, table=PrimeTable())
    idx = [3, 1, 25, 12_251, 12_252, 400, 1, 97, 100_000, 12_252]
    oracle = PrimeTable()
    expected = np.array([oracle.prime(j) for j in idx], float) ** -alpha
    got = t.weights_for(idx)
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()
    assert t.weights_for([]).shape == (0,)


def test_weights_for_rejects_position_zero():
    # position 0 (or below) would otherwise wrap to the end of the table
    for idx in ([0], [5, 0, 2], [3, -1]):
        with pytest.raises(DomainError):
            half.weights_for(idx)


def test_alpha_must_be_positive():
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            PrimePowerWeights(alpha)


def test_weight_at_mp_rejects_positions_below_one_like_weight_at():
    # a position below 1 would index an explicit list from its end
    kinds = [half, ExplicitWeights([0.5, 0.4]), ExplicitWeights([0.5, 0.4], tail_ratio=0.5),
             doubled_weights(ExplicitWeights([0.5, 0.4])), doubled_weights(half),
             AuxiliaryWeights(ExplicitWeights([0.5, 0.4]), 10**6, 1.0)]
    for t in kinds:
        for j in (0, -1):
            for at in (t.weight_at, t.weight_at_mp):
                with pytest.raises(DomainError):
                    at(j)
        assert float(t.weight_at_mp(1)) == pytest.approx(t.weight_at(1), rel=1e-15)


def test_pow_examples():
    assert half.pow(MultiIndex.zero()) == 1.0
    assert half.pow(MultiIndex({1: 1, 2: 1})) == pytest.approx(1 / math.sqrt(6), rel=1e-14)
    assert half.pow(MultiIndex({1: 2})) == pytest.approx(0.5, rel=1e-14)


@given(multi_indices(), multi_indices())
def test_pow_additive(a, b):
    product = half.pow(a) * half.pow(b)
    assert half.pow(a + b) == pytest.approx(product, rel=1e-12)


def test_explicit_weights():
    t = ExplicitWeights([0.8, 0.5, 0.3])
    assert t.weight_at(2) == 0.5
    assert t.weight_at(10) == 0.3  # constant tail
    geo = ExplicitWeights([0.8, 0.5], tail_ratio=0.5)
    assert geo.weight_at(4) == pytest.approx(0.125, rel=1e-15)


def test_explicit_weights_validation():
    with pytest.raises(DomainError):
        ExplicitWeights([0.5, 0.5])
    with pytest.raises(DomainError):
        ExplicitWeights([1.2])
    with pytest.raises(DomainError):
        ExplicitWeights([])
    with pytest.raises(DomainError):
        ExplicitWeights([0.5], tail_ratio=1.5)


def test_doubled_weights_printed_values():
    u = doubled_weights(half)
    expected = (1 / math.sqrt(2), 1 / math.sqrt(3), 2 / math.sqrt(5), 2 / math.sqrt(7))
    for j, value in enumerate(expected, start=1):
        assert abs(u.weight_at(j) - value) <= 1e-15


def test_doubled_weights_branches():
    assert doubled_weights(ExplicitWeights([0.6])).weight_at(1) == 0.6
    assert doubled_weights(ExplicitWeights([0.3])).weight_at(1) == pytest.approx(0.6)


@given(st.integers(1, 60))
def test_doubled_weights_envelope(j):
    u = doubled_weights(half)
    base = half.weight_at(j)
    assert base <= u.weight_at(j) <= 2 * base
    assert u.weight_at(j) < 1


def test_count_above_half_examples():
    assert count_above_half(half) == 2
    assert count_above_half(PrimePowerWeights(1.0)) == 0  # 1/2 is not > 1/2
    assert count_above_half(PrimePowerWeights(0.4)) == 3


def test_count_above_half_constant_tail_rejected():
    with pytest.raises(DomainError):
        count_above_half(ExplicitWeights([0.9, 0.8]))
    assert count_above_half(ExplicitWeights([0.9, 0.8], tail_ratio=0.5)) == 2


def test_count_above_half_doubled():
    # doubled weights exceed 1/2 exactly where the base exceeds 1/4
    u = doubled_weights(half)
    expected = sum(1 for j in range(1, 100) if u.weight_at(j) > 0.5)
    assert count_above_half(u) == expected


def test_aux_lower_branch_is_identity():
    aux = AuxiliaryWeights(half, 10**9, 1.0)
    threshold = math.log(10**9) / math.log(2)
    assert threshold == pytest.approx(29.897, abs=0.01)
    for j in range(1, int(threshold) + 1):
        assert aux.weight_at(j) == half.weight_at(j)


def _aux_upper_oracle(n, c, j):
    # recompute the upper branch at 50 digits from its definition
    with mp.workdps(50):
        l1 = mp.log(n)
        l2 = mp.log(l1)
        l3 = mp.log(l2)
        return float(mp.sqrt(mp.mpf(c) / 6) * mp.sqrt(l3 / (l1 * l2)) * (mp.log(j) - l2))


def test_aux_upper_branch_values():
    aux = AuxiliaryWeights(half, 10**9, 1.0)
    v30 = _aux_upper_oracle(10**9, 1.0, 30)
    v100 = _aux_upper_oracle(10**9, 1.0, 100)
    assert v30 == pytest.approx(0.0201, abs=5e-5)
    assert v100 == pytest.approx(0.0854, abs=5e-5)
    assert aux.weight_at(30) == pytest.approx(v30, rel=1e-12)
    assert aux.weight_at(100) == pytest.approx(v100, rel=1e-12)


def test_aux_upper_branch_positive():
    for n in (21, 100, 10**6, 10**9):
        aux = AuxiliaryWeights(half, n, 1.0)
        j = math.floor(aux.threshold) + 1
        assert aux.weight_at(j) > 0


def test_aux_requires_n_at_least_21():
    with pytest.raises(DomainError):
        AuxiliaryWeights(half, 20, 1.0)


@pytest.mark.parametrize("n, c", [(math.inf, 1.0), (math.nan, 1.0), (1e6, math.inf), (1e6, math.nan),
                                  (-math.inf, 1.0), (1e6, -math.inf)])
def test_aux_refuses_non_finite_parameters(n, c):
    # an infinite c gave weight_at(100) = inf, outside (0, 1)
    with pytest.raises(DomainError, match="finite"):
        AuxiliaryWeights(half, n, c)


def test_aux_accepts_any_finite_n():
    assert AuxiliaryWeights(half, 10**400, 1.0).weight_at(1) == half.weight_at(1)


def test_verify_decay_prime_half():
    assert verify_decay(half, 10**5) <= 1.0


def test_weights_for_reads_counted_ranks_without_growing():
    table = PrimeTable()
    top = table.index_of(999_983)  # past the prefix: ranked by a window
    size, windows = len(table), table.windows_sieved
    got = PrimePowerWeights(0.5, table).weights_for([top, 1, top, 6542])
    # the ranked position is a lookup
    assert (len(table), table.windows_sieved) == (size, windows)
    dense = sieve_upto(1_000_000).astype(np.float64)
    assert got.tolist() == (dense[[top - 1, 0, top - 1, 6541]] ** -0.5).tolist()


def test_verify_decay_past_counted_ranks_reads_the_prefix():
    # positions 2..j past the prefix, j ranked by a window and none below
    # it: one `primes` call reads the prefix and sieves one window per
    # interval of the counts, keeping nothing per position
    table = PrimeTable()
    j = table.index_of(999_983)
    windows = table.windows_sieved
    tracemalloc.start()
    try:
        got = verify_decay(PrimePowerWeights(0.5, table), j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # intervals 1 to 7 of 2^17 numbers each; the one holding j as well,
    # since the map does not hold all of its positions
    assert table.windows_sieved - windows == 999_983 // (1 << 17)
    assert peak < 80 * j  # the per-position lists took about 110 bytes a position
    js = np.arange(2, j + 1, dtype=np.float64)
    oracle = sieve_upto(999_983)[1:].astype(np.float64) ** -0.5
    assert got == float(np.max(oracle * np.sqrt(js * np.log(js))))


def test_verify_decay_prime_one():
    t = PrimePowerWeights(1.0)
    # oracle: direct scan over the hardcoded prime list
    expected = max(
        math.sqrt(j * math.log(j)) / FIRST_PRIMES[j - 1] for j in range(2, 26)
    )
    got = verify_decay(t, 100)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.392470, abs=1e-5)  # attained at j=2


def test_verify_decay_grows_without_decay():
    t = ExplicitWeights([0.9])  # constant 0.9 via the single-value constant tail
    assert verify_decay(t, 1000) > verify_decay(t, 100) > 1.0


def test_verify_decay_monotone_in_range():
    values = [verify_decay(half, j) for j in (2, 10, 100, 1000)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_verify_decay_needs_two():
    with pytest.raises(DomainError):
        verify_decay(half, 1)
