"""Acceptance suite: each criterion runs its `gcdsums.verify` check at full scale
(as `verify --suite full` does) with the criterion's own seed and prints one PASS
line.  Criterion 9 rides on the checks of criteria 2 and 3; only criterion 1's
forced direct path is tested here."""

import functools
import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given

import gcdsums.gcdsum as gcdsum_module
from gcdsums import (DomainError, IndexSet, MultiIndex, PrimePowerWeights, cube_construction,
                     cube_sum_closed_form, from_integer, gcd_sum, index_set_from_integers, verify)

CRITERIA = {  # test name: (check, seed)
    "01_cube_product_identity": (verify.check_cube_identity, 0),
    "02_maximizers_complete": (verify.check_maximizers_complete, 0),
    "03_transform_monotonicity": (verify.check_transforms, 20260808),
    "04_pair_sum_majorant": (verify.check_closure_bound, 41),
    "05_positive_definite": (verify.check_positive_definite, 5150),
    "06_integer_consistency": (verify.check_integer_consistency, 66),
    "07_rayleigh_sandwich": (verify.check_rayleigh, 777),
    "08_bound_sandwich": (verify.check_bound_sandwich, 0),
    "10_tail_estimate": (verify.check_tail_gap, 0),
    "11_chain_certificates": (verify.check_chain_certificates, 0),
    "12_doubled_weight_values": (verify.check_doubled_weights, 0),
}


@functools.cache  # criterion 9 reuses the results of 2 and 3
def passed(name):
    check, seed = CRITERIA[name]
    result = check(seed, quick=False)
    assert result.ok, f"{result.name}: {result.detail}"
    return result


def criterion_test(name):
    return lambda: print(f"PASS criterion {int(name[:2])}: {passed(name).detail}")


# one named test per criterion, so each keeps its test id
globals().update({f"test_criterion_{name}": criterion_test(name) for name in list(CRITERIA)[1:]})


def test_criterion_01_cube_product_identity(monkeypatch):
    # the direct O(N^2) sum over the XOR table, forced; the check takes the default path
    monkeypatch.setattr(gcdsum_module, "_transform_cheaper", lambda n, m: False)
    half, worst = PrimePowerWeights(0.5), 0.0
    for k in range(1, 15):
        start = time.perf_counter()
        direct = gcd_sum(half, cube_construction(k))
        elapsed = time.perf_counter() - start
        closed = cube_sum_closed_form(half, k)
        worst = max(worst, abs(direct - closed) / closed)
        assert worst <= 1e-10, f"k={k}: relative gap {worst}"
    assert elapsed < 120.0, f"direct k=14 took {elapsed:.1f}s"
    monkeypatch.undo()
    print(f"PASS criterion 1: direct path worst rel {worst:.2e}, k=14 in {elapsed:.2f}s; "
          f"default path {passed('01_cube_product_identity').detail}")


def test_criterion_09_support_bound_suite():
    members = sum(passed(name).support_members
                  for name in ("02_maximizers_complete", "03_transform_monotonicity"))
    print(f"PASS criterion 9: support bound holds for {members} members")


def test_every_check_is_a_criterion():
    assert [check for check, _ in CRITERIA.values()] == list(verify.ALL_CHECKS)


def test_rayleigh_quick_seed_812():
    # one of its sets has 3 members with top eigenvalues 1.0000084 and 0.9999988
    assert verify.check_rayleigh(812, quick=True).ok


def _random_index_set_of_members(rng, max_n=12, max_index=8, max_exponent=1):
    # the draw as MultiIndex members, the construction that masks and rows replaced
    n = rng.randint(1, max_n)
    members = set()
    while len(members) < n:
        positions = rng.sample(range(1, max_index + 1), rng.randint(0, min(max_index, 6)))
        members.add(MultiIndex({j: rng.randint(1, max_exponent) if max_exponent > 1 else 1
                                for j in positions}))
    return IndexSet(members)


def test_random_index_set_masks_match_members():
    # same sets, and the same draws from rng, as the MultiIndex construction
    shapes = [{}, {"max_n": 40, "max_index": 9}, {"max_exponent": 2},
              {"max_n": 40, "max_index": 9, "max_exponent": 3}]
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        for i in range(40):
            kwargs = shapes[i % len(shapes)]
            assert verify.random_index_set(rng, **kwargs) == _random_index_set_of_members(ref, **kwargs)
            assert rng.getstate() == ref.getstate()


@given(st.lists(st.integers(1, 10**7), min_size=1, max_size=12), st.data())
def test_index_set_from_integers_matches_members(ns, data):
    ns = list(dict.fromkeys(ns))
    assert index_set_from_integers(ns) == IndexSet(map(from_integer, ns))
    repeated = ns + [data.draw(st.sampled_from(ns))]
    with pytest.raises(DomainError, match="distinct"):
        index_set_from_integers(data.draw(st.permutations(repeated)))
