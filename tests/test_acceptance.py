"""Acceptance suite: one test per criterion, each printing a PASS line.

Random inputs are generated from fixed seeds so every run exercises the same
instances.  Shared heavy artifacts (the randomized transform suite and the
exhaustive-search maximizers) are computed once per module.
"""

import math
import random
import time

import pytest

from gcdsums import (
    IndexSet,
    MultiIndex,
    PrimePowerWeights,
    completeness_step,
    cube_construction,
    cube_sum_closed_form,
    divisor_closure,
    doubled_weights,
    count_above_half,
    extremal_sf,
    gcd_matrix,
    gcd_row_sums,
    gcd_sum,
    gcd_sum_integers,
    index_set_from_integers,
    is_complete,
    lcm_closure_bound,
    min_eigenvalue,
    spectral_norm,
    support_tail_bound,
    tail_sum,
    bound_chain_report,
)
import gcdsums.gcdsum as gcdsum_module
from gcdsums.transforms import first_active_swap

half = PrimePowerWeights(0.5)


def random_square_free(rng, max_n=12, max_index=8):
    n = rng.randint(1, max_n)
    members = set()
    while len(members) < n:
        size = rng.randint(0, min(max_index, 6))
        members.add(MultiIndex({j: 1 for j in rng.sample(range(1, max_index + 1), size)}))
    return IndexSet(members)


def random_mixed(rng, max_n=12, max_index=8, max_exponent=3):
    n = rng.randint(1, max_n)
    members = set()
    while len(members) < n:
        size = rng.randint(0, min(max_index, 6))
        members.add(
            MultiIndex(
                {j: rng.randint(1, max_exponent) for j in rng.sample(range(1, max_index + 1), size)}
            )
        )
    return IndexSet(members)


@pytest.fixture(scope="module")
def transform_suite():
    """Criterion 3 workload: 10^4 seeded random square-free sets pushed to
    complete form, recording closure monotonicity and swap margins."""
    rng = random.Random(20260808)
    complete_sets = []
    closure_violations = 0
    swap_failures = 0
    recertified = 0
    swap_count = 0
    for _ in range(10_000):
        B = random_square_free(rng)
        closed, trace = divisor_closure(half, B)
        for step in trace.steps:
            if step.s_after < step.s_before - 1e-12:
                closure_violations += 1
        current = closed
        s_current = gcd_sum(half, current)
        while True:
            pair = first_active_swap(current)
            if pair is None:
                break
            current, strict = completeness_step(half, current, *pair)
            swap_count += 1
            if not strict:
                swap_failures += 1
            s_new = gcd_sum(half, current)
            if s_new - s_current < 1e-9:
                recertified += 1  # strictness was decided at 50 digits
            s_current = s_new
        complete_sets.append(current)
    return {
        "complete_sets": complete_sets,
        "closure_violations": closure_violations,
        "swap_failures": swap_failures,
        "recertified": recertified,
        "swap_count": swap_count,
    }


@pytest.fixture(scope="module")
def maximizer_suite():
    """Criterion 2 workload: every exhaustive maximizer for N <= 10, m <= 5,
    alpha in {0.5, 0.8, 1.0}."""
    results = []
    for alpha in (0.5, 0.8, 1.0):
        t = PrimePowerWeights(alpha)
        for m in range(1, 6):
            for n in range(1, min(10, 1 << m) + 1):
                report = extremal_sf(t, n, m)
                results.append((alpha, n, m, report.maximizers))
    return results


def test_criterion_01_cube_product_identity(monkeypatch):
    worst = 0.0
    elapsed_k14 = None
    default_path = gcdsum_module._transform_cheaper
    for k in range(1, 15):
        cube = cube_construction(k)
        closed = cube_sum_closed_form(half, k)
        # the direct O(N^2) sum over the XOR table, forced, then the default path
        monkeypatch.setattr(gcdsum_module, "_transform_cheaper", lambda n, m: False)
        start = time.perf_counter()
        direct = gcd_sum(half, cube)
        elapsed = time.perf_counter() - start
        monkeypatch.setattr(gcdsum_module, "_transform_cheaper", default_path)
        default = gcd_sum(half, cube)
        if k == 14:
            elapsed_k14 = elapsed
        for value in (direct, default):
            rel = abs(value - closed) / closed
            worst = max(worst, rel)
            assert rel <= 1e-10, f"k={k}: relative gap {rel}"
    assert elapsed_k14 < 120.0, f"k=14 took {elapsed_k14:.1f}s"
    print(f"PASS criterion 1: cube identity k<=14, direct and default paths, worst rel "
          f"{worst:.2e}, direct k=14 in {elapsed_k14:.2f}s")


def test_criterion_02_maximizers_complete(maximizer_suite):
    checked = 0
    for alpha, n, m, maximizers in maximizer_suite:
        assert maximizers, f"no maximizer for n={n}, m={m}, alpha={alpha}"
        for s in maximizers:
            assert is_complete(s), f"incomplete maximizer n={n} m={m} alpha={alpha}: {s!r}"
            checked += 1
    print(f"PASS criterion 2: {checked} exhaustive maximizers all complete")


def test_criterion_03_transform_monotonicity(transform_suite):
    assert transform_suite["closure_violations"] == 0
    assert transform_suite["swap_failures"] == 0
    print(
        "PASS criterion 3: 10^4 sets, closure monotone, "
        f"{transform_suite['swap_count']} swaps all strict "
        f"({transform_suite['recertified']} margins certified at 50 digits)"
    )


def test_criterion_04_pair_sum_majorant():
    rng = random.Random(41)
    worst = 0.0
    for i in range(10_000):
        if i % 2:
            B = random_square_free(rng)
        else:
            B = random_mixed(rng)
        rhs, holds = lcm_closure_bound(half, B)
        assert holds, f"majorant violated at {B!r}"
        worst = max(worst, gcd_sum(half, B) / rhs)
    print(f"PASS criterion 4: 10^4 sets, zero violations, max lhs/rhs {worst:.6f}")


def test_criterion_05_positive_definite():
    rng = random.Random(5150)
    worst = math.inf
    for _ in range(1_000):
        t = PrimePowerWeights(rng.choice((0.5, 1.0)))
        B = random_mixed(rng, max_n=40, max_index=9, max_exponent=2)
        mn = min_eigenvalue(gcd_matrix(t, B))
        worst = min(worst, mn)
        assert mn > 0, f"min eigenvalue {mn} at {B!r}"
        assert mn > -1e-10
    print(f"PASS criterion 5: 10^3 sets positive definite, min eigenvalue {worst:.3e}")


def test_criterion_06_integer_consistency():
    rng = random.Random(66)
    worst = 0.0
    for i in range(1_000):
        alpha = (0.5, 0.7, 1.0)[i % 3]
        ns = rng.sample(range(1, 10**6 + 1), rng.randint(1, 20))
        direct = gcd_sum_integers(ns, alpha)
        lifted = gcd_sum(PrimePowerWeights(alpha), index_set_from_integers(ns))
        rel = abs(direct - lifted) / direct
        worst = max(worst, rel)
        assert rel <= 1e-10
    print(f"PASS criterion 6: 10^3 integer sets agree, worst rel {worst:.2e}")


def test_criterion_07_rayleigh_sandwich():
    worst_cube = 0.0
    for k in range(1, 13):
        cube = cube_construction(k)
        rows = gcd_row_sums(half, cube)
        lam = spectral_norm(gcd_matrix(half, cube))
        s_over_n = float(math.fsum(rows)) / len(cube)
        assert s_over_n <= lam * (1 + 1e-10)
        assert lam <= float(rows.max()) * (1 + 1e-10)
        closed = math.prod(1 + half.weight_at(j) for j in range(1, k + 1))
        rel = abs(lam - closed) / closed
        worst_cube = max(worst_cube, rel)
        assert rel <= 1e-8, f"cube k={k} spectral gap {rel}"
    rng = random.Random(777)
    for _ in range(10):
        B = random_mixed(rng, max_n=200, max_index=10, max_exponent=2)
        rows = gcd_row_sums(half, B)
        lam = spectral_norm(gcd_matrix(half, B))
        assert float(math.fsum(rows)) / len(B) <= lam * (1 + 1e-10)
        assert lam <= float(rows.max()) * (1 + 1e-10)
    print(f"PASS criterion 7: Rayleigh sandwich holds, cube spectral worst rel {worst_cube:.2e}")


def test_criterion_08_bound_sandwich():
    margins = []
    for k in range(8, 17):
        n = 1 << k
        s = gcd_sum(half, cube_construction(k))
        logn = math.log(n)
        ll = math.log(logn)
        lll = math.log(ll)
        lower = n * math.exp(0.5 * math.sqrt(logn / ll))
        upper = n * math.exp(7.0 * math.sqrt(logn * lll / ll))
        assert lower <= s <= upper, f"k={k}: {lower} <= {s} <= {upper} fails"
        margins.append(s / lower)
    print(f"PASS criterion 8: cube sums inside the bound sandwich for k=8..16, "
          f"min S/lower {min(margins):.2f}")


def test_criterion_09_support_bound_suite(transform_suite, maximizer_suite):
    checked = 0
    for s in transform_suite["complete_sets"]:
        for m in s:
            holds, _ = support_tail_bound(s, m)
            assert holds, f"support bound failed for {m} in {s!r}"
            checked += 1
    for _, _, _, maximizers in maximizer_suite:
        for s in maximizers:
            for m in s:
                holds, _ = support_tail_bound(s, m)
                assert holds
                checked += 1
    print(f"PASS criterion 9: support bound holds for {checked} members")


def test_criterion_10_tail_estimate():
    gaps = {}
    for n in (10**4, 10**6, 10**9, 10**12):
        gaps[n] = tail_sum(n).scaled_gap
        assert gaps[n] <= 4.0, f"n={n}: scaled gap {gaps[n]}"
    print("PASS criterion 10: tail scaled gaps " +
          ", ".join(f"1e{int(math.log10(n))}:{g:.3f}" for n, g in gaps.items()))


def test_criterion_11_chain_certificates():
    reports = 0
    for alpha in (0.5, 1.0):
        t = PrimePowerWeights(alpha)
        for k in range(5, 11):
            report = bound_chain_report(t, cube_construction(k), 1.0)
            assert report.all_exact_hold(), (
                f"k={k}, alpha={alpha}: failed verdicts "
                f"{[name for name, ok in report.exact.items() if not ok]}"
            )
            assert report.ratios, "asymptotic ratios missing from the report"
            assert all(math.isfinite(v) for v in report.ratios.values())
            reports += 1
    print(f"PASS criterion 11: {reports} chain certificates, all exact verdicts true")


def test_criterion_12_doubled_weight_values():
    u = doubled_weights(half)
    expected = (1 / math.sqrt(2), 1 / math.sqrt(3), 2 / math.sqrt(5), 2 / math.sqrt(7))
    worst = max(abs(u.weight_at(j + 1) - v) for j, v in enumerate(expected))
    assert worst <= 1e-15
    assert count_above_half(half) == 2
    print(f"PASS criterion 12: doubled weights match printed values (gap {worst:.1e}), "
          "count above half = 2")
