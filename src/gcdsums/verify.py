"""The invariant suite behind `gcdsums verify`: one seeded check per acceptance
criterion.  The full suite runs every check at its criterion's count and bound,
as tests/test_acceptance.py does with each criterion's own seed; the quick
suite runs the same checks on fewer or smaller instances."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .bounds import bound_chain_report, support_tail_bounds, tail_sum
from .errors import ConvergenceError, DomainError
from .gcdsum import (IndexSet, _item_rows, cube_sum_closed_form, gcd_matrix, gcd_sum,
                     gcd_sum_integers, index_set_from_integers, lcm_closure_bound, min_eigenvalue,
                     rayleigh_bounds)
from .search import cube_construction, extremal_sf
from .transforms import MONOTONE_TOL, STRICT_MARGIN_FLOOR, is_complete, normalize_to_complete
from .weights import PrimePowerWeights, WeightSequence, count_above_half, doubled_weights

HALF = PrimePowerWeights(0.5)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    support_members: int = 0  # complete-set members the support tail bound was asserted on


class _Failed(Exception):
    """An invariant does not hold; the message is the check's detail."""


def _require(ok, detail: str) -> str:
    # a check repeated over many sets raises _Failed itself instead, so that
    # its message (a set's repr, a list) is built only when it fails
    if not ok:
        raise _Failed(detail)
    return detail


def _check(name: str):
    """check(seed, quick) -> CheckResult from a body returning detail[, support members];
    a solver or domain error raised inside the body fails this check alone."""
    def wrap(body):
        @functools.wraps(body)
        def check(seed: int, quick: bool) -> CheckResult:
            try:
                out = body(seed, quick)
            except _Failed as exc:
                return CheckResult(name, False, str(exc))
            except (ConvergenceError, DomainError) as exc:
                return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
            return CheckResult(name, True, *(out if isinstance(out, tuple) else (out,)))
        return check
    return wrap


def random_index_set(rng: random.Random, max_n=12, max_index=8, max_exponent=1) -> IndexSet:
    """1 to max_n distinct members on at most min(max_index, 6) of positions
    1..max_index each; exponents are drawn only when max_exponent > 1, and
    otherwise the members are kept as position masks."""
    n = rng.randint(1, max_n)
    if max_exponent <= 1:
        masks: set[int] = set()
        while len(masks) < n:
            positions = rng.sample(range(1, max_index + 1), rng.randint(0, min(max_index, 6)))
            masks.add(sum(1 << (j - 1) for j in positions))
        return IndexSet.from_masks(masks)
    members: set[tuple[tuple[int, int], ...]] = set()
    while len(members) < n:
        positions = rng.sample(range(1, max_index + 1), rng.randint(0, min(max_index, 6)))
        members.add(tuple(sorted({j: rng.randint(1, max_exponent) for j in positions}.items())))
    return IndexSet.from_rows(*_item_rows(members))


def _support_bound_members(B: IndexSet) -> int:
    holds, _ = support_tail_bounds(B)
    if not holds.all():
        raise _Failed(f"support bound fails for {B.member_strings()[holds.argmin()]} in {B!r}")
    return len(B)


@_check("cube_product_identity")
def check_cube_identity(seed: int, quick: bool):
    """Criterion 1: S over the k-cube equals prod(2 + 2 t_j)."""
    k_max = 8 if quick else 14
    worst = 0.0
    for k in range(1, k_max + 1):
        closed = cube_sum_closed_form(HALF, k)
        worst = max(worst, abs(gcd_sum(HALF, cube_construction(k)) - closed) / closed)
    return _require(worst <= 1e-10, f"k<={k_max}, worst relative gap {worst:.3e}")


@_check("maximizers_complete")
def check_maximizers_complete(seed: int, quick: bool):
    """Criteria 2 and 9: exhaustive maximizers are complete and meet the support bound."""
    alphas, m_max = ((0.5,), 3) if quick else ((0.5, 0.8, 1.0), 5)
    count = members = 0
    for alpha in alphas:
        for m in range(1, m_max + 1):
            for n in range(1, min(10, 1 << m) + 1):
                maximizers = extremal_sf(PrimePowerWeights(alpha), n, m).maximizers
                if not maximizers:
                    raise _Failed(f"no maximizer for n={n}, m={m}, alpha={alpha}")
                for s in maximizers:
                    if not is_complete(s):
                        raise _Failed(f"incomplete maximizer at alpha={alpha}: {s!r}")
                    members += _support_bound_members(s)
                count += len(maximizers)
    return f"{count} maximizers all complete, support bound on {members} members", members


@_check("transforms_monotone_complete")
def check_transforms(seed: int, quick: bool):
    """Criteria 3 and 9: closure never lowers S, each swap raises it strictly, and the
    fixed point is complete and meets the support bound."""
    rng = random.Random(seed)
    rounds = 150 if quick else 10_000
    swaps = recertified = members = 0
    for _ in range(rounds):
        B = random_index_set(rng)
        complete, trace = normalize_to_complete(HALF, B)
        for step in trace.steps:
            if step.strict is None:
                if not step.s_after >= step.s_before - MONOTONE_TOL:
                    raise _Failed(f"S dropped at {step.description} in {B!r}")
            else:
                if not step.strict:
                    raise _Failed(f"non-strict {step.description} in {B!r}")
                swaps += 1
                recertified += step.s_after - step.s_before < STRICT_MARGIN_FLOOR
        if not is_complete(complete):
            raise _Failed(f"fixed point of {B!r} not complete")
        members += _support_bound_members(complete)
    return (f"{rounds} sets, closure monotone, {swaps} swaps all strict ({recertified} "
            f"decided at 50 digits), support bound on {members} members"), members


@_check("pair_sum_majorant")
def check_closure_bound(seed: int, quick: bool):
    """Criterion 4: S stays below its square majorant over the lcm closure."""
    rng = random.Random(seed)
    rounds = 200 if quick else 10_000
    worst = 0.0
    for i in range(rounds):
        B = random_index_set(rng, max_exponent=1 if i % 2 else 3)
        rhs, holds, s = lcm_closure_bound(HALF, B)
        if not holds:
            raise _Failed(f"violated at {B!r}")
        worst = max(worst, s / rhs)
    return f"{rounds} sets, max lhs/rhs {worst:.6f}"


@_check("positive_definite")
def check_positive_definite(seed: int, quick: bool):
    """Criterion 5: the pair matrix of distinct members is positive definite."""
    rng = random.Random(seed)
    rounds = 100 if quick else 1_000
    worst = math.inf
    for _ in range(rounds):
        t = PrimePowerWeights(rng.choice((0.5, 1.0)))
        B = random_index_set(rng, max_n=40, max_index=9, max_exponent=2)
        worst = min(worst, min_eigenvalue(gcd_matrix(t, B)))
        if not worst > 0:
            raise _Failed(f"min eigenvalue {worst:.3e} at {B!r}")
    return f"{rounds} sets, min eigenvalue {worst:.3e}"


@_check("integer_consistency")
def check_integer_consistency(seed: int, quick: bool):
    """Criterion 6: the integer GCD sum equals S over the lifted multi-indices.

    The full suite adds sets of 200 integers, which take the divisor
    factorization where the small sets take exponent blocks."""
    rng = random.Random(seed)
    rounds, top, large = (100, 10 ** 5, 0) if quick else (1_000, 10 ** 6, 20)
    worst = 0.0
    for i in range(rounds + large):
        alpha = (0.5, 0.7, 1.0)[i % 3]
        ns = rng.sample(range(1, top + 1), 200 if i >= rounds else rng.randint(1, 20))
        direct = gcd_sum_integers(ns, alpha)
        lifted = gcd_sum(PrimePowerWeights(alpha), index_set_from_integers(ns))
        worst = max(worst, abs(direct - lifted) / direct)
        if not worst <= 1e-10:
            raise _Failed(f"gap {worst:.3e} at {ns}")
    sizes = f", {large} of 200" if large else ""
    return f"{rounds} sets of integers up to {top}{sizes}, worst gap {worst:.3e}"


def spectrum_interval(t: WeightSequence, B: IndexSet) -> tuple[float, float]:
    """(lo, hi) holding every eigenvalue of B's pair matrix.

    The matrix is a principal submatrix of the Kronecker product over B's
    universe of the matrices [t_j^|x - y|] over the exponents x, y in 0..e_j,
    e_j the largest exponent B uses at position j.  By Cauchy interlacing its
    eigenvalues lie between the products of their extreme eigenvalues: 1 -+ t_j
    for e_j = 1, and for any e_j within (1 - t_j)/(1 + t_j) and its inverse,
    the range of the Kac-Murdock-Szego symbol.  A square-free set gets
    [prod (1 - t_j), prod (1 + t_j)], both ends attained by the cube.
    """
    w = t.weights_for(B.universe())
    square_free = B.exponent_matrix().max(axis=0) == 1
    lo = np.where(square_free, 1.0 - w, (1.0 - w) / (1.0 + w))
    hi = np.where(square_free, 1.0 + w, (1.0 + w) / (1.0 - w))
    return float(np.prod(lo)), float(np.prod(hi))


@_check("rayleigh_sandwich")
def check_rayleigh(seed: int, quick: bool):
    """Criterion 7: S/N <= lambda_max <= max row sum; on cubes lambda_max = prod(1 + t_j).
    Both ends of the spectrum lie in `spectrum_interval`."""
    def sandwiched(B):
        rb = rayleigh_bounds(HALF, B)
        lo, hi = spectrum_interval(HALF, B)
        lowest = min_eigenvalue(gcd_matrix(HALF, B))
        return rb, (rb.lower <= rb.spectral * (1 + 1e-10) and rb.spectral <= rb.upper * (1 + 1e-10)
                    and lo * (1 - 1e-10) <= lowest and rb.spectral <= hi * (1 + 1e-10))
    k_max, max_n = (6, 30) if quick else (12, 200)
    worst = 0.0
    for k in range(1, k_max + 1):
        rb, ok = sandwiched(cube_construction(k))
        closed = math.prod(1 + HALF.weight_at(j) for j in range(1, k + 1))
        worst = max(worst, abs(rb.spectral - closed) / closed)
        _require(ok and worst <= 1e-8, f"cube k={k}, spectral gap {worst:.3e}")
    rng = random.Random(seed)
    for _ in range(10):
        B = random_index_set(rng, max_n=max_n, max_index=10, max_exponent=2)
        if not sandwiched(B)[1]:
            raise _Failed(f"random set {B!r}")
    return f"cubes k<={k_max} (spectral worst rel {worst:.2e}), 10 sets of <= {max_n} members"


@_check("bound_sandwich")
def check_bound_sandwich(seed: int, quick: bool):
    """Criterion 8: on cubes, N exp(0.5 sqrt(L / LL)) <= S <= N exp(7 sqrt(L LLL / LL))."""
    ks = range(8, 10) if quick else range(8, 17)
    worst = math.inf
    for k in ks:
        n, s = 1 << k, gcd_sum(HALF, cube_construction(k))
        logn, ll = math.log(n), math.log(math.log(n))
        lower = n * math.exp(0.5 * math.sqrt(logn / ll))
        upper = n * math.exp(7.0 * math.sqrt(logn * math.log(ll) / ll))
        _require(lower <= s <= upper, f"k={k}: {lower} <= {s} <= {upper} fails")
        worst = min(worst, s / lower)
    return f"cubes k={ks.start}..{ks.stop - 1}, min S/lower {worst:.2f}"


@_check("tail_scaled_gap")
def check_tail_gap(seed: int, quick: bool):
    """Criterion 10: the tail estimate's scaled gap stays at most 4."""
    exponents = (4, 6) if quick else (4, 6, 9, 12)
    gaps = [tail_sum(10 ** e).scaled_gap for e in exponents]
    return _require(max(gaps) <= 4.0, "scaled gaps " + ", ".join(
        f"1e{e}:{g:.3f}" for e, g in zip(exponents, gaps)))


@_check("chain_certificates")
def check_chain_certificates(seed: int, quick: bool):
    """Criterion 11: the chain certificate's exact verdicts hold and its ratios are finite."""
    alphas, ks = ((0.5,), range(5, 7)) if quick else ((0.5, 1.0), range(5, 11))
    for alpha in alphas:
        for k in ks:
            report = bound_chain_report(PrimePowerWeights(alpha), cube_construction(k), 1.0)
            failed = [name for name, ok in report.exact.items() if not ok]
            _require(not failed, f"k={k}, alpha={alpha}: failed verdicts {failed}")
            _require(report.ratios and all(map(math.isfinite, report.ratios.values())),
                     f"k={k}, alpha={alpha}: asymptotic ratios missing or not finite")
    return f"{len(alphas) * len(ks)} certificates, all exact verdicts true"


@_check("doubled_weights_values")
def check_doubled_weights(seed: int, quick: bool):
    """Criterion 12: the doubled weights match the paper's printed values."""
    u = doubled_weights(HALF)
    expected = (1 / math.sqrt(2), 1 / math.sqrt(3), 2 / math.sqrt(5), 2 / math.sqrt(7))
    gap = max(abs(u.weight_at(j + 1) - e) for j, e in enumerate(expected))
    return _require(gap <= 1e-15 and count_above_half(HALF) == 2,
                    f"first four gap {gap:.1e}, count above half {count_above_half(HALF)}")


ALL_CHECKS = (
    check_cube_identity, check_maximizers_complete, check_transforms, check_closure_bound,
    check_positive_definite, check_integer_consistency, check_rayleigh, check_bound_sandwich,
    check_tail_gap, check_chain_certificates, check_doubled_weights,
)


def run_suite(suite: str = "quick", seed: int = 0) -> list[CheckResult]:
    if suite not in ("quick", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    return [check(seed, suite == "quick") for check in ALL_CHECKS]
