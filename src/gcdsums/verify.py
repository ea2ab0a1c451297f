"""Self-contained invariant suite behind the `verify` CLI subcommand.

Each check runs a seeded randomized or closed-form experiment against the
library and reports pass/fail with a short detail string.  The quick suite
uses reduced counts; full matches the documented scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bounds import support_tail_bound, tail_sum
from .gcdsum import (
    IndexSet,
    cube_sum_closed_form,
    gcd_matrix,
    gcd_sum,
    gcd_sum_integers,
    index_set_from_integers,
    lcm_closure_bound,
    min_eigenvalue,
    rayleigh_bounds,
)
from .multiindex import MultiIndex
from .search import cube_construction
from .transforms import (
    MONOTONE_TOL,
    divisor_closure,
    is_complete,
    normalize_to_complete,
)
from .weights import PrimePowerWeights, count_above_half, doubled_weights


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def random_multiindex(rng: random.Random, max_index: int, max_exponent: int) -> MultiIndex:
    size = rng.randint(0, max_index)
    positions = rng.sample(range(1, max_index + 1), size) if size else []
    return MultiIndex({j: rng.randint(1, max_exponent) for j in positions})


def random_index_set(
    rng: random.Random,
    max_n: int,
    max_index: int,
    max_exponent: int = 1,
    min_n: int = 1,
) -> IndexSet:
    n = rng.randint(min_n, max_n)
    members: set[MultiIndex] = set()
    guard = 0
    while len(members) < n:
        members.add(random_multiindex(rng, max_index, max_exponent))
        guard += 1
        if guard > 100 * max_n:
            break
    return IndexSet(members)


def check_cube_identity(seed: int, quick: bool) -> CheckResult:
    t = PrimePowerWeights(0.5)
    k_max = 8 if quick else 10
    worst = 0.0
    for k in range(1, k_max + 1):
        direct = gcd_sum(t, cube_construction(k))
        closed = cube_sum_closed_form(t, k)
        worst = max(worst, abs(direct - closed) / closed)
    return CheckResult(
        "cube_product_identity",
        worst <= 1e-10,
        f"k<= {k_max}, worst relative gap {worst:.3e}",
    )


def check_closure_bound(seed: int, quick: bool) -> CheckResult:
    rng = random.Random(seed)
    t = PrimePowerWeights(0.5)
    rounds = 200 if quick else 2000
    for _ in range(rounds):
        B = random_index_set(rng, 12, 8, max_exponent=rng.choice((1, 3)))
        rhs, holds = lcm_closure_bound(t, B)
        if not holds:
            return CheckResult("pair_sum_majorant", False, f"violated at {B!r}")
    return CheckResult("pair_sum_majorant", True, f"{rounds} random sets")


def check_closure_monotone(seed: int, quick: bool) -> CheckResult:
    rng = random.Random(seed)
    t = PrimePowerWeights(0.5)
    rounds = 200 if quick else 2000
    for _ in range(rounds):
        B = random_index_set(rng, 12, 8)
        closed, trace = divisor_closure(t, B)
        for step in trace.steps:
            if step.s_after < step.s_before - MONOTONE_TOL:
                return CheckResult(
                    "divisor_closure_monotone", False, f"S dropped at {step.description}"
                )
    return CheckResult("divisor_closure_monotone", True, f"{rounds} random sets")


def check_swap_strict(seed: int, quick: bool) -> CheckResult:
    rng = random.Random(seed)
    t = PrimePowerWeights(0.5)
    rounds = 150 if quick else 1500
    steps = 0
    for _ in range(rounds):
        B = random_index_set(rng, 10, 7)
        current, trace = normalize_to_complete(t, B)
        swaps = [step for step in trace.steps if step.strict is not None]
        steps += len(swaps)
        for step in swaps:
            if not step.strict:
                return CheckResult("swap_strict_increase", False,
                                   f"non-strict at {step.description}")
        if not is_complete(current):
            return CheckResult("swap_strict_increase", False, "fixed point not complete")
    return CheckResult("swap_strict_increase", True, f"{steps} swaps over {rounds} sets")


def check_positive_definite(seed: int, quick: bool) -> CheckResult:
    rng = random.Random(seed)
    rounds = 100 if quick else 500
    worst = math.inf
    for _ in range(rounds):
        t = PrimePowerWeights(rng.choice((0.5, 1.0)))
        B = random_index_set(rng, 25, 8, max_exponent=rng.choice((1, 2)))
        worst = min(worst, min_eigenvalue(gcd_matrix(t, B)))
        if worst <= 0:
            return CheckResult("positive_definite", False, f"min eigenvalue {worst:.3e}")
    return CheckResult("positive_definite", True, f"{rounds} sets, min eigenvalue {worst:.3e}")


def check_integer_consistency(seed: int, quick: bool) -> CheckResult:
    rng = random.Random(seed)
    rounds = 100 if quick else 500
    worst = 0.0
    for _ in range(rounds):
        alpha = rng.choice((0.5, 0.7, 1.0))
        ns = rng.sample(range(1, 10 ** 6), rng.randint(1, 15))
        direct = gcd_sum_integers(ns, alpha)
        lifted = gcd_sum(PrimePowerWeights(alpha), index_set_from_integers(ns))
        worst = max(worst, abs(direct - lifted) / direct)
    return CheckResult(
        "integer_consistency", worst <= 1e-10, f"{rounds} sets, worst gap {worst:.3e}"
    )


def check_doubled_weights(seed: int, quick: bool) -> CheckResult:
    t = PrimePowerWeights(0.5)
    u = doubled_weights(t)
    expected = (1 / math.sqrt(2), 1 / math.sqrt(3), 2 / math.sqrt(5), 2 / math.sqrt(7))
    gap = max(abs(u.weight_at(j + 1) - e) for j, e in enumerate(expected))
    ok = gap <= 1e-15 and count_above_half(t) == 2
    return CheckResult("doubled_weights_values", ok, f"first four gap {gap:.1e}")


def check_rayleigh(seed: int, quick: bool) -> CheckResult:
    rng = random.Random(seed)
    t = PrimePowerWeights(0.5)
    for k in range(1, 7 if quick else 9):
        rb = rayleigh_bounds(t, cube_construction(k))
        closed = math.prod(1.0 + t.weight_at(j) for j in range(1, k + 1))
        if not (rb.lower <= rb.spectral * (1 + 1e-9) and rb.spectral <= rb.upper * (1 + 1e-9)):
            return CheckResult("rayleigh_sandwich", False, f"cube k={k}")
        if abs(rb.spectral - closed) > 1e-8 * closed:
            return CheckResult("rayleigh_sandwich", False, f"cube spectral gap at k={k}")
    for _ in range(10 if quick else 40):
        B = random_index_set(rng, 30, 8)
        rb = rayleigh_bounds(t, B)
        if not (rb.lower <= rb.spectral * (1 + 1e-9) and rb.spectral <= rb.upper * (1 + 1e-9)):
            return CheckResult("rayleigh_sandwich", False, f"random set {B!r}")
    return CheckResult("rayleigh_sandwich", True, "cubes and random sets")


def check_tail_gap(seed: int, quick: bool) -> CheckResult:
    ns = (1e4, 1e6) if quick else (1e4, 1e6, 1e9, 1e12)
    worst = max(tail_sum(n).scaled_gap for n in ns)
    return CheckResult("tail_scaled_gap", worst <= 4.0, f"worst scaled gap {worst:.3f}")


def check_support_bound(seed: int, quick: bool) -> CheckResult:
    rng = random.Random(seed)
    t = PrimePowerWeights(0.5)
    rounds = 60 if quick else 400
    for _ in range(rounds):
        B = random_index_set(rng, 10, 7)
        complete, _ = normalize_to_complete(t, B)
        for m in complete:
            holds, _ = support_tail_bound(complete, m)
            if not holds:
                return CheckResult("support_tail_bound", False, f"failed for {m}")
    return CheckResult("support_tail_bound", True, f"{rounds} normalized sets")


ALL_CHECKS = (
    check_cube_identity,
    check_closure_bound,
    check_closure_monotone,
    check_swap_strict,
    check_positive_definite,
    check_integer_consistency,
    check_doubled_weights,
    check_rayleigh,
    check_tail_gap,
    check_support_bound,
)


def run_suite(suite: str = "quick", seed: int = 0) -> list[CheckResult]:
    if suite not in ("quick", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    quick = suite == "quick"
    return [check(seed, quick) for check in ALL_CHECKS]
