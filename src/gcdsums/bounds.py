"""Closed-form bound curves and numerical certification of the estimate chain.

The chain certificate walks the square-free upper-bound argument on a
concrete complete set: the square majorant over the lcm closure, a
Cauchy-Schwarz split against the auxiliary weights, Euler-product
dominations, the completeness-driven bound on high support positions, and
the tail-series comparison.  Steps that are exact inequalities are asserted
(as boolean verdicts); steps that are only asymptotic are reported as
measured ratios and never asserted.

The certificate reads rows and masks only, from the parsed set to the
report: the closure's sums and witness pairs come from `LcmClosure`, the
support bound of every member from one pass over the rows
(`support_tail_bounds`), the 50-digit recertification of a row from the
exponent rows, and each record's `beta` from `IndexSet.member_strings`.  No
`MultiIndex` is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import DomainError
from .gcdsum import IndexSet, LcmClosure, gcd_sum
from .multiindex import MultiIndex
from .transforms import is_complete
from .weights import (
    AuxiliaryWeights,
    WeightSequence,
    count_above_half,
    doubled_weights,
    loglog,
    logloglog,
    verify_decay,
)

_MIN_N = 21
_TAIL_DIRECT_END = 1 << 17
_TAIL_CHUNK = 1 << 12
_VERDICT_TOL = 1e-9
# a verdict whose float margin lies this close (relative) to its threshold,
# or within four times the sums' error bound if that is wider, is decided
# again at _CERTIFY_DPS digits
_RECERTIFY_MARGIN = 1e-12
_CERTIFY_DPS = 50


def _require_n(n: float) -> float:
    n = float(n)
    if n < _MIN_N:
        raise DomainError(f"n must be >= {_MIN_N} so the triple log is positive, got {n}")
    return n


def general_upper_curve(n: float, a: float) -> float:
    """exp(a * sqrt(log n * logloglog n / loglog n)); the general-set growth shape."""
    n = _require_n(n)
    return math.exp(a * math.sqrt(math.log(n) * logloglog(n) / loglog(n)))


def squarefree_upper_curve(n: float, c: float, kappa: float) -> float:
    """exp(kappa * sqrt(c) * sqrt(log n * logloglog n / loglog n))."""
    n = _require_n(n)
    if c < 0:
        raise DomainError(f"c must be >= 0, got {c}")
    return math.exp(kappa * math.sqrt(c) * math.sqrt(math.log(n) * logloglog(n) / loglog(n)))


def lower_curve(n: float, c: float) -> float:
    """exp(c * sqrt(log n / loglog n)); the known lower-bound growth shape."""
    n = _require_n(n)
    return math.exp(c * math.sqrt(math.log(n) / loglog(n)))


def support_tail_bound(
    B: IndexSet, beta: MultiIndex, n: int | None = None, tol: float = 1e-12
) -> tuple[bool, float]:
    """Bound on the high support positions of a member of a complete set.

    With j_1 < ... < j_k the supported positions >= log n / log 2, checks
    sum log j_i - k loglog n <= 3 log n.  Vacuously true when no position
    qualifies.  Completeness of B is the caller's responsibility.
    """
    if beta not in B:
        raise DomainError("beta must be a member of B")
    if n is None:
        n = len(B)
    n = float(n)
    threshold = math.log(n) / math.log(2.0) if n > 1 else 0.0
    qualifying = [j for j, _ in beta.items if j >= threshold]
    rhs = 3.0 * math.log(n) if n > 1 else 0.0
    if not qualifying:
        return True, rhs
    if n < 2:
        raise DomainError("a nonempty qualifying support needs n >= 2")
    lhs = math.fsum(math.log(j) for j in qualifying) - len(qualifying) * loglog(n)
    slack = rhs - lhs
    return slack >= -tol, slack


def support_tail_bounds(
    B: IndexSet, n: int | None = None, tol: float = 1e-12
) -> tuple[np.ndarray, np.ndarray]:
    """`support_tail_bound` for every member of B at once, in canonical
    order: the verdicts and slacks as arrays, from one pass over the rows
    (the positions >= log n / log 2 as columns, their logs summed by one
    matrix product)."""
    n = float(len(B) if n is None else n)
    threshold = math.log(n) / math.log(2.0) if n > 1 else 0.0
    rhs = 3.0 * math.log(n) if n > 1 else 0.0
    universe = np.array(B.universe(), dtype=np.float64)
    high = universe >= threshold
    qualifying = B.exponent_matrix()[:, high] > 0
    count = qualifying.sum(axis=1)
    if not count.any():
        return np.ones(len(B), dtype=bool), np.full(len(B), rhs)
    if n < 2:
        raise DomainError("a nonempty qualifying support needs n >= 2")
    slack = rhs - (qualifying @ np.log(universe[high]) - count * loglog(n))
    return slack >= -tol, slack


@dataclass(frozen=True)
class TailEstimate:
    value: float  # upper bound of the series: direct terms plus a midpoint remainder
    estimate: float  # logloglog n / loglog n
    scaled_gap: float  # |value - estimate| * loglog n
    width: float  # value minus a lower bound of the series


def _tail_antiderivative(x: float, a: float) -> float:
    # antiderivative of 1 / (x log x (log x - a)) is (1/a) log((log x - a)/log x)
    u = math.log(x)
    return math.log((u - a) / u) / a


def _tail_term(j, a: float):
    """The summand 1 / (j log j (log j - a)), at a float or an array of j."""
    u = np.log(j)
    return 1.0 / (j * u * (u - a))


def tail_sum(n: float) -> TailEstimate:
    """Series sum_{j > log n / log 2} 1 / (j log j (log j - loglog n)).

    Terms below J = 2^17 are summed directly.  Past log n the summand is a
    product of positive, decreasing, convex factors, hence convex, so each
    term is at most the integral over the unit interval centred on it and the
    remainder from J on is at most the integral from J - 1/2: `value` is an
    upper bound of the full series.  The trapezoid rule bounds the same
    remainder from below by f(J)/2 plus the integral from J; `width` is the
    distance between the two bounds.  Results are memoized per n.
    """
    return _tail_sum(_require_n(n))


@functools.lru_cache(maxsize=256)
def _tail_sum(n: float) -> TailEstimate:
    a = loglog(n)
    j0 = math.floor(math.log(n) / math.log(2.0)) + 1
    # one correctly rounded fsum over every term, fed a chunk at a time so
    # no array of all 2^17 terms is ever built; the chunk length is a
    # multiple of any SIMD width, so each term is computed as in one array
    direct = math.fsum(itertools.chain.from_iterable(
        _tail_term(np.arange(lo, min(lo + _TAIL_CHUNK, _TAIL_DIRECT_END), dtype=np.float64),
                   a).tolist()
        for lo in range(j0, _TAIL_DIRECT_END, _TAIL_CHUNK)
    ))
    end = float(_TAIL_DIRECT_END)
    # the antiderivative vanishes at infinity
    value = direct - _tail_antiderivative(end - 0.5, a)
    lower = direct + float(_tail_term(end, a)) / 2.0 - _tail_antiderivative(end, a)
    estimate = logloglog(n) / a
    return TailEstimate(
        value=value,
        estimate=estimate,
        scaled_gap=abs(value - estimate) * a,
        width=value - lower,
    )


@dataclass
class BetaRecord:
    """Per-closure-member quantities of the chain certificate."""

    beta: str
    support_size: int
    low_size: int  # positions <= log n / log 2
    high_size: int  # positions above the threshold
    inner_sum: float  # sum of t^(beta - member) over members below beta
    aux_sum: float  # same with the auxiliary weights
    ratio_sum: float  # same with t^2 / w
    euler_product: float  # prod over the support of (1 + w_j)
    high_weight_sum: float  # sum of w_j over the high positions
    witness_k: int
    witness_l: int


@dataclass
class BoundChainReport:
    """Everything the chain certificate measured, plus its verdicts.

    `exact` holds named boolean verdicts for the steps that are exact
    inequalities; `ratios` holds the measured values of the asymptotic steps
    (reported, never asserted).
    """

    n: int
    c: float
    weights: str
    s_value: float
    majorant_value: float
    gamma: float
    threshold: float
    closure_size: int
    low_count: int  # positions of the universe at or below the threshold
    high_count: int
    low_ratio_sum: float  # sum of t_i^2 / w_i over i = 1 .. floor(threshold)
    high_ratio_sum: float  # sum of t_j^2 / w_j over the high universe positions
    high_ratio_bound: float
    tail: TailEstimate
    exact: dict[str, bool] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)
    records: list[BetaRecord] = field(default_factory=list)

    def all_exact_hold(self) -> bool:
        return all(self.exact.values())

    def to_dict(self) -> dict:
        # shallow copies of the fields: dataclasses.asdict deep-copies every
        # record and costs over 20 times as much on a cube's closure
        return {**vars(self), "tail": vars(self.tail).copy(), "exact": dict(self.exact),
                "ratios": dict(self.ratios), "records": [vars(r).copy() for r in self.records]}


def _recertify_row(
    t: WeightSequence, aux: AuxiliaryWeights, universe: tuple[int, ...], members: np.ndarray,
    beta: np.ndarray, dps: int
) -> tuple:
    """inner, aux and ratio sums and the Euler product of one closure member,
    summed term by term at `dps` digits, with the Cauchy-Schwarz and Euler
    verdicts decided at that precision.  `members` are the set's rows and
    `beta` the closure member's row, over the universe."""
    support = np.flatnonzero(beta).tolist()
    with mp.workdps(dps):
        tv = [t.weight_at_mp(universe[c]) for c in support]
        wv = [aux.weight_at_mp(universe[c]) for c in support]
        sums = [[], [], []]
        for a in members[~members[:, beta == 0].any(axis=1)][:, support].tolist():
            rest = [q for q, e in enumerate(a) if not e]
            sums[0].append(mp.fprod(tv[q] for q in rest))
            sums[1].append(mp.fprod(wv[q] for q in rest))
            sums[2].append(mp.fprod(tv[q] ** 2 / wv[q] for q in rest))
        inner, aux_sum, ratio = (mp.fsum(v) for v in sums)
        euler = mp.fprod(1 + w for w in wv)
        one_tol = 1 + mp.mpf(_VERDICT_TOL)
        cs_ok = inner * inner <= aux_sum * ratio * one_tol
        euler_ok = aux_sum <= euler * one_tol
        return float(inner), float(aux_sum), float(ratio), float(euler), cs_ok, euler_ok


def bound_chain_report(t: WeightSequence, B: IndexSet, c: float) -> BoundChainReport:
    """Certify the estimate chain on a concrete complete square-free set.

    Preconditions: B complete and square-free, |B| >= 21, and c at least the
    measured decay constant of t over B's position range.

    The closure quantities come from `LcmClosure`: weighted zeta
    transforms on the subset lattice where `lcm_closure` takes its lattice
    path, blocks of (closure member, member) bitmask pairs otherwise.  Their
    sums are not compensated.  The inner, aux and ratio sums are within
    `LcmClosure.sum_error_bound` of the exact sums over the double
    weights: 2 (m + 1) 2^-53 relative on the lattice path (below 5.2e-15 at
    m = 22), (m + N + 1) 2^-53 on the pair path.  Euler products are
    np.prod over the support.  A row whose Cauchy-Schwarz or Euler margin lies
    within max(1e-12, 4 x that bound) of its threshold is summed again at
    50 digits, and its verdicts and fields come from that sum.
    """
    n = len(B)
    if n < _MIN_N:
        raise DomainError(f"precondition failed: |B| >= {_MIN_N} (got {n})")
    if not B.is_square_free():
        raise DomainError("precondition failed: B must be square-free")
    if not is_complete(B):
        raise DomainError("precondition failed: B must be complete")
    max_support = max(B.max_index(), 2)
    measured = verify_decay(t, max_support)
    if c < measured:
        raise DomainError(
            f"precondition failed: c={c} below the measured decay constant {measured:.6f}"
        )

    logn = math.log(n)
    ll = loglog(n)
    lll = logloglog(n)
    threshold = logn / math.log(2.0)
    kfloor = math.floor(threshold)
    aux = AuxiliaryWeights(t, n, c)

    masks = LcmClosure(B)
    closure = masks.closure
    universe = B.universe()  # the closure's too: joins add no position
    t_vals = t.weights_for(universe)
    w_vals = aux.weights_for(universe)
    log_t = np.log(t_vals)
    log_w = np.log(w_vals)
    log_tw = 2.0 * log_t - log_w  # log of t_j^2 / w_j
    high_positions = [i for i, j in enumerate(universe) if j > threshold]
    s_value = gcd_sum(t, B)

    shape = math.sqrt(logn * lll / ll)  # the recurring sqrt(log n * log3 / log2)
    high_sum_cap = math.sqrt(6.0 * c) * shape
    sum_t_low = math.fsum(t.weight_at(i) for i in range(1, kfloor + 1))

    inner_sums, inner_by_member = masks.subset_sums([t_vals, w_vals, np.exp(log_tw)])
    witness = masks.witnesses()

    low_cols = np.array([j <= threshold for j in universe], dtype=bool)
    euler = np.prod(np.where(masks.rows, 1.0 + w_vals, 1.0), axis=1)
    low_product = np.prod(np.where(masks.rows & low_cols, 1.0 + w_vals, 1.0), axis=1)
    support_size = masks.rows.sum(axis=1)
    low_size = masks.rows[:, low_cols].sum(axis=1)
    high_weight_sum = masks.rows[:, ~low_cols] @ w_vals[~low_cols]

    inner, aux_sum, ratio_sum = inner_sums.T
    cs_rhs = aux_sum * ratio_sum * (1.0 + _VERDICT_TOL)
    euler_rhs = euler * (1.0 + _VERDICT_TOL)
    cs_holds = inner * inner <= cs_rhs
    euler_holds = aux_sum <= euler_rhs
    window = max(_RECERTIFY_MARGIN, 4.0 * masks.sum_error_bound())
    near = (np.abs(cs_rhs - inner * inner) <= window * cs_rhs) | (
        np.abs(euler_rhs - aux_sum) <= window * euler_rhs
    )
    for r in np.flatnonzero(near).tolist():
        (inner[r], aux_sum[r], ratio_sum[r], euler[r], cs_holds[r], euler_holds[r]) = (
            _recertify_row(t, aux, universe, B.exponent_matrix(), masks.rows[r], _CERTIFY_DPS)
        )
    cs_ok = bool(cs_holds.all())
    euler_ok = bool(euler_holds.all())
    low_exp_ok = bool(np.all(low_product <= math.exp(sum_t_low) * (1.0 + _VERDICT_TOL)))
    high_ok = bool(np.all(high_weight_sum <= high_sum_cap + _VERDICT_TOL))
    positive = aux_sum[aux_sum > 0]
    max_log_aux_sum = float(np.log(positive).max()) if positive.size else -math.inf

    records = [
        BetaRecord(
            beta=beta,
            support_size=size,
            low_size=low,
            high_size=size - low,
            inner_sum=i,
            aux_sum=a,
            ratio_sum=q,
            euler_product=e,
            high_weight_sum=h,
            witness_k=wk,
            witness_l=wl,
        )
        for beta, size, low, i, a, q, e, h, (wk, wl) in zip(
            closure.member_strings(),
            support_size.tolist(),
            low_size.tolist(),
            inner.tolist(),
            aux_sum.tolist(),
            ratio_sum.tolist(),
            euler.tolist(),
            high_weight_sum.tolist(),
            witness.tolist(),
        )
    ]

    witness_ok = bool(support_tail_bounds(B, n)[0][witness].all())

    majorant = float(math.fsum(inner * inner))
    majorant_ok = s_value <= majorant * (1.0 + _VERDICT_TOL)

    # summation-order exchange: the per-closure-member ratio sums against the
    # per-member sums over closure elements above them
    sum_by_beta = math.fsum(ratio_sum)
    sum_by_member = math.fsum(inner_by_member)
    exchange_ok = abs(sum_by_beta - sum_by_member) <= _VERDICT_TOL * max(
        sum_by_beta, 1.0
    )

    prod_all = float(np.prod(1.0 + np.exp(log_tw)))
    member_euler_ok = bool(np.all(inner_by_member <= prod_all * (1.0 + _VERDICT_TOL)))

    low_ratio_sum = math.fsum(
        t.weight_at(i) ** 2 / aux.weight_at(i) for i in range(1, kfloor + 1)
    )
    low_universe = [i for i, j in enumerate(universe) if j <= threshold]
    low_prod = float(np.prod(1.0 + np.exp(log_tw[low_universe]))) if low_universe else 1.0
    j1_ok = low_prod <= math.exp(low_ratio_sum) * (1.0 + _VERDICT_TOL)

    tail = tail_sum(n)
    term_shape = math.sqrt(6.0 * c ** 3) * math.sqrt(logn * ll / lll)
    j = np.array(universe, dtype=np.float64)[high_positions]
    high_terms = t_vals[high_positions] ** 2 / w_vals[high_positions]
    cap = term_shape / (j * np.log(j) * (np.log(j) - ll))
    high_term_ok = bool(np.all(high_terms <= cap * (1.0 + _VERDICT_TOL)))
    high_ratio_sum = float(math.fsum(high_terms))
    high_ratio_bound = term_shape * tail.value
    high_sum_ok = high_ratio_sum <= high_ratio_bound * (1.0 + _VERDICT_TOL) + 1e-300

    # each direct tail term is dominated by the integral over the unit
    # interval to its left (the summand decreases past log n), and by the
    # integral over the unit interval centred on it (the summand is convex),
    # the inequality the midpoint remainder of tail_sum rests on; for the 64
    # terms j from j0 on, the antiderivative (`_tail_antiderivative`) is read
    # at the 130 points j0 - 1, j0 - 1/2, ..., j0 + 63 + 1/2
    j0 = kfloor + 1
    u = np.log(np.arange(2 * j0 - 2, 2 * j0 + 128) / 2.0)
    antiderivative = np.log((u - ll) / u) / ll
    g = _tail_term(np.arange(j0, j0 + 64, dtype=np.float64), ll)
    left = antiderivative[2::2] - antiderivative[:-2:2]
    mid = antiderivative[3::2] - antiderivative[1:-1:2]
    term_vs_integral_ok = bool(np.all(g <= left * (1.0 + _VERDICT_TOL)))
    term_vs_midpoint_ok = bool(np.all(g <= mid * (1.0 + _VERDICT_TOL)))

    exact = {
        "pair_sum_vs_majorant": majorant_ok,
        "cauchy_schwarz": cs_ok,
        "euler_product_aux": euler_ok,
        "low_product_vs_exp": low_exp_ok,
        "witness_support_bound": witness_ok,
        "high_weight_linear": high_ok,
        "summation_exchange": exchange_ok,
        "euler_product_ratio": member_euler_ok,
        "low_ratio_vs_exp": j1_ok,
        "high_term_bound": high_term_ok,
        "high_sum_vs_tail": high_sum_ok,
        "term_vs_integral": term_vs_integral_ok,
        "term_vs_midpoint": term_vs_midpoint_ok,
    }

    curve_low = c * math.sqrt(logn / ll)
    ratios = {
        "low_weight_sum_vs_curve": sum_t_low / curve_low,
        "max_log_aux_sum_vs_curve": max_log_aux_sum / (math.sqrt(6.0 * c) * shape),
        "low_ratio_sum_vs_curve": low_ratio_sum / curve_low,
        "high_ratio_sum_vs_curve": high_ratio_sum / (math.sqrt(6.0 * c) * shape)
        if high_positions
        else 0.0,
        "kappa_empirical": math.log(majorant / n) / (math.sqrt(c) * shape),
        "tail_gap_scaled": tail.scaled_gap,
    }

    return BoundChainReport(
        n=n,
        c=c,
        weights=t.label(),
        s_value=s_value,
        majorant_value=majorant,
        gamma=s_value / n,
        threshold=threshold,
        closure_size=len(closure),
        low_count=len(low_universe),
        high_count=len(high_positions),
        low_ratio_sum=low_ratio_sum,
        high_ratio_sum=high_ratio_sum,
        high_ratio_bound=high_ratio_bound,
        tail=tail,
        exact=exact,
        ratios=ratios,
        records=records,
    )


@dataclass(frozen=True)
class ReductionCheck:
    lhs: float
    rhs: float
    holds: bool


def doubled_weight_reduction_check(
    t: WeightSequence, B: IndexSet, candidate: IndexSet, tol: float = 1e-12
) -> ReductionCheck:
    """Opportunistic check of S(t, B) <= 2^(count above half) * S(doubled t, candidate).

    No construction of a suitable candidate is attempted; the caller supplies
    one and this merely evaluates both sides.
    """
    lhs = gcd_sum(t, B)
    rhs = 2.0 ** count_above_half(t) * gcd_sum(doubled_weights(t), candidate)
    return ReductionCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + tol))
