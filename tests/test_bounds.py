import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest

from gcdsums import (
    DomainError,
    IndexSet,
    MultiIndex,
    PrimePowerWeights,
    bound_chain_report,
    cube_construction,
    doubled_weight_reduction_check,
    general_upper_curve,
    is_complete,
    lower_curve,
    normalize_to_complete,
    squarefree_upper_curve,
    support_tail_bound,
    support_tail_bounds,
    tail_sum,
)
import functools
import random

from oracles import (
    brute_lcm_closure,
    lcm,
    chain_rows_reference,
    tail_direct_sum,
    tail_series_reference,
    tail_unchunked,
)

from gcdsums import AuxiliaryWeights, verify_decay
from gcdsums import bounds as bounds_module
from gcdsums import gcdsum as gcdsum_module
from gcdsums import lcm_closure
from gcdsums.gcdsum import LcmClosure
from gcdsums.verify import random_index_set

half = PrimePowerWeights(0.5)
zero = MultiIndex.zero()


def curve_oracle(n, factor, with_triple):
    # the exponential growth shapes recomputed at 50 digits
    with mp.workdps(50):
        l1 = mp.log(n)
        l2 = mp.log(l1)
        if with_triple:
            return float(mp.e ** (factor * mp.sqrt(l1 * mp.log(l2) / l2)))
        return float(mp.e ** (factor * mp.sqrt(l1 / l2)))


def test_general_curve():
    assert general_upper_curve(10**6, 0.0) == 1.0
    assert general_upper_curve(10**6, 7.0) == pytest.approx(
        curve_oracle(10**6, 7.0, True), rel=1e-12
    )
    assert general_upper_curve(10**6, 7.0) == pytest.approx(7.1e6, rel=0.01)
    # degenerate point where the triple log is exactly 1
    n = math.exp(math.exp(math.e))
    assert general_upper_curve(n, 1.0) == pytest.approx(
        math.exp(math.sqrt(math.exp(math.e) / math.e)), rel=1e-9
    )


def test_squarefree_curve():
    assert squarefree_upper_curve(10**6, 0.0, 5.0) == 1.0
    value = squarefree_upper_curve(10**6, 1.0, 5.0)
    assert value == pytest.approx(curve_oracle(10**6, 5.0, True), rel=1e-12)
    assert value == pytest.approx(7.8e4, rel=0.01)
    # kappa * sqrt(c) plays the same role as the general constant
    assert squarefree_upper_curve(10**6, 4.0, 3.5) == pytest.approx(
        general_upper_curve(10**6, 7.0), rel=1e-12
    )


def test_lower_curve():
    assert lower_curve(10**6, 0.0) == 1.0
    assert lower_curve(10**6, 1.0) == pytest.approx(9.912, abs=2e-3)
    assert lower_curve(2**8, 1.0) == pytest.approx(6.045, abs=2e-3)
    assert lower_curve(2**8, 1.0) == pytest.approx(curve_oracle(2**8, 1.0, False), rel=1e-12)


def test_curves_reject_small_n():
    for fn in (lambda n: general_upper_curve(n, 1), lambda n: lower_curve(n, 1),
               lambda n: squarefree_upper_curve(n, 1, 1)):
        with pytest.raises(DomainError):
            fn(20)


def test_curves_monotone():
    ns = (21, 50, 10**3, 10**6, 10**9)
    for fn in (
        lambda n, c: general_upper_curve(n, c),
        lambda n, c: squarefree_upper_curve(n, 1.0, c),
        lambda n, c: lower_curve(n, c),
    ):
        values = [fn(n, 2.0) for n in ns]
        assert all(a < b for a, b in zip(values, values[1:]))
        constants = [fn(10**6, c) for c in (0.5, 1.0, 2.0, 5.0)]
        assert all(a < b for a, b in zip(constants, constants[1:]))


def test_support_tail_bound_examples():
    c5 = cube_construction(5)
    holds, slack = support_tail_bound(c5, zero)
    assert holds and slack == pytest.approx(3 * math.log(32), rel=1e-12)

    full = MultiIndex({j: 1 for j in range(1, 6)})
    holds, slack = support_tail_bound(c5, full)
    # only position 5 clears the threshold log(32)/log(2) = 5
    lhs = math.log(5) - math.log(math.log(32))
    assert holds
    assert slack == pytest.approx(3 * math.log(32) - lhs, rel=1e-12)


def test_support_tail_bound_rejects_non_member():
    with pytest.raises(DomainError):
        support_tail_bound(cube_construction(2), MultiIndex.unit(9))


def test_support_tail_bound_on_normalized_sets():
    rng = random.Random(77)
    for _ in range(50):
        members = set()
        size = rng.randint(1, 9)
        while len(members) < size:
            members.add(MultiIndex({j: 1 for j in rng.sample(range(1, 9), rng.randint(0, 6))}))
        complete, _ = normalize_to_complete(half, IndexSet(members))
        for m in complete:
            holds, _ = support_tail_bound(complete, m)
            assert holds


def tail_bracket(n):
    # strict bracket by monotonicity: integral from j0 below the series,
    # integral from j0 - 1 above it
    a = math.log(math.log(n))
    j0 = math.floor(math.log(n) / math.log(2)) + 1

    def integral_from(x):
        u = math.log(x)
        return -math.log((u - a) / u) / a

    return integral_from(j0), integral_from(j0 - 1)


@pytest.mark.parametrize("n", [10**4, 10**6, 10**9, 10**12])
def test_tail_sum_bracketed_by_integrals(n):
    est = tail_sum(n)
    low, high = tail_bracket(n)
    assert low <= est.value <= high * (1 + 1e-9)
    assert est.estimate == pytest.approx(
        math.log(math.log(math.log(n))) / math.log(math.log(n)), rel=1e-12
    )
    assert est.scaled_gap == pytest.approx(
        abs(est.value - est.estimate) * math.log(math.log(n)), rel=1e-12
    )


@pytest.mark.parametrize("n", [25, 10**4, 10**6, 10**9, 10**12])
def test_tail_sum_against_40_digit_reference(n):
    est = tail_sum(n)
    ref = float(tail_series_reference(n))
    assert ref <= est.value <= ref * (1 + 1e-12)
    assert est.width > 0
    assert est.value - est.width <= ref


@pytest.mark.parametrize("n", [25, 10**4, 10**6, 10**9, 10**12])
def test_tail_sum_below_direct_sum(n):
    # the old direct sum to 10^7 overshoots by about half its last term
    old = tail_direct_sum(n)
    assert old * (1 - 4e-10) <= tail_sum(n).value <= old


@pytest.mark.parametrize("n", [21, 25, 256, 1024, 10**6, 10**9])
def test_tail_sum_bit_identical_to_unchunked_formula(n):
    assert tail_sum(n) == tail_unchunked(n)


def test_tail_sum_memoized_per_n():
    assert tail_sum(25) is tail_sum(25.0)


def test_tail_sum_values():
    est = tail_sum(10**6)
    assert est.estimate == pytest.approx(0.36765, abs=1e-4)
    assert est.scaled_gap <= 1.6
    assert tail_sum(10**9).estimate == pytest.approx(0.36584, abs=1e-4)


@pytest.mark.parametrize("n", [10**4, 10**6, 10**9, 10**12])
def test_tail_scaled_gap_within_budget(n):
    assert tail_sum(n).scaled_gap <= 4.0


def test_tail_sum_rejects_small_n():
    with pytest.raises(DomainError):
        tail_sum(10)


def high_branch_set():
    # the 4-cube plus outlying single positions: complete, 21 members, and
    # positions 5..9 clear the threshold log(21)/log(2)
    members = list(cube_construction(4)) + [MultiIndex.unit(j) for j in range(5, 10)]
    return IndexSet(members)


def test_chain_report_on_cube():
    report = bound_chain_report(half, cube_construction(5), 1.0)
    assert report.all_exact_hold()
    assert report.n == 32
    assert report.high_count == 0  # threshold is exactly the cube dimension
    assert report.s_value == pytest.approx(
        math.prod(2 + 2 * half.weight_at(j) for j in range(1, 6)), rel=1e-10
    )
    assert report.s_value <= report.majorant_value
    assert set(report.ratios) >= {"kappa_empirical", "tail_gap_scaled"}
    assert all(math.isfinite(v) for v in report.ratios.values())
    assert len(report.records) == report.closure_size == 32
    assert report.exact["term_vs_midpoint"] and report.exact["term_vs_integral"]
    assert report.to_dict()["tail"]["width"] == report.tail.width > 0
    # the shallow copy of the fields equals the deep one, record for record
    assert report.to_dict() == dataclasses.asdict(report)


def test_chain_report_high_branch():
    B = high_branch_set()
    assert is_complete(B) and len(B) == 21
    for alpha in (0.5, 1.0):
        report = bound_chain_report(PrimePowerWeights(alpha), B, 1.0)
        assert report.all_exact_hold(), report.exact
        assert report.high_count == 5
        assert report.high_ratio_sum > 0
        assert report.high_ratio_sum <= report.high_ratio_bound * (1 + 1e-9)


def test_chain_report_witnesses_are_generating_pairs():
    B = high_branch_set()
    report = bound_chain_report(half, B, 1.0)
    closure_members = {str(r.beta): r for r in report.records}
    for rec in report.records:
        a = B.members[rec.witness_k]
        b = B.members[rec.witness_l]
        assert str(lcm(a, b)) == rec.beta
    assert len(closure_members) == report.closure_size


def test_chain_report_preconditions():
    with pytest.raises(DomainError):
        bound_chain_report(half, cube_construction(4), 1.0)  # 16 < 21
    incomplete = IndexSet(
        [MultiIndex({j: 1 for j in comb}) for comb in _incomplete_members()]
    )
    with pytest.raises(DomainError):
        bound_chain_report(half, incomplete, 1.0)
    with pytest.raises(DomainError):
        bound_chain_report(half, cube_construction(5), 1e-3)  # decay constant too small


def _incomplete_members():
    # 2^4 square-free supports on {2,3,4,5} plus filler: divisor closed only
    # after adding zero, but never complete (position 1 unused)
    out = [()]
    for a in (2, 3, 4, 5):
        out.append((a,))
    for a in (2, 3, 4):
        for b in range(a + 1, 6):
            out.append((a, b))
    out += [(2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5), (2, 3, 4, 5)]
    out += [(6,), (7,), (8,), (9,), (10,)]
    return out


def test_chain_report_rejects_non_square_free():
    members = list(cube_construction(4)) + [MultiIndex({1: 2})] + [
        MultiIndex.unit(j) for j in range(5, 9)
    ]
    with pytest.raises(DomainError):
        bound_chain_report(half, IndexSet(members), 1.0)


def test_doubled_weight_reduction_check():
    cube = cube_construction(2)
    same = doubled_weight_reduction_check(half, cube, cube)
    assert same.holds  # doubled weights dominate termwise and the count is 2
    tiny = doubled_weight_reduction_check(half, cube, IndexSet([zero]))
    assert not tiny.holds
    assert tiny.rhs == pytest.approx(4.0)


_EXACT_FIELDS = ("beta", "support_size", "low_size", "high_size", "euler_product",
                 "witness_k", "witness_l")
_FLOAT_FIELDS = ("inner_sum", "aux_sum", "ratio_sum", "high_weight_sum")


def _decay(t, B):
    return max(1.0, verify_decay(t, max(B.max_index(), 2)))


@functools.lru_cache(maxsize=None)
def sorted_closure(B):
    return sorted(brute_lcm_closure(B.members))


def assert_matches_old_loop(t, B, rel=1e-13):
    """Records, witnesses and verdict inputs against the per-row loop the
    certificate replaced.  Float sums are compared at rel, above both the
    certificate's stated bound (`LcmClosure.sum_error_bound`) and the
    rounding of the old loop's exp/log terms.  Euler products are exact below
    17 positions, where one product table is a sequential product in
    position order."""
    c = _decay(t, B)
    report = bound_chain_report(t, B, c)
    assert report.all_exact_hold(), report.exact
    ref, _ = chain_rows_reference(
        t, AuxiliaryWeights(t, len(B), c), B.members, report.threshold, sorted_closure(B)
    )
    got = report.to_dict()["records"]
    assert len(got) == len(ref) == report.closure_size
    exact = [f for f in _EXACT_FIELDS if f != "euler_product" or len(B.universe()) <= 16]
    for g, r in zip(got, ref):
        assert all(g[f] == r[f] for f in exact), (g, r)
        for f in _FLOAT_FIELDS + ("euler_product",):
            assert g[f] == pytest.approx(r[f], rel=rel, abs=1e-300), (f, g, r)
    assert report.majorant_value == pytest.approx(
        math.fsum(r["inner_sum"] ** 2 for r in ref), rel=rel
    )


def random_complete_sets(seed, count, max_index=12):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        B, _ = normalize_to_complete(half, random_index_set(rng, max_n=48, max_index=max_index))
        if len(B) >= 21:
            out.append(B)
    return out


@pytest.mark.parametrize("k", range(5, 11))
def test_chain_report_matches_old_loop_on_cubes(k):
    for alpha in (0.5, 1.0):
        assert_matches_old_loop(PrimePowerWeights(alpha), cube_construction(k))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_chain_report_matches_old_loop_on_random_complete_sets(alpha):
    for B in random_complete_sets(2026, 20):
        assert_matches_old_loop(PrimePowerWeights(alpha), B)


def exponent_set():
    # 21 members, not square-free, and not closed under joins: the closure
    # adds {1: 2, 2: 1}, {1: 2, 3: 2}, the pairs of singletons and more
    items = [{}, {1: 2}, {2: 1}, {1: 1, 3: 2}, {2: 3, 4: 1}, {3: 1, 4: 2}, {1: 1, 2: 1}]
    return IndexSet([MultiIndex(d) for d in items] + [MultiIndex.unit(j) for j in range(5, 19)])


@pytest.mark.parametrize("lattice", [True, False])
def test_closure_sums_on_both_paths(monkeypatch, lattice):
    """Inner sums and per-member exchange sums from the zeta transforms and
    from the pair blocks, each forced onto sets the other path would take; a
    set that is not square-free takes the pair blocks on exponent rows
    either way, and has no witnesses."""
    monkeypatch.setattr(gcdsum_module, "_lattice_cheaper", lambda n, m: lattice)
    t = PrimePowerWeights(0.5)
    for B in [cube_construction(6), high_branch_set(), exponent_set()] + random_complete_sets(7, 4):
        aux = AuxiliaryWeights(t, len(B), _decay(t, B))
        t_vals, w_vals = t.weights_for(B.universe()), aux.weights_for(B.universe())
        masks = LcmClosure(B)
        assert masks.lattice is (lattice and B.is_square_free())
        inner, by_member = masks.subset_sums([t_vals, w_vals, t_vals ** 2 / w_vals])
        ref, ref_by_member = chain_rows_reference(
            t, aux, B.members, aux.threshold, sorted_closure(B)
        )
        for q, f in enumerate(("inner_sum", "aux_sum", "ratio_sum")):
            assert inner[:, q] == pytest.approx([r[f] for r in ref], rel=1e-13)
        assert by_member == pytest.approx(ref_by_member, rel=1e-13)
        if B.is_square_free():
            assert masks.witnesses().tolist() == [[r["witness_k"], r["witness_l"]] for r in ref]
        else:
            with pytest.raises(DomainError):
                masks.witnesses()


def test_closure_masks_preconditions():
    # the closure object takes any set; its witnesses need a square-free,
    # divisor-closed one, and the certificate still refuses a set that is
    # not square-free
    with pytest.raises(DomainError):
        LcmClosure(IndexSet([MultiIndex.unit(1), MultiIndex.unit(2)])).witnesses()
    squares = IndexSet([zero, MultiIndex({1: 2})] + [MultiIndex.unit(j) for j in range(1, 21)])
    with pytest.raises(DomainError):
        LcmClosure(squares).witnesses()
    with pytest.raises(DomainError, match="square-free"):
        bound_chain_report(half, squares, 1.0)


@pytest.mark.parametrize("lattice", [True, False])
def test_chain_report_inner_sums_within_stated_bound(monkeypatch, lattice):
    # the certificate's sums against 50-digit sums over the same double
    # weights, on each path, within the bound its docstring states
    monkeypatch.setattr(gcdsum_module, "_lattice_cheaper", lambda n, m: lattice)
    t = PrimePowerWeights(0.5)
    for B in (random_complete_sets(11, 1)[0], cube_construction(7)):
        report = bound_chain_report(t, B, 1.0)
        universe = B.universe()
        aux = AuxiliaryWeights(t, len(B), 1.0)
        t_vals, w_vals = t.weights_for(universe), aux.weights_for(universe)
        r_vals = np.exp(2.0 * np.log(t_vals) - np.log(w_vals))
        bound = LcmClosure(B).sum_error_bound()
        col = {j: i for i, j in enumerate(universe)}
        with mp.workdps(50):
            for rec, beta in zip(report.records, lcm_closure(B).members):
                below = [a for a in B.members if all(beta.exponent(j) for j, _ in a.items)]
                for field, vals in (("inner_sum", t_vals), ("aux_sum", w_vals),
                                    ("ratio_sum", r_vals)):
                    exact = mp.fsum(
                        mp.fprod(mp.mpf(float(vals[col[j]]))
                                 for j, _ in beta.items if not a.exponent(j))
                        for a in below
                    )
                    assert abs(getattr(rec, field) - exact) <= bound * exact, (field, beta)


def test_chain_report_cube_13_closed_forms():
    # out of reach of the old per-row loop: inner_sum(c) = prod_{j in c} (1 + t_j),
    # aux_sum = euler_product (every position is low, so w = t), and the
    # majorant is prod_j (1 + (1 + t_j)^2)
    t = PrimePowerWeights(0.5)
    report = bound_chain_report(t, cube_construction(13), 1.0)
    assert report.all_exact_hold(), report.exact
    assert report.closure_size == len(report.records) == 1 << 13
    for rec in report.records:
        positions = [int(item.split(":")[0]) for item in rec.beta.split()[1:]]
        closed = math.prod(1.0 + t.weight_at(j) for j in positions)
        assert rec.inner_sum == pytest.approx(closed, rel=1e-14)
        assert rec.aux_sum == pytest.approx(rec.euler_product, rel=1e-14)
        assert rec.euler_product == pytest.approx(closed, rel=1e-14)
        assert rec.witness_k == 0  # the empty member joins every member with itself
    assert report.majorant_value == pytest.approx(
        math.prod(1.0 + (1.0 + t.weight_at(j)) ** 2 for j in range(1, 14)), rel=1e-13
    )


@pytest.mark.parametrize("m", [30, 70])
def test_chain_report_wide_complete_set(m):
    # the empty member, the singletons 1..m and {1, 2}, {1, 3}: complete, on
    # m > _XOR_TABLE_MAX_BITS positions (m = 70 needs two mask words), so the
    # closure takes the packed joins and the sums the pair blocks
    members = [zero, MultiIndex({1: 1, 2: 1}), MultiIndex({1: 1, 3: 1})]
    B = IndexSet(members + [MultiIndex.unit(j) for j in range(1, m + 1)])
    assert is_complete(B)
    assert not LcmClosure(B).lattice
    for alpha in (0.5, 1.0):
        assert_matches_old_loop(PrimePowerWeights(alpha), B)


@pytest.mark.parametrize("tol, holds", [(1e-13, True), (-1e-13, False)])
def test_chain_report_recertifies_near_ties(monkeypatch, tol, holds):
    """On a cube every position is low, so w = t and the Cauchy-Schwarz and
    Euler steps are exact ties; a verdict tolerance inside the recertification
    window puts every row there, and the 50-digit sums decide it."""
    monkeypatch.setattr(bounds_module, "_VERDICT_TOL", tol)
    calls = []
    real = bounds_module._recertify_row
    monkeypatch.setattr(bounds_module, "_recertify_row",
                        lambda *args: calls.append(1) or real(*args))
    report = bound_chain_report(half, cube_construction(5), 1.0)
    assert len(calls) == report.closure_size == 32
    assert report.exact["cauchy_schwarz"] is holds
    assert report.exact["euler_product_aux"] is holds


def test_chain_report_builds_no_multiindex(monkeypatch):
    # from the set's rows to the report's JSON, no member is decoded
    sets = [cube_construction(10), random_complete_sets(5, 1, max_index=16)[0]]
    sets[1] = IndexSet.from_masks(sets[1].position_masks())  # no cached members
    assert len(sets[1]) >= 21
    made = []
    init = MultiIndex.__init__
    monkeypatch.setattr(MultiIndex, "__init__", lambda self, *a: made.append(1) or init(self, *a))
    for B in sets:
        report = bound_chain_report(half, B, _decay(half, B))
        assert report.all_exact_hold()
        json.dumps(report.to_dict())
    assert made == []


@pytest.mark.parametrize("B", [exponent_set(), lcm_closure(exponent_set()), high_branch_set()]
                         + [IndexSet.from_masks([0])] + [cube_construction(k) for k in (1, 5, 9)])
def test_member_strings_match_multiindex_text(B):
    assert IndexSet.from_rows(B.universe(), B.exponent_matrix()).member_strings() == [
        str(m) for m in B.members
    ]


def test_support_tail_bounds_match_per_member_bound():
    sets = random_complete_sets(31, 12, max_index=16) + [high_branch_set(), cube_construction(6)]
    for B in sets:
        for n in (None, 21, 1000, 10 ** 9):
            holds, slack = support_tail_bounds(B, n)
            ref = [support_tail_bound(B, m, n) for m in B.members]
            assert holds.tolist() == [h for h, _ in ref]
            assert slack == pytest.approx([s for _, s in ref], rel=1e-14, abs=1e-14)
    # a failing member: {5, 7} against n = 2, where log 5 + log 7 - 2 loglog 2 > 3 log 2
    B = IndexSet.from_masks([0, 1 << 4 | 1 << 6])
    holds, _ = support_tail_bounds(B, 2)
    assert holds.tolist() == [support_tail_bound(B, m, 2)[0] for m in B.members] == [True, False]
    with pytest.raises(DomainError):
        support_tail_bounds(B, 1)
