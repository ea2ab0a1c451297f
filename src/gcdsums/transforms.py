"""Structure-improving transformations of square-free index sets.

Two moves are provided, both of which never decrease S(t, .): dropping a
position from members whose divisor is missing (until the set is closed under
divisors), and swapping a high position j for a lower free position i in
every member where the swap target is absent.  Iterating both to a fixed
point yields a complete set: divisor closed, and closed under replacing any
supported position by any smaller one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp

from .errors import DomainError, TransformLimitError
from .gcdsum import IndexSet, cross_sum, gcd_sum, gcd_sum_mp
from .multiindex import MultiIndex
from .weights import WeightSequence

STRICT_MARGIN_FLOOR = 1e-9
MONOTONE_TOL = 1e-12


@dataclass
class TraceStep:
    description: str
    size_before: int
    s_before: float
    s_after: float


@dataclass
class TransformTrace:
    """Audit record: one entry per applied move, with S before and after."""

    weights: str
    initial: IndexSet
    final: IndexSet | None = None
    steps: list[TraceStep] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "weights": self.weights,
            "initial": [str(m) for m in self.initial],
            "final": [str(m) for m in self.final] if self.final is not None else None,
            "steps": [
                {
                    "description": s.description,
                    "size_before": s.size_before,
                    "s_before": s.s_before,
                    "s_after": s.s_after,
                }
                for s in self.steps
            ],
        }


def is_divisor_closed(B: IndexSet) -> bool:
    """True iff every member keeps membership after removing any supported position."""
    for m in B:
        for j, _ in m.items:
            if m.with_unit_removed(j) not in B:
                return False
    return True


def is_complete(B: IndexSet) -> bool:
    """Divisor closed, and for each member, supported position j, and free
    position i < j, the j-to-i swap stays in the set.  Square-free sets only."""
    _require_square_free(B, "is_complete")
    # bit j - 1 of a member's mask is set when position j is supported
    masks = {sum(1 << (j - 1) for j, _ in m.items) for m in B}
    for x in masks:
        for j in range(x.bit_length()):
            if not x >> j & 1:
                continue
            below = x ^ 1 << j
            if below not in masks:
                return False
            for i in range(j):
                if not x >> i & 1 and below | 1 << i not in masks:
                    return False
    return True


def _require_square_free(B: IndexSet, op: str) -> None:
    if not B.is_square_free():
        raise DomainError(f"{op} requires a square-free set")


def divisor_closure(
    t: WeightSequence, B: IndexSet
) -> tuple[IndexSet, TransformTrace]:
    """Replace members by divisors until the set is divisor closed.

    Sweeps positions in ascending order; each batch replaces every member
    with exponent 1 at the position whose divisor is absent.  Cardinality is
    preserved and S never decreases.  Output depends on the sweep order; this
    implementation fixes ascending positions.
    """
    _require_square_free(B, "divisor_closure")
    trace = TransformTrace(weights=t.label(), initial=B)
    current = set(B.members)
    s_current = None
    changed = True
    while changed:
        changed = False
        for j in sorted({j for m in current for j in m.support()}):
            batch = [
                m
                for m in current
                if m.exponent(j) == 1 and m.with_unit_removed(j) not in current
            ]
            if not batch:
                continue
            if s_current is None:
                s_current = gcd_sum(t, IndexSet(current))
            for m in batch:
                current.remove(m)
                current.add(m.with_unit_removed(j))
            s_after = gcd_sum(t, IndexSet(current))
            trace.steps.append(
                TraceStep(f"drop position {j} from {len(batch)} member(s)",
                          len(current), s_current, s_after)
            )
            s_current = s_after
            changed = True
    result = IndexSet(current)
    trace.final = result
    return result, trace


@dataclass(frozen=True)
class SwapPartition:
    """Five-way split of a divisor-closed square-free set for a swap (i, j).

    movable: members with position j set, i free, whose swap target is absent.
    The rest of the set is classified by what its (i, j)-free base supports:
    saturated (base + i + j present), both_lifted (base + i and base + j
    present, not saturated), i_lifted (only base + i present), rest.
    """

    movable: IndexSet | None
    saturated: IndexSet | None
    both_lifted: IndexSet | None
    i_lifted: IndexSet | None
    rest: IndexSet | None

    def parts(self) -> tuple[IndexSet | None, ...]:
        return (self.movable, self.saturated, self.both_lifted, self.i_lifted, self.rest)


def _maybe_set(members: list[MultiIndex]) -> IndexSet | None:
    return IndexSet(members) if members else None


def swap_partition(B: IndexSet, i: int, j: int) -> SwapPartition:
    """Partition B for the swap j -> i; requires i < j and a divisor-closed
    square-free B.  The classification tests membership of the base element
    (positions i and j cleared) with i, j, or both added back."""
    if i >= j:
        raise DomainError(f"need i < j, got i={i}, j={j}")
    if i < 1:
        raise DomainError(f"positions must be >= 1, got i={i}")
    _require_square_free(B, "swap_partition")
    if not is_divisor_closed(B):
        raise DomainError("swap_partition requires a divisor-closed set")

    movable, saturated, both_lifted, i_lifted, rest = [], [], [], [], []
    for m in B:
        if (
            m.exponent(j) == 1
            and m.exponent(i) == 0
            and m.with_unit_removed(j).with_unit_added(i) not in B
        ):
            movable.append(m)
            continue
        base = dict(m.items)
        base.pop(i, None)
        base.pop(j, None)
        base_mi = MultiIndex(base)
        with_i = base_mi.with_unit_added(i)
        with_j = base_mi.with_unit_added(j)
        if with_i.with_unit_added(j) in B:
            saturated.append(m)
        elif with_i in B and with_j in B:
            both_lifted.append(m)
        elif with_i in B:
            i_lifted.append(m)
        else:
            rest.append(m)
    return SwapPartition(
        movable=_maybe_set(movable),
        saturated=_maybe_set(saturated),
        both_lifted=_maybe_set(both_lifted),
        i_lifted=_maybe_set(i_lifted),
        rest=_maybe_set(rest),
    )


def completeness_step(
    t: WeightSequence,
    B: IndexSet,
    i: int,
    j: int,
    certify_dps: int = 50,
    margin_floor: float = STRICT_MARGIN_FLOOR,
) -> tuple[IndexSet, bool]:
    """Swap position j for i in every movable member; S strictly increases.

    Returns the new set and whether the increase was strict.  When the
    double-precision margin falls below `margin_floor`, both sums are
    recomputed at `certify_dps` digits and strictness is decided there.
    """
    part = swap_partition(B, i, j)
    if part.movable is None:
        raise DomainError(f"no movable members for swap ({i}, {j})")
    moved = []
    kept = [m for m in B if m not in part.movable]
    kept_set = set(kept)
    for m in part.movable:
        m2 = m.with_unit_removed(j).with_unit_added(i)
        if m2 in kept_set:
            # impossible for a valid divisor-closed input: the swap target
            # being present contradicts movability
            raise RuntimeError(f"swap collision at {m2}")
        moved.append(m2)
    result = IndexSet(kept + moved)
    s_before = gcd_sum(t, B)
    s_after = gcd_sum(t, result)
    if abs(s_after - s_before) >= margin_floor:
        return result, s_after > s_before
    strict = gcd_sum_mp(t, result, dps=certify_dps) > gcd_sum_mp(t, B, dps=certify_dps)
    return result, strict


def normalize_to_complete(
    t: WeightSequence,
    B: IndexSet,
    max_steps: int | None = None,
    certify_dps: int = 50,
) -> tuple[IndexSet, TransformTrace]:
    """Divisor-close B, then apply swaps until the set is complete.

    Swap pairs are scanned with ascending target j and ascending i below it;
    the first active pair is applied and the scan restarts.  Each swap
    strictly lowers the total weighted rank, so the loop terminates.
    """
    _require_square_free(B, "normalize_to_complete")
    current, trace = divisor_closure(t, B)
    if max_steps is None:
        max_steps = 10 + 2 * sum(m.weighted_rank() for m in current)
    # S(t, current), carried over from the previous step so it is summed once
    s_current = trace.steps[-1].s_after if trace.steps else None
    steps = 0
    while True:
        pair = first_active_swap(current)
        if pair is None:
            break
        if steps >= max_steps:
            trace.final = current
            raise TransformLimitError(
                f"swap iteration cap {max_steps} exceeded", trace=trace
            )
        i, j = pair
        if s_current is None:
            s_current = gcd_sum(t, current)
        current, _ = completeness_step(t, current, i, j, certify_dps=certify_dps)
        s_after = gcd_sum(t, current)
        trace.steps.append(
            TraceStep(f"swap position {j} -> {i}", len(current), s_current, s_after)
        )
        s_current = s_after
        steps += 1
    trace.final = current
    return current, trace


def first_active_swap(B: IndexSet) -> tuple[int, int] | None:
    """The first swap (i, j) with a movable member, scanning ascending j, then
    ascending i < j; None when the set admits no swap."""
    membership = B.as_set()
    for j in sorted({j for m in B for j in m.support()}):
        for i in range(1, j):
            for m in B:
                if (
                    m.exponent(j) == 1
                    and m.exponent(i) == 0
                    and m.with_unit_removed(j).with_unit_added(i) not in membership
                ):
                    return i, j
    return None


@dataclass(frozen=True)
class ExchangeIdentity:
    """Both sides of the swapped-cross-sum exchange identity and its coefficients."""

    lhs: float
    rhs: float
    coefficients: tuple[float, float, float, float]
    ok: bool


def completeness_exchange_identity(
    t: WeightSequence, B: IndexSet, i: int, j: int, tol: float = 1e-9
) -> ExchangeIdentity:
    """Recompute the cross sums of a swap both directly and via the
    four-coefficient form, and check the coefficients are all >= 1.

    The movable members' cross sum against the remainder, after the swap,
    equals the sum over the four remainder classes weighted by
    1, (1 + t_i t_j + t_i)/(1 + t_i t_j + t_j), 1/t_j, and t_i/t_j.
    """
    part = swap_partition(B, i, j)
    if part.movable is None:
        raise DomainError(f"no movable members for swap ({i}, {j})")
    moved = IndexSet(
        [m.with_unit_removed(j).with_unit_added(i) for m in part.movable]
    )

    ti = t.weight_at(i)
    tj = t.weight_at(j)
    coefficients = (
        1.0,
        (1.0 + ti * tj + ti) / (1.0 + ti * tj + tj),
        1.0 / tj,
        ti / tj,
    )
    classes = (part.saturated, part.both_lifted, part.i_lifted, part.rest)
    lhs = math.fsum(cross_sum(t, moved, cls) for cls in classes if cls is not None)
    rhs = math.fsum(
        c * cross_sum(t, part.movable, cls)
        for c, cls in zip(coefficients, classes)
        if cls is not None
    )
    ok = all(c >= 1.0 for c in coefficients) and (
        abs(lhs - rhs) <= tol * max(abs(lhs), abs(rhs), 1.0)
    )
    return ExchangeIdentity(lhs=lhs, rhs=rhs, coefficients=coefficients, ok=ok)
