"""Structure-improving transformations of square-free index sets.

Two moves are provided, both of which never decrease S(t, .): dropping a
position from members whose divisor is missing (until the set is closed under
divisors), and swapping a high position j for a lower free position i in
every member where the swap target is absent.  Iterating both to a fixed
point yields a complete set: divisor closed, and closed under replacing any
supported position by any smaller one.

The functions take and return IndexSets of square-free members and raise
DomainError on any other set.  Inside, members are the sets' cached position
masks (`IndexSet.position_masks`, bit j - 1 for position j), so with u_j the
one-bit mask of position j, dropping j from member x is x ^ u_j and swapping
j for i is x ^ u_j | u_i; results are built with `IndexSet.from_masks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Collection

import numpy as np

from .errors import DomainError, TransformLimitError
from .gcdsum import IndexSet, cross_sum, gcd_sum, gcd_sum_mp
from .weights import WeightSequence

STRICT_MARGIN_FLOOR = 1e-9
MONOTONE_TOL = 1e-12


@dataclass
class TraceStep:
    description: str
    size_before: int
    s_before: float
    s_after: float
    # swaps only: whether S rose strictly (recertified when the margin is tiny)
    strict: bool | None = None


@dataclass
class TransformTrace:
    """Audit record: one entry per applied move, with S before and after."""

    weights: str
    initial: IndexSet
    final: IndexSet | None = None
    steps: list[TraceStep] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "initial": [str(m) for m in self.initial],
            "final": [str(m) for m in self.final] if self.final is not None else None,
            "steps": [vars(s).copy() for s in self.steps],
        }


def _mask_set(B: IndexSet, op: str) -> set[int]:
    """B's members as a set of position masks."""
    if not B.is_square_free():
        raise DomainError(f"{op} requires a square-free set")
    return set(B.position_masks())


def _unit(j: int) -> int:
    """One-bit mask of position j."""
    if j < 1:
        raise DomainError(f"position must be >= 1, got {j}")
    return 1 << (j - 1)


def _position(u: int) -> int:
    """Position of a one-bit mask."""
    return u.bit_length()


def _units(x: int) -> list[int]:
    """One-bit masks of the positions of x, ascending."""
    return [1 << b for b in range(x.bit_length()) if x >> b & 1]


def _is_divisor_closed(masks: Collection[int]) -> bool:
    return all(x ^ u in masks for x in masks for u in _units(x))


def _movable(masks: Collection[int], ui: int, uj: int) -> list[int]:
    """Members with position j set and i free whose swap target is absent."""
    return [x for x in masks if x & uj and not x & ui and x ^ uj | ui not in masks]


def _first_swap(masks: Collection[int]) -> tuple[int, int] | None:
    """One-bit masks (u_i, u_j) of the swap first_active_swap returns."""
    for uj in _units(reduce(or_, masks, 0)):
        ui = 1
        while ui < uj:
            if _movable(masks, ui, uj):
                return ui, uj
            ui <<= 1
    return None


def is_divisor_closed(B: IndexSet) -> bool:
    """True iff every member keeps membership after removing any supported
    position.  Square-free sets only."""
    return _is_divisor_closed(_mask_set(B, "is_divisor_closed"))


def is_complete(B: IndexSet) -> bool:
    """Divisor closed, and for each member, supported position j, and free
    position i < j, the j-to-i swap stays in the set.  Square-free sets only."""
    masks = _mask_set(B, "is_complete")
    return _is_divisor_closed(masks) and _first_swap(masks) is None


def divisor_closure(
    t: WeightSequence, B: IndexSet
) -> tuple[IndexSet, TransformTrace]:
    """Replace members by divisors until the set is divisor closed.

    Sweeps positions in ascending order; each batch replaces every member
    with exponent 1 at the position whose divisor is absent.  Cardinality is
    preserved and S never decreases.  Output depends on the sweep order; this
    implementation fixes ascending positions.
    """
    current = _mask_set(B, "divisor_closure")
    trace = TransformTrace(weights=t.label(), initial=B)
    result = B
    s_current = None
    changed = True
    while changed:
        changed = False
        for u in _units(reduce(or_, current, 0)):
            batch = [x for x in current if x & u and x ^ u not in current]
            if not batch:
                continue
            if s_current is None:
                s_current = gcd_sum(t, result)
            current.difference_update(batch)
            current.update(x ^ u for x in batch)
            result = IndexSet.from_masks(current)
            s_after = gcd_sum(t, result)
            trace.steps.append(
                TraceStep(f"drop position {_position(u)} from {len(batch)} member(s)",
                          len(current), s_current, s_after)
            )
            s_current = s_after
            changed = True
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


def _swap_members(B: IndexSet, i: int, j: int, op: str) -> tuple[set[int], int, int]:
    """Check the swap's preconditions; B's members as masks, and u_i and u_j."""
    if i >= j:
        raise DomainError(f"need i < j, got i={i}, j={j}")
    ui, uj = _unit(i), _unit(j)
    members = _mask_set(B, op)
    if not _is_divisor_closed(members):
        raise DomainError(f"{op} requires a divisor-closed set")
    return members, ui, uj


def swap_partition(B: IndexSet, i: int, j: int) -> SwapPartition:
    """Partition B for the swap j -> i; requires i < j and a divisor-closed
    square-free B.  The classification tests membership of the base element
    (positions i and j cleared) with i, j, or both added back."""
    members, ui, uj = _swap_members(B, i, j, "swap_partition")
    movable = _movable(members, ui, uj)
    moving = set(movable)
    saturated, both_lifted, i_lifted, rest = [], [], [], []
    for x in members:
        if x in moving:
            continue
        base = x & ~(ui | uj)
        if base | ui | uj in members:
            saturated.append(x)
        elif base | ui in members and base | uj in members:
            both_lifted.append(x)
        elif base | ui in members:
            i_lifted.append(x)
        else:
            rest.append(x)
    return SwapPartition(*(
        IndexSet.from_masks(part) if part else None
        for part in (movable, saturated, both_lifted, i_lifted, rest)
    ))


def completeness_step(
    t: WeightSequence,
    B: IndexSet,
    i: int,
    j: int,
    certify_dps: int = 50,
    margin_floor: float = STRICT_MARGIN_FLOOR,
    s_before: float | None = None,
) -> tuple[IndexSet, bool, float]:
    """Swap position j for i in every movable member; S strictly increases.

    Returns the new set, whether the increase was strict, and S(t, new set).
    `s_before`, when given, is taken as S(t, B) instead of summing B again.
    When the double-precision margin falls below `margin_floor`, both sums
    are recomputed at `certify_dps` digits and strictness is decided there.
    """
    members, ui, uj = _swap_members(B, i, j, "completeness_step")
    movable = _movable(members, ui, uj)
    if not movable:
        raise DomainError(f"no movable members for swap ({i}, {j})")
    # targets lack j and are absent by movability, so no two members collide
    members.difference_update(movable)
    members.update(x ^ uj | ui for x in movable)
    result = IndexSet.from_masks(members)
    if s_before is None:
        s_before = gcd_sum(t, B)
    s_after = gcd_sum(t, result)
    if abs(s_after - s_before) >= margin_floor:
        return result, s_after > s_before, s_after
    strict = gcd_sum_mp(t, result, dps=certify_dps) > gcd_sum_mp(t, B, dps=certify_dps)
    return result, strict, s_after


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
    if not B.is_square_free():
        raise DomainError("normalize_to_complete requires a square-free set")
    current, trace = divisor_closure(t, B)
    if max_steps is None:
        # twice the total weighted rank: column sums of the rows times positions
        ranks = current.exponent_matrix().sum(axis=0, dtype=np.int64)
        max_steps = 10 + 2 * int(ranks @ np.array(current.universe(), dtype=np.int64))
    # S(t, current), carried over from the previous step so each swap sums once
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
        current, strict, s_after = completeness_step(
            t, current, i, j, certify_dps=certify_dps, s_before=s_current
        )
        trace.steps.append(
            TraceStep(f"swap position {j} -> {i}", len(current), s_current, s_after, strict)
        )
        s_current = s_after
        steps += 1
    trace.final = current
    return current, trace


def first_active_swap(B: IndexSet) -> tuple[int, int] | None:
    """The first swap (i, j) with a movable member, scanning ascending j, then
    ascending i < j; None when the set admits no swap.  Square-free sets only."""
    pair = _first_swap(_mask_set(B, "first_active_swap"))
    if pair is None:
        return None
    return _position(pair[0]), _position(pair[1])


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
    ui, uj = _unit(i), _unit(j)
    moved = IndexSet.from_masks(x ^ uj | ui for x in part.movable.position_masks())

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
