"""Structure-improving transformations of square-free index sets.

Two moves are provided, both of which never decrease S(t, .): dropping a
position from members whose divisor is missing (until the set is closed under
divisors), and swapping a high position j for a lower free position i in
every member where the swap target is absent.  Iterating both to a fixed
point yields a complete set: divisor closed, and closed under replacing any
supported position by any smaller one.

The functions take and return IndexSets of square-free members and raise
DomainError on any other set.  Inside, members are Python-int masks, so with
u_j the one-bit mask of position j, dropping j from member x is x ^ u_j and
swapping j for i is x ^ u_j | u_i.  The predicates, `swap_partition` and
`completeness_step` read the sets' cached position masks
(`IndexSet.position_masks`, bit j - 1 for position j), except that
`is_complete` checks a set on the subset lattice where
`gcdsum._lattice_cheaper` holds: one boolean indicator of the 2^m masks,
closed under deletions and adjacent shifts j -> j - 1.

`divisor_closure`, `normalize_to_complete` and the heuristic search
(`search.local_search`) run on masks over the positions the run can reach
(`_MaskRun`): each move is scored by its change in S over one product table
per slice of those positions, then committed, and S is carried from there.
The transforms build an IndexSet only for the result and for a 50-digit
recertification, with `IndexSet.from_masks`; reports format members from
the rows (`IndexSet.member_strings`).  `completeness_step` is the one-step
swap on IndexSets, with full sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Collection

import numpy as np

from .errors import DomainError, TransformLimitError
from .gcdsum import (
    _BLOCK_BUDGET,
    IndexSet,
    _lattice_cheaper,
    _mask_words,
    _set_bits,
    _slice_tables,
    _sliced,
    _slices,
    _xor_products,
    cross_sum,
    gcd_sum,
    gcd_sum_mp,
)
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
            "initial": self.initial.member_strings(),
            "final": self.final.member_strings() if self.final is not None else None,
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
    out = []
    while x:
        u = x & -x
        out.append(u)
        x ^= u
    return out


def _is_divisor_closed(masks: Collection[int]) -> bool:
    return all(x ^ u in masks for x in masks for u in _units(x))


def _movable(masks: Collection[int], ui: int, uj: int) -> list[int]:
    """Members with position j set and i free whose swap target is absent."""
    return [x for x in masks if x & uj and not x & ui and x ^ uj | ui not in masks]


def _first_swap(masks: Collection[int]) -> tuple[int, int] | None:
    """One-bit masks (u_i, u_j) of the swap first_active_swap returns.

    With up[y] the positions i of the members y + i (y itself need not be a
    member), a member x with j set and i free moves under (i, j) iff i is not
    in up[x - j].  So x's first swap is its least position j with a free
    position below it outside up[x - j], and the lowest such i; the set's is
    the least (j, i) over its members.  An unused position is in no up[y], so
    it is the last i any j needs.  Two passes over the members' set bits,
    written out: a call per member would double the scan's cost."""
    up: dict[int, int] = {}
    for z in masks:
        y = z
        while y:
            u = y & -y
            up[z ^ u] = up.get(z ^ u, 0) | u
            y ^= u
    best = None  # (u_j, u_i)
    for x in masks:
        y = x
        while y:
            uj = y & -y
            if best is not None and uj > best[0]:
                break
            blocked = ~(x | up.get(x ^ uj, 0)) & (uj - 1)
            if blocked:
                pair = (uj, blocked & -blocked)
                if best is None or pair < best:
                    best = pair
                break
            y ^= uj
    return None if best is None else (best[1], best[0])


def is_divisor_closed(B: IndexSet) -> bool:
    """True iff every member keeps membership after removing any supported
    position.  Square-free sets only."""
    return _is_divisor_closed(_mask_set(B, "is_divisor_closed"))


def _lattice_complete(B: IndexSet) -> bool:
    """`is_complete` for a square-free set on the positions 1..m, over one
    boolean indicator f of the 2^m masks: a divisor-closed set is complete
    iff it is closed under the adjacent shifts j -> j - 1 (a swap j -> i is
    a chain of them), so for each bit b, one numpy pass checks f(x) =>
    f(x - b) for every x with b, and one checks f(x) => f(x - b + (b - 1))
    for every x with b and not b - 1."""
    m = len(B.universe())
    f = np.zeros(1 << m, dtype=bool)
    f[B.masks()[:, 0]] = True
    for b in range(m):
        split = f.reshape(-1, 2, 1 << b)  # [higher bits, bit b, lower bits]
        if (split[:, 1] > split[:, 0]).any():
            return False
        if b:
            split = f.reshape(-1, 2, 2, 1 << (b - 1))  # [higher, bit b, bit b - 1, lower]
            if (split[:, 1, 0] > split[:, 0, 1]).any():
                return False
    return True


def is_complete(B: IndexSet) -> bool:
    """Divisor closed, and for each member, supported position j, and free
    position i < j, the j-to-i swap stays in the set.  Square-free sets only.

    On the subset lattice where `_lattice_cheaper` holds (`_lattice_complete`),
    otherwise by the set-bit scans `_is_divisor_closed` and `_first_swap`."""
    if not B.is_square_free():
        raise DomainError("is_complete requires a square-free set")
    if B.max_index() >= len(B):
        # a complete set using position j holds the empty member and {1}, ..., {j}
        return False
    universe = B.universe()
    if _lattice_cheaper(len(B), len(universe)):
        # a complete set using position j uses every position below it too
        return universe == tuple(range(1, len(universe) + 1)) and _lattice_complete(B)
    masks = set(B.position_masks())
    return _is_divisor_closed(masks) and _first_swap(masks) is None


class _MaskRun:
    """A sequence of moves on one square-free set, on masks over `positions`.

    A member is a Python int with bit k set iff it supports positions[k]; the
    positions are those of B's universe and any swap target to come.  `slot`
    maps each member to its row in `parts`, its bits per slice (`_sliced`) of
    one product table per slice of the positions (`_slice_tables`).  A move
    replaces members M by x ^ flip, which keeps the XOR of any two of them, so
    S changes by twice the cross sum of the images with the rest R less that
    of M: one gather of 2|M| rows against the members, the columns of M
    zeroed (`score`).  `commit` applies a scored move without touching S;
    `move` scores, commits and records the step, carrying S in `s`, which is
    summed in full for B before the first move unless the caller set it.
    IndexSets are built for the result and for the 50-digit recertification
    of a swap whose margin is below the floor.
    """

    def __init__(self, t: WeightSequence, B: IndexSet, positions: tuple[int, ...], trace: TransformTrace):
        self.t, self.B, self.positions, self.trace = t, B, positions, trace
        rows = B.exponent_matrix(positions)
        bits = np.packbits(rows, axis=1, bitorder="little").tolist()
        self.slot = {int.from_bytes(x, "little"): r for r, x in enumerate(bits)}
        slices = _slices(len(positions))
        self.tables = _slice_tables(t.weights_for(positions), slices)
        self.cuts = [(s, (1 << k) - 1) for s, k in slices]
        self.parts = _sliced(_mask_words(rows), slices)
        self.s: float | None = None

    def position(self, u: int) -> int:
        return self.positions[u.bit_length() - 1]

    def index_set(self) -> IndexSet:
        units = [1 << (j - 1) for j in self.positions]
        return IndexSet.from_masks(sum([units[b] for b in _set_bits(x)]) for x in self.slot)

    def result(self) -> IndexSet:
        return self.index_set() if self.trace.steps else self.B

    def score(self, moved: list[int], flip: int) -> tuple[float, tuple]:
        """S after replacing the members `moved` by x ^ flip less S before,
        and the move for `commit`, holding the images' parts."""
        rows = np.array([self.slot[x] for x in moved], dtype=np.intp)
        k = len(rows)
        left = []
        for p, (s, low) in zip(self.parts, self.cuts):
            moved_parts = p[rows]
            left.append(np.concatenate((moved_parts, moved_parts ^ (flip >> s & low))))
        step = max(1, _BLOCK_BUDGET // (len(self.slot) * len(self.tables)))
        delta = 0.0
        for lo in range(0, 2 * k, step):
            block = _xor_products(self.tables, left, self.parts, slice(lo, lo + step))
            block[:, rows] = 0.0
            split = min(max(k - lo, 0), step)  # block rows of moved members, then images
            delta += float(block[split:].sum() - block[:split].sum())
        return 2.0 * delta, (moved, flip, rows, [x[k:] for x in left])

    def commit(self, move: tuple) -> None:
        """Apply a move that `score` returned; S is the caller's to carry."""
        moved, flip, rows, images = move
        # the images are not members, so none overwrites a member still to move
        for x in moved:
            self.slot[x ^ flip] = self.slot.pop(x)
        for p, image in zip(self.parts, images):
            p[rows] = image

    def move(self, moved: list[int], flip: int, description: str, certify_dps: int | None = None) -> None:
        """Replace the members `moved` by x ^ flip and record the step; a swap
        (`certify_dps` given) also records whether S rose strictly."""
        delta, move = self.score(moved, flip)
        strict = None if certify_dps is None else delta > 0.0
        before = self.index_set() if strict is not None and abs(delta) < STRICT_MARGIN_FLOOR else None
        self.commit(move)
        if before is not None:
            strict = (gcd_sum_mp(self.t, self.index_set(), dps=certify_dps)
                      > gcd_sum_mp(self.t, before, dps=certify_dps))
        if self.s is None:
            self.s = gcd_sum(self.t, self.B)
        step = TraceStep(description, len(self.slot), self.s, self.s + delta, strict)
        self.trace.steps.append(step)
        self.s = step.s_after

    def close(self) -> None:
        """Drop positions until the set is divisor closed: sweeps of ascending
        positions, each batch every member with the position whose divisor is
        absent, until a sweep changes nothing."""
        changed = True
        while changed:
            changed = False
            for u in _units(reduce(or_, self.slot, 0)):
                batch = [x for x in self.slot if x & u and x ^ u not in self.slot]
                if batch:
                    self.move(batch, u, f"drop position {self.position(u)} from {len(batch)} member(s)")
                    changed = True


def divisor_closure(
    t: WeightSequence, B: IndexSet
) -> tuple[IndexSet, TransformTrace]:
    """Replace members by divisors until the set is divisor closed.

    Sweeps positions in ascending order; each batch replaces every member
    with exponent 1 at the position whose divisor is absent.  Cardinality is
    preserved and S never decreases.  Output depends on the sweep order; this
    implementation fixes ascending positions.
    """
    if not B.is_square_free():
        raise DomainError("divisor_closure requires a square-free set")
    trace = TransformTrace(weights=t.label(), initial=B)
    run = _MaskRun(t, B, B.universe(), trace)
    run.close()
    trace.final = run.result()
    return trace.final, trace


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
    s_before: float | None = None,
) -> tuple[IndexSet, bool, float]:
    """Swap position j for i in every movable member; S strictly increases.

    Returns the new set, whether the increase was strict, and S(t, new set).
    `s_before`, when given, is taken as S(t, B) instead of summing B again.
    When the double-precision margin falls below STRICT_MARGIN_FLOOR, both
    sums are recomputed at `certify_dps` digits and strictness is decided
    there.
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
    if abs(s_after - s_before) >= STRICT_MARGIN_FLOOR:
        return result, s_after > s_before, s_after
    strict = gcd_sum_mp(t, result, dps=certify_dps) > gcd_sum_mp(t, B, dps=certify_dps)
    return result, strict, s_after


def normalize_to_complete(
    t: WeightSequence,
    B: IndexSet,
    certify_dps: int = 50,
) -> tuple[IndexSet, TransformTrace]:
    """Divisor-close B, then apply swaps until the set is complete.

    Swap pairs are scanned with ascending target j and ascending i below it;
    the first active pair is applied and the scan restarts.  Each swap
    strictly lowers the total weighted rank, so the loop terminates.

    A swap target i is a used position or the lowest unused one, since an
    unused i < j moves every member with j (so j falls out of use).  Hence no
    swap raises the number of used positions, at most |U| for B's universe U,
    and every target is one of U or 1, ..., min(N, |U| + 1): the positions of
    the run's masks.
    """
    if not B.is_square_free():
        raise DomainError("normalize_to_complete requires a square-free set")
    universe = B.universe()
    trace = TransformTrace(weights=t.label(), initial=B)
    top = min(len(B), len(universe) + 1)
    run = _MaskRun(t, B, tuple(sorted({*universe, *range(1, top + 1)})), trace)
    run.close()
    # twice the total weighted rank of the closed set
    max_steps = 10 + 2 * sum(run.position(u) for x in run.slot for u in _units(x))
    steps = 0
    while (pair := _first_swap(run.slot)) is not None:
        if steps >= max_steps:
            trace.final = run.result()
            raise TransformLimitError(f"swap iteration cap {max_steps} exceeded", trace=trace)
        ui, uj = pair
        run.move(_movable(run.slot, ui, uj), ui | uj,
                 f"swap position {run.position(uj)} -> {run.position(ui)}", certify_dps)
        steps += 1
    trace.final = run.result()
    return trace.final, trace


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
