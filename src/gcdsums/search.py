"""Search for extremal square-free sets among downsets of a boolean lattice.

Divisor-closed square-free families over positions {1..m} are exactly the
downsets (order ideals) of the m-dimensional boolean lattice, and a set can
always be replaced by a downset without lowering its pair sum, so exhaustive
search ranges over downsets only.  The search runs on the members' position
masks (bit j - 1 for position j): positions {1..m} are the masks below 2^m.
`extremal_sf` builds one product table T over them, T[x] = prod of t_j over
the positions of x, so a pair's term t^|a-b| is T[a ^ b].  `local_search`
moves one set of masks through the transforms' move engine
(`transforms._MaskRun`), which scores a move by its change in S and applies
it.  Sets are built from masks (`IndexSet.from_masks`), with no `MultiIndex`
on the way.

IndexSets are built only where a full pair sum (`gcd_sum`) or a report needs
one: `extremal_sf` re-sums the candidates that may tie the best, and
`local_search` sums its initial set and both sets of a near tie.  Both build
the sets they report, and report their full sums.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError
from .gcdsum import IndexSet, _power_table, _set_bits, gcd_sum
from .transforms import TransformTrace, _first_swap, _MaskRun, _movable
from .weights import WeightSequence

EXHAUSTIVE_MAX_INDEX = 6
HEURISTIC_MAX_INDEX = 20  # the heuristic's documented input domain
CUBE_MAX_DIMENSION = 20
TIE_TOL = 1e-12
# the walk's running sums carry about n 2^-53 relative rounding; candidates
# within this much beyond the tie tolerance of the best get a full sum
_SUM_SLACK = 1e-9


def _table(t: WeightSequence, m: int) -> np.ndarray:
    """T[x] for every mask x below 2^m."""
    return _power_table(t.weights_for(range(1, m + 1)))


def cube_construction(k: int) -> IndexSet:
    """All 2^k square-free multi-indices on positions {1..k}."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > CUBE_MAX_DIMENSION:
        raise DomainError(f"cube dimension capped at {CUBE_MAX_DIMENSION} (2^k members)")
    return IndexSet.from_masks(range(1 << k))


def _check_exhaustive(m: int, n: int) -> None:
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if m > EXHAUSTIVE_MAX_INDEX:
        raise DomainError(
            f"exhaustive enumeration capped at m={EXHAUSTIVE_MAX_INDEX}; "
            f"the downset count grows doubly exponentially"
        )
    if not 1 <= n <= (1 << m):
        raise DomainError(f"need 1 <= n <= 2^m, got n={n}")


def _downsets(m: int, n: int, table: list[float]) -> Iterator[tuple[float, tuple[int, ...]]]:
    """(S, masks) for every n-member downset of the m-cube, each exactly once,
    with S summed over `table` as the walk adds members: adding x adds
    1 + 2 sum over the members z already picked of table[x ^ z].

    Masks are decided in (popcount, value) order, including before excluding,
    so the stream order is deterministic.  A mask is includable when none of
    its lower covers is missing (`missing`, kept as members come and go).
    `stack` holds, per picked mask, the order position after it: its
    excluding branch, still to walk.
    """
    order = sorted(range(1 << m), key=lambda x: (bin(x).count("1"), x))
    upper = [[x | 1 << b for b in range(m) if not x >> b & 1] for x in range(1 << m)]
    missing = [bin(x).count("1") for x in range(1 << m)]
    total = len(order)
    picked: list[int] = []
    sums = [0.0]
    stack: list[int] = []
    pos = 0
    while True:
        if len(picked) == n:
            yield sums[-1], tuple(picked)
        elif pos <= total - n + len(picked):
            x = order[pos]
            pos += 1
            if not missing[x]:
                for w in upper[x]:
                    missing[w] -= 1
                sums.append(sums[-1] + 1.0 + 2.0 * sum([table[x ^ z] for z in picked]))
                picked.append(x)
                stack.append(pos)
            continue
        if not stack:
            return
        pos = stack.pop()
        for w in upper[picked.pop()]:
            missing[w] += 1
        sums.pop()


def enumerate_downsets(m: int, n: int) -> Iterator[IndexSet]:
    """Every downset of cardinality n in the m-cube, each exactly once.

    Masks are decided in (popcount, value) order, including before excluding,
    so the stream order is deterministic.  m is capped: the downset count
    explodes past the 6-cube.
    """
    _check_exhaustive(m, n)
    for _, masks in _downsets(m, n, [0.0] * (1 << m)):
        yield IndexSet.from_masks(masks)


@dataclass
class SearchReport:
    """Outcome of a search: the best pair-sum value and every tied maximizer."""

    n: int
    max_index: int
    best_value: float
    gamma: float
    maximizers: tuple[IndexSet, ...]
    candidates: int
    elapsed_ms: float
    mode: str
    seed: int | None = None
    iterations: int | None = None

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {**vars(self), "maximizers": [s.member_strings() for s in self.maximizers]}
        if not include_elapsed:
            del out["elapsed_ms"]
        for key in ("seed", "iterations"):
            if out[key] is None:
                del out[key]
        return out


def extremal_sf(
    t: WeightSequence, n: int, m: int, tie_tol: float = TIE_TOL
) -> SearchReport:
    """Maximize S(t, .) over all n-member downsets of the m-cube.

    All maximizers within `tie_tol` relative of the best value are reported,
    in canonical order.  The walk's running sums only select the candidates
    that may tie; the best value and the ties come from their full sums.
    """
    _check_exhaustive(m, n)
    start = time.perf_counter()
    keep = 1.0 - tie_tol - _SUM_SLACK
    best = -1.0
    near: list[tuple[float, tuple[int, ...]]] = []
    count = 0
    for s, masks in _downsets(m, n, _table(t, m).tolist()):
        count += 1
        if s > best:
            best = s
            near = [c for c in near if c[0] >= best * keep]
        if s >= best * keep:
            near.append((s, masks))
    sums = [(gcd_sum(t, B), B) for B in (IndexSet.from_masks(masks) for _, masks in near)]
    best = max(v for v, _ in sums)
    # canonical order of the ties: their members in turn, each by its positions
    maximizers = tuple(
        sorted((B for v, B in sums if v >= best * (1.0 - tie_tol)),
               key=lambda s: [_set_bits(x) for x in s.position_masks()])
    )
    elapsed = (time.perf_counter() - start) * 1000.0
    return SearchReport(
        n=n,
        max_index=m,
        best_value=best,
        gamma=best / n,
        maximizers=maximizers,
        candidates=count,
        elapsed_ms=elapsed,
        mode="exhaustive",
    )


def _discard(items: list[int], x: int) -> None:
    """Remove x from the ascending list if it is there."""
    i = bisect_left(items, x)
    if i < len(items) and items[i] == x:
        del items[i]


class _Frontier:
    """A downset of the m-cube with its removable masks (maximal members
    other than the bottom) and addable masks (outside it, every lower cover
    in it), both ascending.  Adding or removing a mask changes only the
    status of its own covers, so a move costs O(m^2)."""

    def __init__(self, chosen: Iterable[int], m: int):
        self.m = m
        self.chosen = set(chosen)
        self.removable = []
        below: dict[int, int] = {}  # per mask outside: how many of its lower covers are in
        for x in self.chosen:
            covered = False
            for y in self._upper(x):
                if y in self.chosen:
                    covered = True
                else:
                    below[y] = below.get(y, 0) + 1
            if x and not covered:
                self.removable.append(x)
        self.removable.sort()
        self.addable = sorted(y for y, count in below.items() if count == y.bit_count())

    def _upper(self, x: int) -> list[int]:
        return [x | 1 << b for b in range(self.m) if not x >> b & 1]

    def _lower(self, x: int) -> list[int]:
        return [x ^ 1 << b for b in range(self.m) if x >> b & 1]

    def covers(self, x: int) -> list[int]:
        """Ascending indices in `addable` of the upper covers of x."""
        out = []
        for w in self._upper(x):
            i = bisect_left(self.addable, w)
            if i < len(self.addable) and self.addable[i] == w:
                out.append(i)
        return out

    def add(self, y: int) -> None:
        """Add an addable mask."""
        self.chosen.add(y)
        _discard(self.addable, y)
        for z in self._lower(y):
            _discard(self.removable, z)
        insort(self.removable, y)
        for w in self._upper(y):
            if all(z in self.chosen for z in self._lower(w)):
                insort(self.addable, w)

    def remove(self, x: int) -> None:
        """Remove a removable mask."""
        self.chosen.remove(x)
        _discard(self.removable, x)
        for w in self._upper(x):
            _discard(self.addable, w)
        insort(self.addable, x)
        for z in self._lower(x):
            if z and not any(w in self.chosen for w in self._upper(z)):
                insort(self.removable, z)


def _draw_skipping(rng: random.Random, items: list[int], skip: list[int]) -> int | None:
    """rng.choice over `items` without the ascending indices `skip`, drawing
    exactly as rng.choice over that filtered list; None when it is empty."""
    count = len(items) - len(skip)
    if not count:
        return None
    k = rng.choice(range(count))
    for i in skip:
        if i > k:
            break
        k += 1
    return items[k]


def local_search(
    t: WeightSequence,
    n: int,
    m: int,
    seed: int = 0,
    iterations: int = 1000,
) -> SearchReport:
    """Hill-climbing over downsets: single-member swaps plus position swaps.

    Heuristic only; the report never claims optimality.  iterations == 0
    returns the seeded initial downset unchanged.  Swaps are scored and
    applied by one `_MaskRun` over positions 1..m, which carries S by each
    move's delta; a single swap whose margin is within TIE_TOL relative is
    decided on the full sums of both sets.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if m > HEURISTIC_MAX_INDEX:
        raise DomainError(f"heuristic search capped at m={HEURISTIC_MAX_INDEX}")
    if not 1 <= n <= (1 << m):
        raise DomainError(f"need 1 <= n <= 2^m, got n={n}")
    if iterations < 0:
        raise DomainError(f"iterations must be >= 0, got {iterations}")
    start = time.perf_counter()
    rng = random.Random(seed)
    front = _Frontier({0}, m)
    while len(front.chosen) < n:
        front.add(rng.choice(front.addable))

    def full_sum(masks) -> float:
        return gcd_sum(t, IndexSet.from_masks(masks))

    # over positions 1..m the run's members are the position masks; run.s is
    # the current S
    initial = IndexSet.from_masks(front.chosen)
    run = _MaskRun(t, initial, tuple(range(1, m + 1)), TransformTrace(t.label(), initial))
    run.s = gcd_sum(t, initial)
    best_masks, best_value = frozenset(front.chosen), run.s
    evaluations = 1

    for it in range(iterations):
        if it % 8 == 7:
            pair = _first_swap(run.slot)
            if pair is None:
                continue
            ui, uj = pair
            run.move(_movable(run.slot, ui, uj), ui | uj,
                     f"swap position {run.position(uj)} -> {run.position(ui)}")
            front = _Frontier(run.slot, m)
            evaluations += 1
        else:
            if not front.removable:
                continue
            x = rng.choice(front.removable)
            # the masks addable without x, but x: those that do not cover x
            y = _draw_skipping(rng, front.addable, front.covers(x))
            if y is None:
                continue
            evaluations += 1
            delta, move = run.score([x], x ^ y)
            if abs(delta) <= TIE_TOL * run.s:
                s_candidate = full_sum(front.chosen - {x} | {y})
                s_before = full_sum(front.chosen)
                if not s_candidate > s_before:
                    run.s = s_before
                    continue
                run.s = s_candidate
            elif delta > 0:
                run.s += delta
            else:
                continue
            run.commit(move)
            front.remove(x)
            front.add(y)
        margin = run.s - best_value
        if margin > TIE_TOL * best_value or (
                abs(margin) <= TIE_TOL * best_value
                and full_sum(front.chosen) > full_sum(best_masks)):
            best_masks, best_value = frozenset(front.chosen), run.s

    best_set = IndexSet.from_masks(best_masks)
    best_value = gcd_sum(t, best_set)
    elapsed = (time.perf_counter() - start) * 1000.0
    return SearchReport(
        n=n,
        max_index=m,
        best_value=best_value,
        gamma=best_value / n,
        maximizers=(best_set,),
        candidates=evaluations,
        elapsed_ms=elapsed,
        mode="heuristic",
        seed=seed,
        iterations=iterations,
    )
