"""Search for extremal square-free sets among downsets of a boolean lattice.

Divisor-closed square-free families over positions {1..m} are exactly the
downsets (order ideals) of the m-dimensional boolean lattice, and a set can
always be replaced by a downset without lowering its pair sum, so exhaustive
search ranges over downsets only.  The search runs on the members' bitmasks
(`multiindex.to_mask`): positions {1..m} are the masks below 2^m.  IndexSets
are built only for the pair sums and the reports.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError
from .gcdsum import IndexSet, gcd_sum
from .multiindex import from_mask, to_mask
from .transforms import completeness_step, first_active_swap
from .weights import WeightSequence

EXHAUSTIVE_MAX_INDEX = 6
CUBE_MAX_DIMENSION = 20
TIE_TOL = 1e-12


def _preds(x: int, m: int) -> list[int]:
    return [x ^ (1 << b) for b in range(m) if x >> b & 1]


def cube_construction(k: int) -> IndexSet:
    """All 2^k square-free multi-indices on positions {1..k}."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k > CUBE_MAX_DIMENSION:
        raise DomainError(f"cube dimension capped at {CUBE_MAX_DIMENSION} (2^k members)")
    masks = np.arange(1 << k, dtype=np.int32)
    return IndexSet.from_rows(range(1, k + 1), masks[:, None] >> np.arange(k, dtype=np.int32) & 1)


def enumerate_downsets(m: int, n: int) -> Iterator[IndexSet]:
    """Every downset of cardinality n in the m-cube, each exactly once.

    Masks are decided in (popcount, value) order, including before excluding,
    so the stream order is deterministic.  m is capped: the downset count
    explodes past the 6-cube.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if m > EXHAUSTIVE_MAX_INDEX:
        raise DomainError(
            f"exhaustive enumeration capped at m={EXHAUSTIVE_MAX_INDEX}; "
            f"the downset count grows doubly exponentially"
        )
    if not 1 <= n <= (1 << m):
        raise DomainError(f"need 1 <= n <= 2^m, got n={n}")

    masks = sorted(range(1 << m), key=lambda x: (bin(x).count("1"), x))
    preds = [_preds(x, m) for x in masks]
    total = len(masks)
    chosen: set[int] = set()
    picked: list[int] = []

    def walk(pos: int) -> Iterator[IndexSet]:
        if len(picked) == n:
            yield IndexSet(map(from_mask, picked))
            return
        if pos >= total or len(picked) + (total - pos) < n:
            return
        x = masks[pos]
        if all(p in chosen for p in preds[pos]):
            chosen.add(x)
            picked.append(x)
            yield from walk(pos + 1)
            picked.pop()
            chosen.remove(x)
        yield from walk(pos + 1)

    yield from walk(0)


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
        out = {
            "n": self.n,
            "max_index": self.max_index,
            "best_value": self.best_value,
            "gamma": self.gamma,
            "maximizers": [[str(m) for m in s] for s in self.maximizers],
            "candidates": self.candidates,
            "mode": self.mode,
        }
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        if self.seed is not None:
            out["seed"] = self.seed
        if self.iterations is not None:
            out["iterations"] = self.iterations
        return out


def extremal_sf(
    t: WeightSequence, n: int, m: int, tie_tol: float = TIE_TOL
) -> SearchReport:
    """Maximize S(t, .) over all n-member downsets of the m-cube.

    All maximizers within `tie_tol` relative of the best value are reported,
    in canonical order.
    """
    start = time.perf_counter()
    best = -1.0
    ties: list[tuple[float, IndexSet]] = []
    count = 0
    for cand in enumerate_downsets(m, n):
        count += 1
        s = gcd_sum(t, cand)
        if s > best:
            best = s
            ties = [(v, c) for v, c in ties if v >= best * (1.0 - tie_tol)]
        if s >= best * (1.0 - tie_tol):
            ties.append((s, cand))
    maximizers = tuple(
        sorted((c for v, c in ties if v >= best * (1.0 - tie_tol)),
               key=lambda s: s.members)
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


def _addable(chosen: set[int], m: int) -> list[int]:
    # ascending masks outside the set whose predecessors all lie in it
    return [x for x in range(1 << m)
            if x not in chosen and all(p in chosen for p in _preds(x, m))]


def _random_downset(rng: random.Random, n: int, m: int) -> set[int]:
    chosen = {0}
    while len(chosen) < n:
        chosen.add(rng.choice(_addable(chosen, m)))
    return chosen


def _removable(chosen: set[int], m: int) -> list[int]:
    # maximal members other than the bottom: nothing in the set covers them
    out = []
    for x in chosen:
        if x == 0:
            continue
        if all((x | (1 << b)) not in chosen for b in range(m) if not x >> b & 1):
            out.append(x)
    return sorted(out)


def local_search(
    t: WeightSequence,
    n: int,
    m: int,
    seed: int = 0,
    iterations: int = 1000,
) -> SearchReport:
    """Hill-climbing over downsets: single-member swaps plus position swaps.

    Heuristic only; the report never claims optimality.  iterations == 0
    returns the seeded initial downset unchanged.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if not 1 <= n <= (1 << m):
        raise DomainError(f"need 1 <= n <= 2^m, got n={n}")
    start = time.perf_counter()
    rng = random.Random(seed)
    chosen = _random_downset(rng, n, m)
    current = IndexSet(map(from_mask, chosen))
    s_current = gcd_sum(t, current)
    best_set, best_value = current, s_current
    evaluations = 1

    for it in range(iterations):
        if it % 8 == 7:
            pair = first_active_swap(current)
            if pair is not None:
                current, _, s_current = completeness_step(t, current, *pair, s_before=s_current)
                chosen = {to_mask(mi) for mi in current}
                evaluations += 1
        else:
            removable = _removable(chosen, m)
            if not removable:
                continue
            x = rng.choice(removable)
            without = chosen - {x}
            addable = [y for y in _addable(without, m) if y != x]
            if not addable:
                continue
            y = rng.choice(addable)
            candidate_masks = without | {y}
            candidate = IndexSet(map(from_mask, candidate_masks))
            s_candidate = gcd_sum(t, candidate)
            evaluations += 1
            if s_candidate > s_current:
                chosen, current, s_current = candidate_masks, candidate, s_candidate
        if s_current > best_value:
            best_set, best_value = current, s_current

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
