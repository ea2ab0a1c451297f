"""Weight sequences t with t_j in (0,1), their powers t^a, and derived sequences.

Two base kinds exist: prime-power weights t_j = p_j^(-alpha) and explicit
finite lists with a stated tail rule.  On top of those sit the doubling map
(entries below 1/2 are doubled) and the auxiliary sequence used by the bound
chain, which swaps the far tail for a slowly growing substitute.

All logarithms are natural; `loglog`/`logloglog` are iterated natural logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import DomainError
from .multiindex import MultiIndex
from .primes import DEFAULT_TABLE, PrimeTable


def loglog(x: float) -> float:
    if x <= 1.0:
        raise DomainError(f"loglog requires x > 1, got {x}")
    return math.log(math.log(x))


def logloglog(x: float) -> float:
    if x <= math.e:
        raise DomainError(f"logloglog requires x > e, got {x}")
    return math.log(math.log(math.log(x)))


class WeightSequence:
    """Common behaviour; concrete kinds implement weight_at / weight_at_mp."""

    def weight_at(self, j: int) -> float:
        raise NotImplementedError

    def weight_at_mp(self, j: int) -> mp.mpf:
        raise NotImplementedError

    def pow(self, a: MultiIndex) -> float:
        """t^a = product over the support of t_j^(a_j); pow(zero) == 1."""
        out = 1.0
        for j, e in a.items:
            out *= self.weight_at(j) ** e
        return out

    def weights_for(self, indices) -> np.ndarray:
        return np.array([self.weight_at(int(j)) for j in indices], dtype=np.float64)

    def count_above_half(self) -> int:
        raise DomainError(f"{self.label()} does not certify a vanishing tail")

    def _leading_above_half(self) -> int:
        """Length of the leading run of weights > 1/2; for decreasing sequences
        that is the count of all of them."""
        count = 0
        while self.weight_at(count + 1) > 0.5:
            count += 1
        return count

    def label(self) -> str:
        raise NotImplementedError


class PrimePowerWeights(WeightSequence):
    """t_j = p_j^(-alpha) for alpha > 0 over the ascending primes."""

    def __init__(self, alpha: float, table: PrimeTable = DEFAULT_TABLE):
        alpha = float(alpha)
        if not (alpha > 0 and math.isfinite(alpha)):
            raise DomainError(f"alpha must be positive and finite, got {alpha}")
        self.alpha = alpha
        self.table = table

    def weight_at(self, j: int) -> float:
        if j < 1:
            raise DomainError(f"position must be >= 1, got {j}")
        return float(self.table.prime(j)) ** (-self.alpha)

    def weight_at_mp(self, j: int) -> mp.mpf:
        return mp.power(self.table.prime(j), -mp.mpf(self.alpha))

    def weights_for(self, indices) -> np.ndarray:
        """The weights at `indices` from one `PrimeTable.primes` call: a
        single gather when they all lie in the table's prefix."""
        idx = np.asarray(list(indices), dtype=np.int64)
        return self.table.primes(idx).astype(np.float64) ** (-self.alpha)

    def count_above_half(self) -> int:
        return self._leading_above_half()

    def label(self) -> str:
        return f"p^-{self.alpha:g}"


class ExplicitWeights(WeightSequence):
    """A finite strictly decreasing list in (0,1) plus a tail rule.

    tail_ratio None means the last value repeats forever (constant tail);
    a ratio r in (0,1) continues geometrically: t_{n+k} = t_n * r^k.
    """

    def __init__(self, values, tail_ratio: float | None = None):
        values = tuple(float(v) for v in values)
        if not values:
            raise DomainError("need at least one weight")
        prev = 1.0
        for v in values:
            if not 0.0 < v < 1.0:
                raise DomainError(f"weights must lie in (0,1), got {v}")
            if v >= prev:
                raise DomainError("weights must be strictly decreasing")
            prev = v
        if tail_ratio is not None and not 0.0 < float(tail_ratio) < 1.0:
            raise DomainError(f"tail ratio must lie in (0,1), got {tail_ratio}")
        self.values = values
        self.tail_ratio = None if tail_ratio is None else float(tail_ratio)

    def weight_at(self, j: int) -> float:
        if j < 1:
            raise DomainError(f"position must be >= 1, got {j}")
        n = len(self.values)
        if j <= n:
            return self.values[j - 1]
        if self.tail_ratio is None:
            return self.values[-1]
        return self.values[-1] * self.tail_ratio ** (j - n)

    def weight_at_mp(self, j: int) -> mp.mpf:
        if j < 1:
            raise DomainError(f"position must be >= 1, got {j}")
        n = len(self.values)
        if j <= n:
            return mp.mpf(self.values[j - 1])
        if self.tail_ratio is None:
            return mp.mpf(self.values[-1])
        return mp.mpf(self.values[-1]) * mp.mpf(self.tail_ratio) ** (j - n)

    def count_above_half(self) -> int:
        if self.tail_ratio is None:
            raise DomainError("constant-tail weights do not vanish; count_above_half rejected")
        return self._leading_above_half()

    def label(self) -> str:
        tail = "const" if self.tail_ratio is None else f"geo{self.tail_ratio:g}"
        return f"explicit[{len(self.values)},{tail}]"


class DoubledWeights(WeightSequence):
    """Entries below 1/2 doubled, others kept; output stays inside (0,1).

    The result need not be monotone even when the base is.
    """

    def __init__(self, base: WeightSequence):
        self.base = base

    def weight_at(self, j: int) -> float:
        x = self.base.weight_at(j)
        return 2.0 * x if x < 0.5 else x

    def weight_at_mp(self, j: int) -> mp.mpf:
        x = self.base.weight_at_mp(j)
        return 2 * x if x < mp.mpf(1) / 2 else x

    def count_above_half(self) -> int:
        # doubled value exceeds 1/2 iff the base exceeds 1/4, so scan the
        # base down to 1/4 using its own vanishing certificate
        self.base.count_above_half()
        count = 0
        j = 1
        while True:
            if self.weight_at(j) > 0.5:
                count += 1
            if self.base.weight_at(j) <= 0.25:
                return count
            j += 1

    def label(self) -> str:
        return f"doubled({self.base.label()})"


def doubled_weights(t: WeightSequence) -> DoubledWeights:
    return DoubledWeights(t)


def count_above_half(t: WeightSequence) -> int:
    """Number of positions with t_j > 1/2; requires a vanishing tail."""
    return t.count_above_half()


@dataclass(frozen=True)
class AuxiliaryWeights(WeightSequence):
    """Base weights up to log(n)/log(2); beyond, a slowly growing substitute.

    w_j = sqrt(c/6) * sqrt(logloglog n / (log n * loglog n)) * (log j - loglog n)
    for j above the threshold.  Requires n >= 21 so the triple log is positive.
    """

    base: WeightSequence
    n: float
    c: float

    def __post_init__(self):
        if not 21 <= self.n < math.inf:  # NaN fails too; an int of any size passes
            raise DomainError(f"n must be finite and >= 21, got {self.n}")
        if not 0 < self.c < math.inf:
            raise DomainError(f"c must be finite and positive, got {self.c}")

    @property
    def threshold(self) -> float:
        return math.log(self.n) / math.log(2.0)

    def weight_at(self, j: int) -> float:
        if j < 1:
            raise DomainError(f"position must be >= 1, got {j}")
        if j <= self.threshold:
            return self.base.weight_at(j)
        ll = loglog(self.n)
        lll = logloglog(self.n)
        value = (
            math.sqrt(self.c / 6.0)
            * math.sqrt(lll / (math.log(self.n) * ll))
            * (math.log(j) - ll)
        )
        if value <= 0.0:
            # unreachable with the exact threshold: j > log n / log 2 forces
            # log j > loglog n; kept as a guard for exotic callers
            raise DomainError(f"nonpositive auxiliary weight at position {j}")
        return value

    def weight_at_mp(self, j: int) -> mp.mpf:
        if j <= self.threshold:
            return self.base.weight_at_mp(j)
        n = mp.mpf(self.n)
        l1 = mp.log(n)
        l2 = mp.log(l1)
        l3 = mp.log(l2)
        value = mp.sqrt(mp.mpf(self.c) / 6) * mp.sqrt(l3 / (l1 * l2)) * (mp.log(j) - l2)
        if value <= 0:
            raise DomainError(f"nonpositive auxiliary weight at position {j}")
        return value

    def label(self) -> str:
        return f"aux({self.base.label()},n={self.n:g},c={self.c:g})"


def verify_decay(t: WeightSequence, j_max: int) -> float:
    """sup of t_j * sqrt(j log j) over 2 <= j <= j_max.

    The smallest constant c for which t_j <= c / sqrt(j log j) holds on the
    scanned range; monotone non-decreasing in j_max.
    """
    if j_max < 2:
        raise DomainError(f"j_max must be >= 2, got {j_max}")
    js = np.arange(2, j_max + 1, dtype=np.float64)
    w = t.weights_for(np.arange(2, j_max + 1))
    return float(np.max(w * np.sqrt(js * np.log(js))))
