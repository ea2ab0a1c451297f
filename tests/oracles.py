"""Independent reference computations used as test oracles.

Everything here is deliberately written from first principles (plain dicts,
double loops, closed forms) so it shares no code path with the library.
"""

import io
import math

import mpmath
import numpy as np


def dict_abs_diff(a, b) -> dict:
    d = {j: e for j, e in a.items}
    for j, e in b.items:
        d[j] = abs(d.get(j, 0) - e)
    return {j: e for j, e in d.items() if e}


def pow_from_scratch(t, exponents: dict) -> float:
    out = 1.0
    for j, e in exponents.items():
        out *= t.weight_at(j) ** e
    return out


def brute_pair_sum(t, members) -> float:
    """O(N^2) pair sum computed termwise with dict arithmetic."""
    total = []
    for a in members:
        for b in members:
            total.append(pow_from_scratch(t, dict_abs_diff(a, b)))
    return math.fsum(total)


def brute_pair_sum_mp(t, members, dps: int = 50):
    """S(t, members) termwise at `dps` digits: per ordered pair, the product of
    t's `weight_at_mp` powers over the positions of |a - b| ascending, then
    one mpmath fsum over the pairs in order."""
    with mpmath.workdps(dps):
        terms = []
        for a in members:
            for b in members:
                term = mpmath.mpf(1)
                for j, e in sorted(dict_abs_diff(a, b).items()):
                    term *= t.weight_at_mp(j) ** e
                terms.append(term)
        return mpmath.fsum(terms)


def brute_cross_sum(t, left, right) -> float:
    return math.fsum(
        pow_from_scratch(t, dict_abs_diff(a, b)) for a in left for b in right
    )


def brute_pair_matrix(t, members) -> list:
    """Rows of t^|a-b| over the members, termwise with dict arithmetic."""
    return [[pow_from_scratch(t, dict_abs_diff(a, b)) for b in members] for a in members]


def brute_weighted_form(t, members, sizes) -> float:
    """sum over pairs of sqrt(sizes_k * sizes_l) * t^|members_k - members_l|."""
    return math.fsum(
        math.sqrt(sk * sl) * pow_from_scratch(t, dict_abs_diff(a, b))
        for a, sk in zip(members, sizes)
        for b, sl in zip(members, sizes)
    )


def lcm(a, b):
    """Componentwise max of two multi-indices (least common multiple of the
    encoded integers), as a MultiIndex."""
    from gcdsums import MultiIndex

    d = {j: e for j, e in a.items}
    for j, e in b.items:
        d[j] = max(d.get(j, 0), e)
    return MultiIndex(d)


def brute_lcm_closure(members) -> set:
    """Every componentwise max of two members (a member with itself included),
    each as its sorted (position, exponent) tuple."""
    out = set()
    for a in members:
        for b in members:
            d = {j: e for j, e in a.items}
            for j, e in b.items:
                d[j] = max(d.get(j, 0), e)
            out.add(tuple(sorted(d.items())))
    return out


def brute_closure_majorant(t, members) -> float:
    """sum over c in the lcm closure of (sum over members a <= c of
    t^(c - a))^2, termwise with dict arithmetic."""
    squares = []
    for c in map(dict, brute_lcm_closure(members)):
        inner = math.fsum(
            pow_from_scratch(t, {j: e - a.exponent(j) for j, e in c.items()})
            for a in members
            if all(e <= c.get(j, 0) for j, e in a.items)
        )
        squares.append(inner * inner)
    return math.fsum(squares)


def brute_is_divisor_closed(members) -> bool:
    """Every member minus any supported position stays in the set."""
    membership = set(members)
    for m in members:
        for j, _ in m.items:
            if m.with_unit_removed(j) not in membership:
                return False
    return True


def brute_is_complete(members) -> bool:
    """Completeness by multi-index arithmetic: divisor closed, and every swap of
    a supported position j for a free i < j stays in the set."""
    if not brute_is_divisor_closed(members):
        return False
    membership = set(members)
    for m in members:
        for j, _ in m.items:
            for i in range(1, j):
                if m.exponent(i) >= 1:
                    continue
                if m.with_unit_removed(j).with_unit_added(i) not in membership:
                    return False
    return True


def _brute_movable(m, i, j, membership) -> bool:
    return (
        m.exponent(j) == 1
        and m.exponent(i) == 0
        and m.with_unit_removed(j).with_unit_added(i) not in membership
    )


def brute_first_active_swap(members):
    """First (i, j), ascending j then ascending i < j, with a movable member."""
    membership = set(members)
    for j in sorted({j for m in members for j in m.support()}):
        for i in range(1, j):
            if any(_brute_movable(m, i, j, membership) for m in members):
                return i, j
    return None


def brute_swap_partition(members, i, j) -> tuple:
    """(movable, saturated, both_lifted, i_lifted, rest) as sets of members,
    classified by multi-index arithmetic on the (i, j)-free base."""
    membership = set(members)
    parts = tuple(set() for _ in range(5))
    for m in members:
        if _brute_movable(m, i, j, membership):
            parts[0].add(m)
            continue
        base = m
        for k in (i, j):
            if base.exponent(k):
                base = base.with_unit_removed(k)
        with_i = base.with_unit_added(i)
        with_j = base.with_unit_added(j)
        if with_i.with_unit_added(j) in membership:
            parts[1].add(m)
        elif with_i in membership and with_j in membership:
            parts[2].add(m)
        elif with_i in membership:
            parts[3].add(m)
        else:
            parts[4].add(m)
    return parts


def brute_downsets(m: int, n: int) -> set:
    """Every size-n downset of the m-cube by scanning all 2^(2^m) subsets."""
    assert m <= 4
    masks = list(range(1 << m))
    found = set()
    for bits in range(1 << (1 << m)):
        subset = [x for x in masks if bits >> x & 1]
        if len(subset) != n:
            continue
        ss = set(subset)
        if all(
            (x ^ (1 << b)) in ss
            for x in subset
            for b in range(m)
            if x >> b & 1
        ):
            found.add(frozenset(subset))
    return found


def trial_division(n: int) -> dict:
    """Prime -> exponent by bare trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def smallest_prime_factors(limit: int) -> list:
    """spf[n] for 0 <= n <= limit, spf[n] = n for a prime and 0 for n < 2:
    each prime p, from the largest up to sqrt(limit) down, marks its
    multiples from p^2, so the smallest mark is written last."""
    spf = list(range(limit + 1))
    spf[:2] = [0, 0]
    for p in reversed(range(2, math.isqrt(limit) + 1)):
        spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    return spf


def factorization_from_spf(n: int, spf: list) -> dict:
    """Prime -> exponent of 1 <= n < len(spf), by repeated smallest factors."""
    out = {}
    while n > 1:
        p = spf[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


def primes_upto(limit: int) -> list:
    """Primes <= limit by a plain bytearray sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if flags[p]]


def tail_series_reference(n, digits: int = 40):
    """sum_{j > log n / log 2} 1 / (j log j (log j - loglog n)) at `digits`
    digits: terms summed directly below M = 2000, then Euler-Maclaurin from M
    with the closed-form integral and the corrections through f^(5), whose
    remainder is far below 1e-20 relative at M = 2000."""
    with mpmath.workdps(digits):
        n = mpmath.mpf(n)
        a = mpmath.log(mpmath.log(n))
        j0 = int(mpmath.floor(mpmath.log(n) / mpmath.log(2))) + 1

        def f(x):
            u = mpmath.log(x)
            return 1 / (x * u * (u - a))

        M = mpmath.mpf(2000)
        direct = mpmath.fsum(f(mpmath.mpf(j)) for j in range(j0, 2000))
        u = mpmath.log(M)
        integral = -mpmath.log((u - a) / u) / a
        tail = (
            integral
            + f(M) / 2
            - mpmath.diff(f, M, 1) / 12
            + mpmath.diff(f, M, 3) / 720
            - mpmath.diff(f, M, 5) / 30240
        )
        return direct + tail


def tail_direct_sum(n, cap: int = 10 ** 7) -> float:
    """The series summed term by term up to j = cap, plus the integral from
    cap to infinity: an upper bound, high by about half the last term."""
    a = math.log(math.log(n))
    j0 = math.floor(math.log(n) / math.log(2)) + 1
    parts = []
    for lo in range(j0, cap + 1, 1 << 20):
        js = np.arange(lo, min(lo + (1 << 20), cap + 1), dtype=np.float64)
        logs = np.log(js)
        parts.append(float(np.sum(1.0 / (js * logs * (logs - a)))))
    u = math.log(cap)
    return math.fsum(parts) - math.log((u - a) / u) / a


def tail_unchunked(n, end: int = 1 << 17):
    """tail_sum's estimate from one array of every direct term below `end`
    and one fsum over it, as (value, estimate, scaled_gap, width)."""
    from gcdsums.bounds import TailEstimate

    a = math.log(math.log(n))
    j0 = math.floor(math.log(n) / math.log(2.0)) + 1

    def term(j):
        u = np.log(j)
        return 1.0 / (j * u * (u - a))

    def antiderivative(x):
        u = math.log(x)
        return math.log((u - a) / u) / a

    direct = math.fsum(term(np.arange(j0, end, dtype=np.float64)))
    value = direct - antiderivative(end - 0.5)
    lower = direct + float(term(float(end))) / 2.0 - antiderivative(float(end))
    estimate = math.log(math.log(math.log(n))) / a
    return TailEstimate(value=value, estimate=estimate,
                        scaled_gap=abs(value - estimate) * a, width=value - lower)


FIRST_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def _format_items(items) -> str:
    return "mi " + " ".join(f"{j}:{e}" for j, e in items) if items else "mi"


def chain_rows_reference(t, aux, members, threshold, closure):
    """The chain certificate's per-closure-member loop and per-member exchange
    loop as they stood before the bitmask rewrite: exponent rows over the
    universe, a witness scan per row, compensated sums of exp(diff . log w).

    `closure` is sorted(brute_lcm_closure(members)).  Returns (records,
    inner_by_member): one dict per closure member, in canonical order, with
    the fields of a BetaRecord, and per member of `members` the sum over
    closure rows above it of (t^2/w)^(c - a).
    """
    universe = sorted({j for m in members for j, _ in m.items})
    pos = {j: i for i, j in enumerate(universe)}
    E = np.zeros((len(members), len(universe)), dtype=np.int16)
    for r, m in enumerate(members):
        for j, e in m.items:
            E[r, pos[j]] = e
    F = np.zeros((len(closure), len(universe)), dtype=np.int16)
    for r, items in enumerate(closure):
        for j, e in items:
            F[r, pos[j]] = e
    t_vals = np.array([t.weight_at(j) for j in universe])
    w_vals = np.array([aux.weight_at(j) for j in universe])
    log_t, log_w = np.log(t_vals), np.log(w_vals)
    log_tw = 2.0 * log_t - log_w
    records = []
    for r, row in enumerate(F):
        below = E[np.all(E <= row, axis=1)]
        diff = (row[None, :] - below).astype(np.float64)
        sums = [math.fsum(np.exp(diff @ lw)) for lw in (log_t, log_w, log_tw)]
        supp_pos = np.flatnonzero(row)
        low_pos = [p for p in supp_pos if universe[p] <= threshold]
        high_pos = [p for p in supp_pos if universe[p] > threshold]
        wk = wl = -1
        idx = np.flatnonzero(np.all(E <= row, axis=1))
        for k in idx:
            joined = np.maximum(E[k], E[idx])
            hit = np.flatnonzero(np.all(joined == row[None, :], axis=1))
            if hit.size:
                wk, wl = int(k), int(idx[hit[0]])
                break
        records.append({
            "beta": _format_items(closure[r]),
            "support_size": int(supp_pos.size),
            "low_size": len(low_pos),
            "high_size": len(high_pos),
            "inner_sum": sums[0],
            "aux_sum": sums[1],
            "ratio_sum": sums[2],
            "euler_product": float(np.prod(1.0 + w_vals[supp_pos])) if supp_pos.size else 1.0,
            "high_weight_sum": float(math.fsum(w_vals[p] for p in high_pos)),
            "witness_k": wk,
            "witness_l": wl,
        })
    inner_by_member = []
    for k in range(len(members)):
        above = np.all(F >= E[k][None, :], axis=1)
        diff = (F[above] - E[k][None, :]).astype(np.float64)
        inner_by_member.append(float(math.fsum(np.exp(diff @ log_tw))))
    return records, inner_by_member


# The extremal searches as they stood before they moved onto masks and one
# product table: every candidate an IndexSet with a full gcd_sum, and the
# heuristic's frontier rescanned over all 2^m masks.  Kept verbatim (library
# calls and all) so the reports can be compared field by field.

def _preds_reference(x: int, m: int) -> list[int]:
    return [x ^ (1 << b) for b in range(m) if x >> b & 1]


def enumerate_downsets_reference(m: int, n: int):
    from gcdsums import DomainError, IndexSet
    from gcdsums.multiindex import from_mask

    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if m > 6:
        raise DomainError("exhaustive enumeration capped at m=6")
    if not 1 <= n <= (1 << m):
        raise DomainError(f"need 1 <= n <= 2^m, got n={n}")

    masks = sorted(range(1 << m), key=lambda x: (bin(x).count("1"), x))
    preds = [_preds_reference(x, m) for x in masks]
    total = len(masks)
    chosen: set[int] = set()
    picked: list[int] = []

    def walk(pos: int):
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


def extremal_sf_reference(t, n: int, m: int, tie_tol: float = 1e-12):
    from gcdsums import gcd_sum
    from gcdsums.search import SearchReport

    best = -1.0
    ties = []
    count = 0
    for cand in enumerate_downsets_reference(m, n):
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
    return SearchReport(
        n=n,
        max_index=m,
        best_value=best,
        gamma=best / n,
        maximizers=maximizers,
        candidates=count,
        elapsed_ms=0.0,
        mode="exhaustive",
    )


def addable_reference(chosen: set, m: int) -> list:
    # ascending masks outside the set whose predecessors all lie in it
    return [x for x in range(1 << m)
            if x not in chosen and all(p in chosen for p in _preds_reference(x, m))]


def random_downset_reference(rng, n: int, m: int) -> set:
    chosen = {0}
    while len(chosen) < n:
        chosen.add(rng.choice(addable_reference(chosen, m)))
    return chosen


def grown_downset(rng, n: int, m: int) -> set:
    """A random downset of n masks of the m-cube, grown from {0} one random
    mask at a time among those whose lower covers are all in it, kept in a
    list as they become addable: O(n m^2), for sets too large for
    `random_downset_reference`, which rescans the cube per mask."""
    chosen, ready = {0}, [1 << b for b in range(m)]
    while len(chosen) < n:
        x = ready.pop(rng.randrange(len(ready)))
        chosen.add(x)
        ready += [y for y in (x | 1 << b for b in range(m) if not x >> b & 1)
                  if all(y ^ 1 << c in chosen for c in range(m) if y >> c & 1)]
    return chosen


def removable_reference(chosen: set, m: int) -> list:
    # maximal members other than the bottom: nothing in the set covers them
    out = []
    for x in chosen:
        if x == 0:
            continue
        if all((x | (1 << b)) not in chosen for b in range(m) if not x >> b & 1):
            out.append(x)
    return sorted(out)


def local_search_reference(t, n: int, m: int, seed: int = 0, iterations: int = 1000):
    import random

    from gcdsums import IndexSet, completeness_step, first_active_swap, gcd_sum
    from gcdsums.multiindex import from_mask, to_mask
    from gcdsums.search import SearchReport

    rng = random.Random(seed)
    chosen = random_downset_reference(rng, n, m)
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
            removable = removable_reference(chosen, m)
            if not removable:
                continue
            x = rng.choice(removable)
            without = chosen - {x}
            addable = [y for y in addable_reference(without, m) if y != x]
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

    return SearchReport(
        n=n,
        max_index=m,
        best_value=best_value,
        gamma=best_value / n,
        maximizers=(best_set,),
        candidates=evaluations,
        elapsed_ms=0.0,
        mode="heuristic",
        seed=seed,
        iterations=iterations,
    )


def eager_index_set(members):
    """The eager set construction that rows replaced: the distinct members
    sorted as MultiIndex values, the universe from their supports, the
    exponent matrix filled member by member, and (square-free only) the mask
    words with universe column i at bit i % 64 of word i // 64.  Returns
    (members, universe, matrix, words or None)."""
    members = tuple(sorted(members))
    if len(set(members)) != len(members):
        raise ValueError("members must be pairwise distinct")
    universe = tuple(sorted({j for m in members for j, _ in m.items}))
    column = {j: i for i, j in enumerate(universe)}
    matrix = np.zeros((len(members), len(universe)), dtype=np.int16)
    for r, m in enumerate(members):
        for j, e in m.items:
            matrix[r, column[j]] = e
    if matrix.max(initial=0) > 1:
        return members, universe, matrix, None
    words = np.zeros((len(members), max(1, -(-len(universe) // 64))), dtype=np.uint64)
    for r, c in zip(*np.nonzero(matrix)):
        words[r, c // 64] |= np.uint64(1 << (c % 64))
    return members, universe, matrix, words


def parse_set_text_reference(text: str) -> dict:
    """The line-by-line parse of a set file that the two-phase parse
    replaced: each line ranked as it is read, the first failing line
    raising ParseError.  Returns {(position, exponent) pairs: line}.

    The text is split as a file opened in text mode splits it: `\r\n` and
    `\r` end a line as `\n` does, and no other character does (not `\x0c`,
    as `str.splitlines` would have it)."""
    from gcdsums.errors import DomainError, ParseError
    from gcdsums.multiindex import format_items, from_integer, parse_items

    seen = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("mi"):
                items = tuple(parse_items(line))
            else:
                value = int(line)
                if value >= 1 << 63:
                    raise DomainError(f"{value} is beyond the 64-bit range")
                items = from_integer(value).items
        except DomainError as exc:
            raise ParseError(str(exc), line=lineno) from None
        except ValueError:
            raise ParseError(f"malformed line {line!r}", line=lineno) from None
        if items in seen:
            raise ParseError(
                f"duplicate member {format_items(items)} (first seen at line {seen[items]})",
                line=lineno,
            )
        seen[items] = lineno
    if not seen:
        raise ParseError("set file has no members")
    return seen


def divisor_closure_reference(t, B):
    """The sweeps of `divisor_closure` on members, each batch summed in full:
    (closed set, [(description, s_before, s_after)])."""
    from gcdsums import IndexSet, gcd_sum

    current, steps, s = set(B.members), [], None
    changed = True
    while changed:
        changed = False
        for j in sorted({j for m in current for j in m.support()}):
            batch = [m for m in current if m.exponent(j) == 1 and m.with_unit_removed(j) not in current]
            if not batch:
                continue
            s = gcd_sum(t, IndexSet(current)) if s is None else s
            current.difference_update(batch)
            current.update(m.with_unit_removed(j) for m in batch)
            s_after = gcd_sum(t, IndexSet(current))
            steps.append((f"drop position {j} from {len(batch)} member(s)", s, s_after))
            s, changed = s_after, True
    return IndexSet(current), steps


def normalize_reference(t, B):
    """`normalize_to_complete` replayed through `first_active_swap` and
    `completeness_step`, which sums every swapped set in full:
    (complete set, [(description, s_before, s_after, strict)])."""
    from gcdsums import completeness_step, first_active_swap, gcd_sum

    current, closure = divisor_closure_reference(t, B)
    steps = [(d, s0, s1, None) for d, s0, s1 in closure]
    s = steps[-1][2] if steps else gcd_sum(t, current)
    while (pair := first_active_swap(current)) is not None:
        current, strict, s_after = completeness_step(t, current, *pair, s_before=s)
        steps.append((f"swap position {pair[1]} -> {pair[0]}", s, s_after, strict))
        s = s_after
    return current, steps
