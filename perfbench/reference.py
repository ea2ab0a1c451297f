"""Independent references and the per-job checks.

Nothing here imports gcdsums.  Pair sums come from a Walsh-Hadamard formula
(square-free, at most 22 positions), from split bitmask product tables (more
positions) or from integer gcds; eigenvalues from a dense numpy solve on a
matrix built here; completeness from a bitmask test; small sets and downsets
from the brute-force oracles in tests/oracles.py; cubes from closed forms.

A check returns a Verdict.  "failed" means the job raised, exited with an
unexpected code, or missed its reference by more than RTOL.  "wrong" means it
returned an answer that is plainly false: a structural claim that does not
hold, or a value off by more than GROSS_RTOL.
"""

from __future__ import annotations

import importlib.util
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from workloads import ALPHA, SMALL_PRIMES, factorize

RTOL = 1e-9
GROSS_RTOL = 1e-6
TIE_RTOL = 1e-12  # the program's documented tie tolerance for maximizers
_SPLIT_BITS = 20


@lru_cache(maxsize=None)
def oracles():
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("gcdsums_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Verdict:
    status: str  # "ok", "failed" or "wrong"
    cause: str = ""


class _Weights:
    """t_j = p_j^(-alpha) from this module's own prime list."""

    def __init__(self, alpha: float):
        self.alpha = alpha

    def weight_at(self, j: int) -> float:
        return float(SMALL_PRIMES[j - 1]) ** (-self.alpha)


class _Member:
    """A square-free member in the shape the oracles read: `.items` pairs."""

    def __init__(self, mask: int):
        self.items = tuple((b + 1, 1) for b in range(mask.bit_length()) if mask >> b & 1)


def _weights(m: int) -> np.ndarray:
    return np.array([float(p) ** (-ALPHA) for p in SMALL_PRIMES[:m]])


def _product_table(factors_if_clear: np.ndarray, factors_if_set: np.ndarray) -> np.ndarray:
    """table[x] = prod over bits i of (factors_if_set[i] if bit i of x else factors_if_clear[i])."""
    table = np.ones(1)
    for clear, bit in zip(factors_if_clear, factors_if_set):
        table = np.concatenate((table * clear, table * bit))
    return table


def _wht(a: np.ndarray) -> np.ndarray:
    n = a.size
    h = 1
    while h < n:
        pairs = a.reshape(-1, 2, h)
        a = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).reshape(n)
        h *= 2
    return a


def sf_sum(masks, m: int) -> float:
    """S over square-free members given as bitmasks on positions 1..m."""
    w = _weights(m)
    if m <= 22:
        # S = 2^-m sum_k (H T)[k] (H f)[k]^2, with H T[k] = prod_i (1 +- t_i)
        f = np.zeros(1 << m)
        f[np.asarray(masks, dtype=np.int64)] = 1.0
        ht = _product_table(1.0 + w, 1.0 - w)
        return float(np.sum(ht * _wht(f) ** 2)) / (1 << m)
    lo = _product_table(np.ones(_SPLIT_BITS), w[:_SPLIT_BITS])
    hi = _product_table(np.ones(m - _SPLIT_BITS), w[_SPLIT_BITS:])
    x = np.asarray(masks, dtype=np.int64)
    total = []
    for row in x:
        d = row ^ x
        total.append(float(np.sum(lo[d & ((1 << _SPLIT_BITS) - 1)] * hi[d >> _SPLIT_BITS])))
    return math.fsum(total)


def dense_matrix(masks, m: int) -> np.ndarray:
    table = _product_table(np.ones(m), _weights(m))
    x = np.asarray(masks, dtype=np.int64)
    return table[x[:, None] ^ x[None, :]]


def brute_sum(masks) -> float:
    return oracles().brute_pair_sum(_Weights(ALPHA), [_Member(x) for x in masks])


def int_sum(ints) -> float:
    """sum over pairs of (gcd(a, b)^2 / (a b))^alpha, in exact integer ratios."""
    terms = []
    for i, a in enumerate(ints):
        terms.append(1.0)
        for b in ints[i + 1:]:
            g = math.gcd(a, b)
            terms.append(2.0 * (g * g / (a * b)) ** ALPHA)
    return math.fsum(terms)


def grouping_ratio(ints, known_primes) -> float:
    """S over the integers divided by the weighted square-free form of their
    radicals: sum over radicals r, r' of sqrt(s_r s_r') (gcd^2 / (r r'))^alpha."""
    sizes: dict[int, int] = {}
    for v in ints:
        r = math.prod(factorize(v, known_primes))
        sizes[r] = sizes.get(r, 0) + 1
    rads = sorted(sizes)
    terms = []
    for i, a in enumerate(rads):
        terms.append(float(sizes[a]))
        for b in rads[i + 1:]:
            g = math.gcd(a, b)
            terms.append(2.0 * math.sqrt(sizes[a] * sizes[b]) * (g * g / (a * b)) ** ALPHA)
    return int_sum(ints) / math.fsum(terms)


def is_divisor_closed(masks) -> bool:
    s = set(masks)
    return all(x ^ 1 << b in s for x in s for b in range(x.bit_length()) if x >> b & 1)


def is_complete(masks) -> bool:
    s = set(masks)
    if not is_divisor_closed(s):
        return False
    for x in s:
        for j in range(x.bit_length()):
            if x >> j & 1:
                for i in range(j):
                    if not x >> i & 1 and (x ^ 1 << j | 1 << i) not in s:
                        return False
    return True


def closure_size(masks) -> int:
    """Size of the lcm closure: for square-free members the lcm is the OR."""
    xs = sorted(set(masks))
    return len({a | b for i, a in enumerate(xs) for b in xs[i:]})


@lru_cache(maxsize=None)
def downset_sums(m: int, n: int) -> tuple:
    """(S, downset) for every n-member downset of the m-cube, by brute force."""
    out = []
    for ds in oracles().brute_downsets(m, n):
        masks = sorted(ds)
        out.append((sf_sum(masks, m), tuple(masks)))
    return tuple(out)


def parse_mask(text: str) -> int:
    """`mi j:1 ...` to a bitmask; raises ValueError if an exponent is not 1."""
    tokens = text.split()
    if not tokens or tokens[0] != "mi":
        raise ValueError(f"not a multi-index: {text!r}")
    mask = 0
    for tok in tokens[1:]:
        j, e = tok.split(":")
        if int(e) != 1:
            raise ValueError(f"not square-free: {text!r}")
        mask |= 1 << (int(j) - 1)
    return mask


# ----------------------------------------------------------------- checks


class _Problems:
    def __init__(self):
        self.items: list[tuple[str, str]] = []

    def wrong(self, message: str) -> None:
        self.items.append(("wrong", message))

    def failed(self, message: str) -> None:
        self.items.append(("failed", message))

    def close(self, label: str, got, ref: float) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            self.wrong(f"{label} is {got!r}, expected a number")
            return
        err = abs(got - ref) / abs(ref)
        if err > GROSS_RTOL:
            self.wrong(f"{label} {got!r} vs reference {ref!r} (relative error {err:.2e})")
        elif err > RTOL:
            self.failed(f"{label} {got!r} vs reference {ref!r} (relative error {err:.2e})")

    def equal(self, label: str, got, ref) -> None:
        if got != ref:
            self.wrong(f"{label} is {got!r}, expected {ref!r}")

    def verdict(self) -> Verdict:
        for severity in ("wrong", "failed"):
            found = [m for s, m in self.items if s == severity]
            if found:
                return Verdict(severity, "; ".join(found))
        return Verdict("ok")


class Reference:
    """Reference values for one job, computed once and checked against the
    outcome of every pass."""

    def __init__(self, job):
        self.job = job
        self.e = job.expect
        self.values = getattr(self, f"_ref_{job.check}")()

    # reference values per check kind

    def _ref_cube(self):
        k = self.e["k"]
        return {"sum": math.prod(2.0 + 2.0 * float(p) ** (-ALPHA) for p in SMALL_PRIMES[:k])}

    def _ref_sf_sum(self):
        return {"sum": sf_sum(self.e["masks"], self.e["m"])}

    def _ref_matrix(self):
        M = dense_matrix(self.e["masks"], self.e["m"])
        eig = np.linalg.eigvalsh(M)
        rows = M.sum(axis=1)
        return {"sum": math.fsum(rows), "max_row_sum": float(rows.max()),
                "lam_min": float(eig[0]), "lam_max": float(eig[-1])}

    def _ref_mineig(self):
        return self._ref_matrix()

    def _ref_int_sum(self):
        ints = self.e["ints"]
        known = self.e.get("known_primes", ())
        square_free = all(e == 1 for v in ints for e in factorize(v, known).values())
        return {"sum": int_sum(ints),
                "ratio": None if square_free else grouping_ratio(ints, known)}

    def _ref_transform(self):
        return {"initial_sum": brute_sum(self.e["masks"])}

    def _ref_search(self):
        m, n = self.e["m"], self.e["n"]
        if self.e["mode"] == "exhaustive" and m <= 4:
            return {"downsets": downset_sums(m, n)}
        return {}

    def _ref_verify(self):
        return {}

    def _ref_certify(self):
        masks = self.e["masks"]
        return {"sum": sf_sum(masks, self.e["m"]), "closure_size": closure_size(masks)}

    def _ref_reject(self):
        return {}

    # checks per kind

    def check(self, outcome: dict) -> Verdict:
        """outcome: {"rc", "stdout", "stderr", "exc"} as recorded by a pass."""
        if outcome.get("exc"):
            return Verdict("failed", f"raised {outcome['exc']}")
        if self.job.check == "reject":
            return self._check_reject(outcome)
        if outcome["rc"] != 0:
            last = outcome["stderr"].strip().splitlines()[-1:] or [""]
            return Verdict("failed", f"exit {outcome['rc']}: {last[0]}")
        p = _Problems()
        try:
            getattr(self, f"_check_{self.job.check}")(outcome["stdout"], p)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            p.wrong(f"unreadable output: {type(exc).__name__}: {exc}")
        return p.verdict()

    def _check_reject(self, outcome) -> Verdict:
        lines = outcome["stderr"].strip().splitlines()
        if outcome["rc"] == 1 and len(lines) == 1 and not outcome["stdout"]:
            return Verdict("ok")
        return Verdict("failed", f"expected exit 1 with one line, got exit {outcome['rc']} "
                                 f"with {len(lines)} line(s) on stderr")

    def _check_cube(self, out, p):
        d = json.loads(out)
        ref = self.values["sum"]
        p.equal("n", d["n"], 1 << self.e["k"])
        p.close("sum", d["sum"], ref)
        p.close("closed_form", d["closed_form"], ref)
        p.equal("complete", d["complete"], True)

    def _check_sf_sum(self, out, p):
        d = json.loads(out)
        p.equal("n", d["n"], len(self.e["masks"]))
        p.close("sum", d["sum"], self.values["sum"])
        p.equal("support_grouping_ratio present", "support_grouping_ratio" in d, False)

    def _check_matrix(self, out, p):
        d = json.loads(out)
        v = self.values
        n = len(self.e["masks"])
        p.equal("n", d["n"], n)
        p.close("gamma", d["gamma"], v["sum"] / n)
        p.close("max_row_sum", d["max_row_sum"], v["max_row_sum"])
        if self.e["stat"] in ("spectral", "both"):
            p.close("spectral_norm", d["spectral_norm"], v["lam_max"])
        if self.e["stat"] in ("mineig", "both"):
            p.close("min_eigenvalue", d["min_eigenvalue"], v["lam_min"])

    def _check_mineig(self, out, p):
        d = json.loads(out)
        p.close("min_eigenvalue", d["min_eigenvalue"], self.values["lam_min"])

    def _check_int_sum(self, out, p):
        d = json.loads(out)
        v = self.values
        p.equal("n", d["n"], len(self.e["ints"]))
        p.close("sum", d["sum"], v["sum"])
        if v["ratio"] is None:
            p.equal("support_grouping_ratio present", "support_grouping_ratio" in d, False)
        else:
            p.close("support_grouping_ratio", d["support_grouping_ratio"], v["ratio"])

    def _check_transform(self, out, p):
        lines = [json.loads(line) for line in out.strip().splitlines()]
        steps, final = lines[1:-1], lines[-1]
        masks = [parse_mask(s) for s in final["final"]]
        p.equal("final size", len(masks), len(self.e["masks"]))
        p.equal("final members distinct", len(set(masks)), len(masks))
        complete = is_complete(masks)
        p.equal("complete flag", final["complete"], complete)
        if self.e["mode"] == "complete":
            p.equal("final set complete", complete, True)
        else:
            p.equal("final set divisor closed", is_divisor_closed(masks), True)
        s_final = brute_sum(masks)
        p.close("s_value", final["s_value"], s_final)
        for step in steps:
            if step["s_after"] < step["s_before"] * (1.0 - RTOL):
                p.wrong(f"S decreased at step {step['step']}: {step['description']}")
        if s_final < self.values["initial_sum"] * (1.0 - RTOL):
            p.wrong(f"final S {s_final!r} below initial {self.values['initial_sum']!r}")

    def _check_search(self, out, p):
        d = json.loads(out)
        m, n = self.e["m"], self.e["n"]
        found = [sorted(parse_mask(s) for s in mx) for mx in d["maximizers"]]
        if not found:
            p.wrong("no maximizer reported")
        full = (1 << m) - 1
        for masks in found:
            if len(masks) != n or len(set(masks)) != n or any(x & ~full for x in masks) \
                    or not is_divisor_closed(masks):
                p.wrong(f"maximizer {masks} is not an {n}-member downset of the {m}-cube")
                continue
            p.close("best_value vs maximizer S", d["best_value"], brute_sum(masks))
        downsets = self.values.get("downsets")
        if downsets is not None:
            best = max(s for s, _ in downsets)
            p.close("best_value", d["best_value"], best)
            p.equal("candidates", d["candidates"], len(downsets))
            ties = sorted(list(ds) for s, ds in downsets if s >= best * (1.0 - TIE_RTOL))
            p.equal("maximizers", sorted(found), ties)

    def _check_verify(self, out, p):
        lines = out.strip().splitlines()
        if not lines:
            p.wrong("no checks reported")
        for line in lines:
            if not line.startswith("PASS "):
                p.failed(line)

    def _check_certify(self, out, p):
        d = json.loads(out)
        p.equal("n", d["n"], len(self.e["masks"]))
        p.close("s_value", d["s_value"], self.values["sum"])
        p.equal("closure_size", d["closure_size"], self.values["closure_size"])
        p.equal("all_exact_hold", d["all_exact_hold"], True)
