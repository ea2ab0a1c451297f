"""Seeded job streams for the three workloads.

A workload is a fixed list of jobs built from (workload, seed, scale) alone, so
the pass processes and the checking process build identical inputs.  A job is
one user request: a `gcdsums` subcommand run on a generated set file, or, where
the CLI cannot bound the work, the public function the subcommand calls.

Square-free members are bitmasks: bit b set means position b + 1 is
supported.  Each job carries in `expect` the data its reference check needs;
the program sees only the set files and the argument vector.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

ALPHA = 0.5
MINEIG_MAX_ITERATIONS = 3000
PRIME_CEILING = 10 ** 9  # the program's prime-table ceiling; members above it are out of scope
LARGEST_PRIME_BELOW_1E8 = 99_999_989

WORKLOADS = ("sf_dense", "sf_churn", "int_certify")

WHY = {
    "sf_dense": "large square-free sets (cubes k=12-14, N=3000 subsets and downsets, 24-40 "
                "positions, matrices n=120-1000): pair kernel, matvec, eigen-solvers",
    "sf_churn": "many small square-free jobs (transforms, exhaustive and heuristic search, verify "
                "quick): per-call overhead, set construction, swap scans, recertification",
    "int_certify": "integer set files (random below 1e8, smooth, semiprimes, one out-of-range "
                   "member) and chain certificates: ingestion, weights, block kernel, closure",
}

# Sizes per scale.  "full" is what the benchmark measures; "tiny" only checks
# that every job kind runs and is checked.
SCALES = {
    "full": {
        "cubes": (12, 13, 14),
        # twelve sums of equal size, so the median job latency lies inside them
        "sf_subsets": ((3000, 12), (3000, 13), (3000, 14)) * 2,
        "sf_downsets": ((3000, 12), (3000, 13), (3000, 14)) * 2,
        "sf_wide": ((600, 24), (800, 32), (1000, 40)),
        "matrix_both": ((120, 10), (200, 10)),
        "matrix_spectral": ((400, 12), (700, 13), (1000, 14)),
        "mineig": ((300, 12), (500, 13), (700, 14), (900, 12)),
        "transform_complete": (30, 30),
        "transform_closure": (80, 25),
        "exhaustive": ((4, 6), (4, 9), (5, 8), (5, 11), (6, 8), (6, 10)),
        "heuristic": ((8, 40, 200), (9, 70, 200), (10, 100, 200)),
        "verify": 1,
        "smooth": (300,),
        "random_ints": (250,),
        "semiprimes": 3,
        "certify_cubes": (8, 9, 10),
        # fourteen certificates of equal size, so the median job latency lies inside them
        "certify_sets": (25,) * 14,
    },
    "tiny": {
        "cubes": (5,),
        "sf_subsets": ((40, 7),),
        "sf_downsets": ((30, 7),),
        "sf_wide": ((30, 24),),
        "matrix_both": ((20, 6),),
        "matrix_spectral": ((40, 7),),
        "mineig": ((210, 9),),
        "transform_complete": (2, 12),
        "transform_closure": (2, 12),
        "exhaustive": ((4, 6), (5, 8)),
        "heuristic": ((6, 12, 20),),
        "verify": 0,
        "smooth": (20,),
        "random_ints": (15,),
        "semiprimes": 1,
        "certify_cubes": (5,),
        "certify_sets": (25,),
    },
}


@dataclass
class Job:
    id: str
    op: str  # "cli": gcdsums.cli.main(argv); "mineig": min_eigenvalue(set file, iteration bound)
    argv: list[str]  # "@FILE" stands for the job's set file
    check: str  # reference kind, see reference.py
    expect: dict = field(default_factory=dict)
    file: str | None = None
    lines: list[str] | None = None


# ---------------------------------------------------------------- primes


def primes_upto(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES = primes_upto(10_000)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in SMALL_PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in SMALL_PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, known_primes=()) -> dict[int, int]:
    """Prime -> exponent, for n whose cofactor after `known_primes` and the
    primes below 10^4 is 1 or a prime (true for every n < 10^8)."""
    out: dict[int, int] = {}
    for p in known_primes:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if not is_prime(n):
            raise ValueError(f"cofactor {n} is not prime")
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------- set shapes


def mask_line(mask: int) -> str:
    positions = [b + 1 for b in range(mask.bit_length()) if mask >> b & 1]
    return "mi" + "".join(f" {j}:1" for j in positions)


def _grow(rng: random.Random, n: int, m: int, complete: bool) -> list[int]:
    """Grow a downset (or a complete set) of the m-cube from {0}, one random
    admissible mask at a time.  A mask is admissible when all its divisors
    are present and, for a complete set, all its lower swaps as well; adding
    a mask never makes another one inadmissible."""

    def admissible(x: int) -> bool:
        for j in range(m):
            if x >> j & 1:
                if x ^ 1 << j not in chosen:
                    return False
                if complete:
                    for i in range(j):
                        if not x >> i & 1 and (x ^ 1 << j | 1 << i) not in chosen:
                            return False
        return True

    chosen = {0}
    ready = [1 << b for b in range(m) if not complete or b == 0]
    queued = set(ready)
    while len(chosen) < n:
        k = rng.randrange(len(ready))
        ready[k], ready[-1] = ready[-1], ready[k]
        x = ready.pop()
        chosen.add(x)
        successors = [x | 1 << b for b in range(m) if not x >> b & 1]
        if complete:
            # x is a lower swap of every mask that moves one of its bits up
            successors += [x ^ 1 << i | 1 << j for i in range(m) if x >> i & 1
                           for j in range(i + 1, m) if not x >> j & 1]
        for y in successors:
            if y not in queued and admissible(y):
                queued.add(y)
                ready.append(y)
    return sorted(chosen)


def random_downset(rng: random.Random, n: int, m: int) -> list[int]:
    return _grow(rng, n, m, complete=False)


def random_complete(rng: random.Random, n: int, m: int) -> list[int]:
    return _grow(rng, n, m, complete=True)


def random_subset(rng: random.Random, n: int, m: int) -> list[int]:
    return sorted(rng.sample(range(1 << m), n))


def random_sparse(rng: random.Random, n: int, m: int, density: float) -> list[int]:
    """n distinct masks on m positions, each position set with probability `density`."""
    out: set[int] = set()
    while len(out) < n:
        out.add(sum(1 << b for b in range(m) if rng.random() < density))
    return sorted(out)


def random_small_sf(rng: random.Random, n: int, m: int) -> list[int]:
    """n members with a uniform support size, as in the library's own random sets."""
    out: set[int] = set()
    while len(out) < n:
        size = rng.randint(0, m)
        out.add(sum(1 << (j - 1) for j in rng.sample(range(1, m + 1), size)))
    return sorted(out)


# ---------------------------------------------------------------- jobs


def _common(deterministic: bool = True) -> list[str]:
    return ["--alpha", str(ALPHA)] + (["--deterministic"] if deterministic else [])


def _sf_file_job(jid: str, argv: list[str], masks: list[int], m: int, check: str,
                 op: str = "cli", **expect) -> Job:
    if op == "cli":
        argv = argv + _common()
    return Job(id=jid, op=op, argv=argv, check=check, expect={"masks": masks, "m": m, **expect},
               file=f"{jid}.txt", lines=[mask_line(x) for x in masks])


def _sf_dense(rng: random.Random, s: dict) -> list[Job]:
    jobs = [Job(id=f"cube-k{k}", op="cli", argv=["cube", "--k", str(k)] + _common(),
                check="cube", expect={"k": k})
            for k in s["cubes"]]
    shapes = (("subset", random_subset, s["sf_subsets"]),
              ("downset", random_downset, s["sf_downsets"]),
              ("wide", lambda r, n, m: random_sparse(r, n, m, 0.25), s["sf_wide"]))
    for label, shape, sizes in shapes:
        for i, (n, m) in enumerate(sizes):
            jobs.append(_sf_file_job(f"sum-{label}-{i}-n{n}-m{m}", ["sum", "@FILE"],
                                     shape(rng, n, m), m, "sf_sum"))
    for n, m in s["matrix_both"]:
        jobs.append(_sf_file_job(f"matrix-both-n{n}", ["matrix", "@FILE", "--stat", "both"],
                                 random_subset(rng, n, m), m, "matrix", stat="both"))
    for n, m in s["matrix_spectral"]:
        jobs.append(_sf_file_job(f"matrix-spectral-n{n}", ["matrix", "@FILE", "--stat", "spectral"],
                                 random_downset(rng, n, m), m, "matrix", stat="spectral"))
    # `matrix` has no iteration flag, so these jobs call min_eigenvalue
    # with the bound, on the same parsed set and weights.
    for n, m in s["mineig"]:
        jobs.append(_sf_file_job(f"mineig-downset-n{n}", ["@FILE", str(MINEIG_MAX_ITERATIONS)],
                                 random_downset(rng, n, m), m, "mineig", op="mineig"))
    return jobs


def _sf_churn(rng: random.Random, s: dict, seed: int) -> list[Job]:
    jobs = []
    for mode in ("complete", "closure"):
        count, n = s[f"transform_{mode}"]
        for i in range(count):
            jobs.append(_sf_file_job(f"transform-{mode}-{i}",
                                     ["transform", "@FILE", "--mode", mode],
                                     random_small_sf(rng, n, 12), 12, "transform", mode=mode))
    for m, n in s["exhaustive"]:
        jobs.append(Job(id=f"search-exhaustive-m{m}-n{n}", op="cli",
                        argv=["search", "--n", str(n), "--max-index", str(m),
                              "--mode", "exhaustive"] + _common(),
                        check="search", expect={"m": m, "n": n, "mode": "exhaustive"}))
    for m, n, iterations in s["heuristic"]:
        jobs.append(Job(id=f"search-heuristic-m{m}-n{n}", op="cli",
                        argv=["search", "--n", str(n), "--max-index", str(m),
                              "--mode", "heuristic", "--iterations", str(iterations),
                              "--seed", str(seed)] + _common(),
                        check="search", expect={"m": m, "n": n, "mode": "heuristic"}))
    for i in range(s["verify"]):
        jobs.append(Job(id=f"verify-quick-{i}", op="cli",
                        argv=["verify", "--suite", "quick", "--seed", str(seed + i),
                              "--deterministic"],
                        check="verify"))
    rng.shuffle(jobs)
    return jobs


def _int_file_job(jid: str, ints: list[int], check: str, command: str = "sum", **expect) -> Job:
    return Job(id=jid, op="cli", argv=[command, "@FILE"] + _common(), check=check,
               expect={"ints": ints, **expect}, file=f"{jid}.txt", lines=[str(v) for v in ints])


def _smooth_ints(rng: random.Random, n: int) -> list[int]:
    """Powers of the first twelve primes, each on its own support of one to six
    primes, so the support grouping has exactly n blocks."""
    out: dict[frozenset, int] = {}
    while len(out) < n:
        support = frozenset(rng.sample(SMALL_PRIMES[:12], rng.randint(1, 6)))
        v = math.prod(p ** rng.randint(1, 4) for p in support)
        if support not in out and v < 1 << 62:
            out[support] = v
    return sorted(out.values())


def _prime_between(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def _int_certify(rng: random.Random, s: dict) -> list[Job]:
    # Fixed order: the random integers come first and grow the prime table
    # once, so later jobs never pay for growth in a seed-dependent order.
    jobs = []
    for n in s["random_ints"]:
        # The first line is the largest prime below 1e8, so the prime table
        # grows in one step to the size every such file needs, for any seed.
        others = rng.sample(range(2, LARGEST_PRIME_BELOW_1E8), n - 1)
        ints = [LARGEST_PRIME_BELOW_1E8] + sorted(others)
        jobs.append(_int_file_job(f"sum-random-n{n}", ints, "int_sum"))
    for n in s["smooth"]:
        jobs.append(_int_file_job(f"sum-smooth-n{n}", _smooth_ints(rng, n), "int_sum"))
    # Semiprimes with both factors in [9e6, 1e7): the slowest in-scope case
    # for trial division, whose cost is set by the smaller factor.
    for i in range(s["semiprimes"]):
        p = _prime_between(rng, 9 * 10 ** 6, 10 ** 7 - 1000)
        q = _prime_between(rng, p + 1, 10 ** 7)
        ints = set(rng.sample(range(2, 10 ** 4), 20)) | {p * q}
        jobs.append(_int_file_job(f"sum-semiprime-{i}", sorted(ints), "int_sum",
                                  known_primes=[p, q]))
    big = _prime_between(rng, PRIME_CEILING + 1, 2 * PRIME_CEILING) * rng.randint(2, 1000)
    ints = rng.sample(range(2, 10 ** 4), 20)
    ints.insert(rng.randrange(len(ints) + 1), big)
    jobs.append(_int_file_job("sum-out-of-range", ints, "reject"))
    for k in s["certify_cubes"]:
        jobs.append(Job(id=f"certify-cube-k{k}", op="cli",
                        argv=["certify", "--cube", str(k)] + _common(), check="certify",
                        expect={"masks": list(range(1 << k)), "m": k}))
    for i, n in enumerate(s["certify_sets"]):
        masks = random_complete(rng, n, 16)
        ints = [math.prod(SMALL_PRIMES[b] for b in range(16) if x >> b & 1) for x in masks]
        jobs.append(_int_file_job(f"certify-complete-{i}-n{n}", ints, "certify",
                                  command="certify", masks=masks, m=16))
    return jobs


def build(name: str, seed: int, scale: str = "full") -> list[Job]:
    """The job list of workload `name` for `seed`, in running order."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    s = SCALES[scale]
    rng = random.Random(f"{name}:{seed}")
    if name == "sf_dense":
        jobs = _sf_dense(rng, s)
    elif name == "sf_churn":
        jobs = _sf_churn(rng, s, seed)
    else:
        jobs = _int_certify(rng, s)
    return jobs
