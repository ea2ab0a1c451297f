"""Spans around the calls into each gcdsums module, from outside the program.

`Tracer.install()` rebinds the public functions and methods in INSTRUMENTED to
timing wrappers: each plain function in its defining module and in every
gcdsums module that imported it by name, each method on its class.
`uninstall()` restores the originals.

Three recording modes keep the cost bounded:
- "span": one record per call (name, start, end, parent span, job id, child
  time, error flag, annotation), kept in memory and written out at the end;
- "agg": per-name calls, total, self and max time, for functions called once
  per pair or per prime (no record per call);
- "count": calls only, for constructors.
Every timed call adds its duration to the child time of the enclosing timed
call, so self time is exact for spans and aggregates alike.

LAYER_METRICS names each per-layer metric, its unit and direction, the
end-to-end metric it should move and the workload where it does most of its
work; `layer_metrics()` derives them from one traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, mode)
INSTRUMENTED = (
    ("gcdsums.cli", "main", "span"),
    ("gcdsums.cli", "parse_set_file", "span"),
    ("gcdsums.primes", "PrimeTable.prime", "agg"),
    ("gcdsums.primes", "PrimeTable.first", "agg"),
    ("gcdsums.primes", "PrimeTable.index_of", "agg"),
    ("gcdsums.multiindex", "from_integer", "agg"),
    ("gcdsums.multiindex", "MultiIndex.__init__", "count"),
    ("gcdsums.weights", "WeightSequence.pow", "agg"),
    ("gcdsums.weights", "WeightSequence.pow_mp", "agg"),
    ("gcdsums.weights", "WeightSequence.weights_for", "agg"),
    ("gcdsums.weights", "PrimePowerWeights.weights_for", "agg"),
    ("gcdsums.gcdsum", "IndexSet.__init__", "count"),
    ("gcdsums.gcdsum", "gcd_sum", "span"),
    ("gcdsums.gcdsum", "gcd_row_sums", "span"),
    ("gcdsums.gcdsum", "gcd_sum_mp", "span"),
    ("gcdsums.gcdsum", "GcdMatrix.matvec", "span"),
    ("gcdsums.gcdsum", "GcdMatrix.dense", "span"),
    ("gcdsums.gcdsum", "spectral_norm", "span"),
    ("gcdsums.gcdsum", "min_eigenvalue", "span"),
    ("gcdsums.gcdsum", "support_grouping_ratio", "span"),
    ("gcdsums.gcdsum", "lcm_closure", "span"),
    ("gcdsums.transforms", "normalize_to_complete", "span"),
    ("gcdsums.transforms", "divisor_closure", "span"),
    ("gcdsums.transforms", "completeness_step", "span"),
    ("gcdsums.transforms", "swap_partition", "span"),
    ("gcdsums.transforms", "is_complete", "span"),
    ("gcdsums.search", "cube_construction", "span"),
    ("gcdsums.search", "enumerate_downsets", "agg"),
    ("gcdsums.search", "extremal_sf", "span"),
    ("gcdsums.search", "local_search", "span"),
    ("gcdsums.bounds", "bound_chain_report", "span"),
    ("gcdsums.bounds", "tail_sum", "span"),
    ("gcdsums.verify", "run_suite", "span"),
)

# The program sends square-free sets on at most this many positions to the
# XOR-table path of its pair kernel; read from the program when it says.
XOR_MAX_POSITIONS_DEFAULT = 22


def _annotate_gcd_sum(args, result):
    B = args[1]
    xor_max = getattr(sys.modules["gcdsums.gcdsum"], "_XOR_TABLE_MAX_BITS",
                      XOR_MAX_POSITIONS_DEFAULT)
    path = "xor" if B.is_square_free() and len(B.universe()) <= xor_max else "block"
    return [path, len(B) ** 2]


ANNOTATE = {
    "gcdsum.gcd_sum": _annotate_gcd_sum,
    "search.extremal_sf": lambda args, result: result.candidates,
    "search.local_search": lambda args, result: result.candidates,
    "bounds.bound_chain_report": lambda args, result: result.closure_size,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, job, child_s, error, note]
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s, max_s]
        self.counts: dict[str, int] = {}
        self.job = -1
        self._stack: list[list] = []  # open timed calls: [span index or None, child_s]
        self._restore: list[tuple] = []

    # ----------------------------------------------------------- wrappers

    def _span(self, name, fn):
        spans, stack, note_fn = self.spans, self._stack, ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            frame = [index, 0.0]
            stack.append(frame)
            error = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = [name, start, end, parent, self.job, frame[1], error, None]
            if note_fn is not None:
                try:
                    spans[index][7] = note_fn(args, result)
                except AttributeError:  # the program's result or argument changed shape
                    pass
            return result

        return wrapper

    def _record(self, name, start, end, child_s):
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        row = self.agg.setdefault(name, [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_s
        if dur > row[3]:
            row[3] = dur

    def _agg(self, name, fn):
        stack = self._stack
        if inspect.isgeneratorfunction(fn):
            # time each step of the generator, not the consumer between steps
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [None, 0.0]
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        stack.pop()
                        self._record(name, start, end, frame[1])
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._record(name, start, end, frame[1])

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------- install/remove

    def install(self) -> None:
        """Wrap every name in INSTRUMENTED that the program still defines; a
        name it no longer has is skipped and its metrics read 0."""
        make = {"span": self._span, "agg": self._agg, "count": self._count}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gcdsums" or n.startswith("gcdsums.")]
        for module_name, attr, mode in INSTRUMENTED:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in cls.__dict__:
                    continue
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, make[mode](name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = make[mode](name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "agg": self.agg, "counts": self.counts}


# ------------------------------------------------------------- derivation

# name, unit, better, end-to-end metric it should move, workload
LAYER_METRICS = (
    ("cli.main.self_s", "s", "lower", "job_p50_s", "sf_churn"),
    ("cli.parse_set_file.s", "s", "lower", "wall_s", "int_certify"),
    ("primes.calls", "count", "lower", "wall_s", "int_certify"),
    ("primes.self_s", "s", "lower", "wall_s", "int_certify"),
    ("primes.table_size", "count", "lower", "peak_rss_mb", "int_certify"),
    ("multiindex.from_integer.calls", "count", "lower", "job_tail_s", "int_certify"),
    ("multiindex.from_integer.self_s", "s", "lower", "job_tail_s", "int_certify"),
    ("multiindex.from_integer.max_s", "s", "lower", "job_tail_s", "int_certify"),
    ("multiindex.constructed", "count", "lower", "wall_s", "sf_churn"),
    ("weights.pow.calls", "count", "lower", "wall_s", "int_certify"),
    ("weights.self_s", "s", "lower", "wall_s", "int_certify"),
    ("gcdsum.gcd_sum.calls", "count", "lower", "wall_s", "sf_dense"),
    ("gcdsum.gcd_sum.self_s", "s", "lower", "wall_s", "sf_dense"),
    ("gcdsum.pairs.xor", "count", "lower", "wall_s", "sf_dense"),
    ("gcdsum.ns_per_pair.xor", "ns", "lower", "wall_s", "sf_dense"),
    ("gcdsum.pairs.block", "count", "lower", "wall_s", "int_certify"),
    ("gcdsum.ns_per_pair.block", "ns", "lower", "wall_s", "int_certify"),
    ("gcdsum.gcd_row_sums.self_s", "s", "lower", "wall_s", "sf_dense"),
    ("gcdsum.matvec.calls", "count", "lower", "wall_s", "sf_dense"),
    ("gcdsum.matvec.self_s", "s", "lower", "wall_s", "sf_dense"),
    ("gcdsum.dense.self_s", "s", "lower", "peak_rss_mb", "sf_dense"),
    ("gcdsum.spectral_norm.matvecs_per_solve", "count", "lower", "job_tail_s", "sf_dense"),
    ("gcdsum.min_eigenvalue.matvecs_per_solve", "count", "lower", "job_tail_s", "sf_dense"),
    ("gcdsum.min_eigenvalue.s", "s", "lower", "job_tail_s", "sf_dense"),
    ("gcdsum.min_eigenvalue.failed", "count", "lower", "failed_frac", "sf_dense"),
    ("gcdsum.gcd_sum_mp.calls", "count", "lower", "wall_s", "sf_churn"),
    ("gcdsum.gcd_sum_mp.self_s", "s", "lower", "wall_s", "sf_churn"),
    ("gcdsum.support_grouping_ratio.s", "s", "lower", "job_p50_s", "int_certify"),
    ("gcdsum.lcm_closure.s", "s", "lower", "wall_s", "int_certify"),
    ("gcdsum.index_sets_built", "count", "lower", "wall_s", "sf_churn"),
    ("transforms.normalize_to_complete.s", "s", "lower", "wall_s", "sf_churn"),
    ("transforms.divisor_closure.s", "s", "lower", "wall_s", "sf_churn"),
    ("transforms.swaps", "count", "lower", "wall_s", "sf_churn"),
    ("transforms.swap_partition.s", "s", "lower", "wall_s", "sf_churn"),
    ("transforms.is_complete.s", "s", "lower", "wall_s", "sf_churn"),
    ("transforms.resums_per_swap", "ratio", "lower", "wall_s", "sf_churn"),
    ("transforms.recertify_per_swap", "ratio", "lower", "wall_s", "sf_churn"),
    ("search.candidates", "count", "lower", "wall_s", "sf_churn"),
    ("search.extremal_sf.us_per_candidate", "us", "lower", "wall_s", "sf_churn"),
    ("search.enumerate_downsets.s", "s", "lower", "wall_s", "sf_churn"),
    ("search.local_search.s_per_evaluation", "s", "lower", "wall_s", "sf_churn"),
    ("search.cube_construction.s", "s", "lower", "job_p50_s", "sf_dense"),
    ("bounds.bound_chain_report.self_s", "s", "lower", "job_tail_s", "int_certify"),
    ("bounds.closure_members", "count", "lower", "job_tail_s", "int_certify"),
    ("bounds.us_per_closure_member", "us", "lower", "job_tail_s", "int_certify"),
    ("bounds.tail_sum.s", "s", "lower", "job_tail_s", "int_certify"),
    ("verify.run_suite.s", "s", "lower", "wall_s", "sf_churn"),
    ("trace.overhead_frac", "ratio", "lower", "wall_s", "all"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, table_size: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_frac)."""
    spans, agg = trace["spans"], trace["agg"]
    counts = defaultdict(int, trace["counts"])
    calls: defaultdict[str, int] = defaultdict(int)
    total: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)
    for name, start, end, _parent, _job, child, _err, _note in spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child
    for name, (n, tot, own, _mx) in agg.items():
        calls[name] += n
        total[name] += tot
        self_s[name] += own

    ancestry: dict[int, frozenset] = {}

    def ancestors(i: int) -> frozenset:
        # names of the spans enclosing span i (iterative, spans nest deeply)
        chain = []
        j = spans[i][3]
        while j is not None and j not in ancestry:
            chain.append(j)
            j = spans[j][3]
        acc = ancestry[j] if j is not None else frozenset()
        for k in reversed(chain):
            acc = acc | {spans[k][0]}
            ancestry[k] = acc
        return acc

    def count_under(name: str, inside: str, outside: str | None = None) -> int:
        hits = 0
        for i, span in enumerate(spans):
            if span[0] == name:
                up = ancestors(i)
                if inside in up and (outside is None or outside not in up):
                    hits += 1
        return hits

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    pairs = {"xor": 0, "block": 0}
    pair_s = {"xor": 0.0, "block": 0.0}
    failed_mineig = 0
    candidates = {"search.extremal_sf": 0, "search.local_search": 0}
    closure_members = 0
    for name, start, end, _parent, _job, _child, err, note in spans:
        if name == "gcdsum.gcd_sum" and note is not None:
            pairs[note[0]] += note[1]
            pair_s[note[0]] += end - start
        elif name == "gcdsum.min_eigenvalue" and err:
            failed_mineig += 1
        elif name in candidates and note is not None:
            candidates[name] += note
        elif name == "bounds.bound_chain_report" and note is not None:
            closure_members += note

    normalize, closure = "transforms.normalize_to_complete", "transforms.divisor_closure"
    swaps_in_normalize = count_under("transforms.completeness_step", normalize)
    out = {
        "cli.main.self_s": self_s["cli.main"],
        "cli.parse_set_file.s": total["cli.parse_set_file"],
        "primes.calls": sum(calls[f"primes.PrimeTable.{m}"]
                            for m in ("prime", "first", "index_of")),
        "primes.self_s": layer_self("primes."),
        "primes.table_size": table_size,
        "multiindex.from_integer.calls": calls["multiindex.from_integer"],
        "multiindex.from_integer.self_s": self_s["multiindex.from_integer"],
        "multiindex.from_integer.max_s": agg.get("multiindex.from_integer", [0, 0, 0, 0.0])[3],
        "multiindex.constructed": counts["multiindex.MultiIndex.__init__"],
        "weights.pow.calls": calls["weights.WeightSequence.pow"],
        "weights.self_s": layer_self("weights."),
        "gcdsum.gcd_sum.calls": calls["gcdsum.gcd_sum"],
        "gcdsum.gcd_sum.self_s": self_s["gcdsum.gcd_sum"],
        "gcdsum.pairs.xor": pairs["xor"],
        "gcdsum.ns_per_pair.xor": _ratio(pair_s["xor"] * 1e9, pairs["xor"]),
        "gcdsum.pairs.block": pairs["block"],
        "gcdsum.ns_per_pair.block": _ratio(pair_s["block"] * 1e9, pairs["block"]),
        "gcdsum.gcd_row_sums.self_s": self_s["gcdsum.gcd_row_sums"],
        "gcdsum.matvec.calls": calls["gcdsum.GcdMatrix.matvec"],
        "gcdsum.matvec.self_s": self_s["gcdsum.GcdMatrix.matvec"],
        "gcdsum.dense.self_s": self_s["gcdsum.GcdMatrix.dense"],
        "gcdsum.spectral_norm.matvecs_per_solve": _ratio(
            count_under("gcdsum.GcdMatrix.matvec", "gcdsum.spectral_norm"),
            calls["gcdsum.spectral_norm"]),
        "gcdsum.min_eigenvalue.matvecs_per_solve": _ratio(
            count_under("gcdsum.GcdMatrix.matvec", "gcdsum.min_eigenvalue"),
            calls["gcdsum.min_eigenvalue"]),
        "gcdsum.min_eigenvalue.s": total["gcdsum.min_eigenvalue"],
        "gcdsum.min_eigenvalue.failed": failed_mineig,
        "gcdsum.gcd_sum_mp.calls": calls["gcdsum.gcd_sum_mp"],
        "gcdsum.gcd_sum_mp.self_s": self_s["gcdsum.gcd_sum_mp"],
        "gcdsum.support_grouping_ratio.s": total["gcdsum.support_grouping_ratio"],
        "gcdsum.lcm_closure.s": total["gcdsum.lcm_closure"],
        "gcdsum.index_sets_built": counts["gcdsum.IndexSet.__init__"],
        "transforms.normalize_to_complete.s": total["transforms.normalize_to_complete"],
        "transforms.divisor_closure.s": total["transforms.divisor_closure"],
        "transforms.swaps": calls["transforms.completeness_step"],
        "transforms.swap_partition.s": total["transforms.swap_partition"],
        "transforms.is_complete.s": total["transforms.is_complete"],
        "transforms.resums_per_swap": _ratio(
            count_under("gcdsum.gcd_sum", normalize, closure),
            swaps_in_normalize),
        "transforms.recertify_per_swap": _ratio(
            count_under("gcdsum.gcd_sum_mp", normalize, closure),
            swaps_in_normalize),
        "search.candidates": sum(candidates.values()),
        "search.extremal_sf.us_per_candidate": _ratio(
            total["search.extremal_sf"] * 1e6, candidates["search.extremal_sf"]),
        "search.enumerate_downsets.s": total["search.enumerate_downsets"],
        "search.local_search.s_per_evaluation": _ratio(
            total["search.local_search"], candidates["search.local_search"]),
        "search.cube_construction.s": total["search.cube_construction"],
        "bounds.bound_chain_report.self_s": self_s["bounds.bound_chain_report"],
        "bounds.closure_members": closure_members,
        "bounds.us_per_closure_member": _ratio(
            self_s["bounds.bound_chain_report"] * 1e6, closure_members),
        "bounds.tail_sum.s": total["bounds.tail_sum"],
        "verify.run_suite.s": total["verify.run_suite"],
    }
    return {k: float(v) for k, v in out.items()}
