"""Command-line interface: reproducible, scriptable access to every module.

Subcommands: sum, cube, search, transform, matrix, bounds, certify, verify.
Reports are JSON (or CSV for curves) and always embed the effective
configuration.  With --deterministic, timing fields are omitted so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .bounds import (
    bound_chain_report,
    general_upper_curve,
    lower_curve,
    squarefree_upper_curve,
)
from .errors import ConvergenceError, DomainError, ParseError, TransformLimitError
from .gcdsum import (
    IndexSet,
    cube_sum_closed_form,
    gcd_matrix,
    gcd_row_sums,
    gcd_sum,
    min_eigenvalue,
    spectral_norm,
    support_grouping_form,
)
from .multiindex import factors_in_scope, format_items, parse_items, ranked_items
from .search import cube_construction, extremal_sf, local_search
from .transforms import divisor_closure, is_complete, normalize_to_complete
from .verify import run_suite
from .weights import ExplicitWeights, PrimePowerWeights, WeightSequence

SCHEMA_VERSION = 1
PRECISION_ENV = "GCDSUMS_PRECISION"


@dataclass
class RunConfig:
    command: str
    alpha: float | None = None
    weights_file: str | None = None
    n: int | None = None
    max_index: int | None = None
    seed: int = 0
    precision: int = 50
    deterministic: bool = False
    format: str = "json"
    output: str | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 like other domain errors (2 is reserved for
    # verification failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return 50
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None


def parse_set_file(path: str) -> IndexSet:
    """Read one member per line: a decimal integer or an `mi j:e ...` form.

    Blank lines and `#` comments are skipped; duplicates and malformed lines
    are rejected with their line number, the first such line winning.  An
    integer line is factored as it is read, and the prime factors of all of
    them are ranked together (`ranked_items`); then each line becomes its
    (position, exponent) pairs, which are both its key among the lines seen
    and its row of the set.  No `MultiIndex` is built.
    """
    linenos: list[int] = []
    # per line its (position, exponent) pairs; an integer line's prime
    # factors until they are ranked
    members: list = []
    integers: list[int] = []  # where the integer lines are in members
    failure = None
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open set file: {exc}")
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if line.startswith("mi"):
                    member = tuple(parse_items(line))
                else:
                    value = int(line)
                    if value >= 1 << 63:
                        raise DomainError(f"{value} is beyond the 64-bit range")
                    member = factors_in_scope(value)
                    integers.append(len(members))
            except DomainError as exc:
                failure = ParseError(str(exc), line=lineno)
                break
            except ValueError:
                failure = ParseError(f"malformed line {line!r}", line=lineno)
                break
            linenos.append(lineno)
            members.append(member)
    for k, items in zip(integers, ranked_items(members[k] for k in integers)):
        members[k] = items
    # every line here precedes a failed one, so a duplicate among them is
    # the first error by line
    seen: dict[tuple[tuple[int, int], ...], int] = {}
    for lineno, member in zip(linenos, members):
        if member in seen:
            raise ParseError(
                f"duplicate member {format_items(member)} (first seen at line {seen[member]})",
                line=lineno,
            )
        seen[member] = lineno
    if failure is not None:
        raise failure
    if not seen:
        raise ParseError("set file has no members")
    counts = np.fromiter(map(len, seen), dtype=np.intp, count=len(seen))
    entries = np.fromiter(chain.from_iterable(chain.from_iterable(seen)), dtype=np.int64)
    entries = entries.reshape(-1, 2)
    universe, column = np.unique(entries[:, 0], return_inverse=True)
    rows = np.zeros((len(seen), len(universe)), dtype=np.int16)
    rows[np.repeat(np.arange(len(seen)), counts), column] = entries[:, 1]
    return IndexSet.from_rows(universe.tolist(), rows)


def load_weights(config: RunConfig) -> WeightSequence:
    if config.weights_file is not None:
        values = []
        try:
            with open(config.weights_file, "r", encoding="utf-8") as handle:
                for lineno, raw in enumerate(handle, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    try:
                        values.append(float(line))
                    except ValueError:
                        raise ParseError(f"malformed weight {line!r}", line=lineno) from None
        except OSError as exc:
            raise ParseError(f"cannot open weights file: {exc}")
        return ExplicitWeights(values)
    return PrimePowerWeights(config.alpha if config.alpha is not None else 0.5)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")


def _json_report(config: RunConfig, payload: dict) -> str:
    report = {"schema": SCHEMA_VERSION, "config": config.to_dict()}
    report.update(payload)
    return json.dumps(report, sort_keys=True)


def _csv_report(config: RunConfig, header: list[str], rows: list[list]) -> str:
    lines = [f"# schema={SCHEMA_VERSION}"]
    for key, value in sorted(config.to_dict().items()):
        lines.append(f"# {key}={value}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _add_common(parser: argparse.ArgumentParser, with_weights: bool = True) -> None:
    if with_weights:
        parser.add_argument("--alpha", type=float, default=None,
                            help="prime-power weights p_j^(-alpha) (default 0.5)")
        parser.add_argument("--weights", dest="weights_file", default=None,
                            help="explicit weights file, one value per line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--precision", type=int, default=None,
                        help=f"decimal digits for certified comparisons (>= 15; env {PRECISION_ENV})")
    parser.add_argument("--deterministic", action="store_true",
                        help="omit timing fields so reports are byte-identical")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")


def _config_from(args: argparse.Namespace, command: str) -> RunConfig:
    if getattr(args, "alpha", None) is not None and getattr(args, "weights_file", None):
        raise DomainError("choose exactly one weight source: --alpha or --weights")
    precision = args.precision if getattr(args, "precision", None) is not None else _default_precision()
    if precision < 15:
        raise DomainError(f"precision must be >= 15 digits, got {precision}")
    return RunConfig(
        command=command,
        alpha=getattr(args, "alpha", None),
        weights_file=getattr(args, "weights_file", None),
        n=getattr(args, "n", None),
        max_index=getattr(args, "max_index", None),
        seed=getattr(args, "seed", 0),
        precision=precision,
        deterministic=getattr(args, "deterministic", False),
        format=getattr(args, "format", "json"),
        output=getattr(args, "output", None),
    )


def _cmd_sum(args) -> int:
    config = _config_from(args, "sum")
    t = load_weights(config)
    B = parse_set_file(args.set_file)
    start = time.perf_counter()
    value = gcd_sum(t, B)
    elapsed = (time.perf_counter() - start) * 1000.0
    payload = {"n": len(B), "sum": value, "gamma": value / len(B)}
    if not B.is_square_free():
        # diagnostic ratio against the square-free support grouping; no
        # finite constant is asserted for it
        payload["support_grouping_ratio"] = value / support_grouping_form(t, B)
    if not config.deterministic:
        payload["elapsed_ms"] = elapsed
    if config.format == "csv":
        header = list(payload)
        _emit(_csv_report(config, header, [[payload[k] for k in header]]), config.output)
    else:
        _emit(_json_report(config, payload), config.output)
    return 0


def _cmd_cube(args) -> int:
    config = _config_from(args, "cube")
    t = load_weights(config)
    cube = cube_construction(args.k)
    closed = cube_sum_closed_form(t, args.k)
    start = time.perf_counter()
    value = gcd_sum(t, cube)
    elapsed = (time.perf_counter() - start) * 1000.0
    if args.k <= 12:
        complete = is_complete(cube)
        completeness_check = "verified"
    else:
        complete = True
        completeness_check = "structural"
    payload = {
        "k": args.k,
        "n": len(cube),
        "sum": value,
        "gamma": value / len(cube),
        "closed_form": closed,
        # kept for the report schema: the sum is always computed by gcd_sum
        "method": "direct",
        "complete": complete,
        "completeness_check": completeness_check,
    }
    if not config.deterministic:
        payload["elapsed_ms"] = elapsed
    _emit(_json_report(config, payload), config.output)
    return 0


def _cmd_search(args) -> int:
    config = _config_from(args, "search")
    t = load_weights(config)
    if args.mode == "exhaustive":
        report = extremal_sf(t, args.n, args.max_index)
    else:
        report = local_search(t, args.n, args.max_index, seed=config.seed,
                              iterations=args.iterations)
    payload = report.to_dict(include_elapsed=not config.deterministic)
    _emit(_json_report(config, payload), config.output)
    return 0


def _cmd_transform(args) -> int:
    config = _config_from(args, "transform")
    t = load_weights(config)
    B = parse_set_file(args.set_file)
    if args.mode == "closure":
        result, trace = divisor_closure(t, B)
    else:
        result, trace = normalize_to_complete(t, B, certify_dps=config.precision)
    lines = [json.dumps({"schema": SCHEMA_VERSION, "config": config.to_dict()}, sort_keys=True)]
    for i, step in enumerate(trace.steps):
        line = {"step": i, "description": step.description,
                "s_before": step.s_before, "s_after": step.s_after}
        if step.strict is not None:
            line["strict"] = step.strict
        lines.append(json.dumps(line, sort_keys=True))
    lines.append(json.dumps(
        {"final": [str(m) for m in result], "n": len(result),
         "s_value": trace.steps[-1].s_after if trace.steps else gcd_sum(t, result),
         "complete": is_complete(result)},
        sort_keys=True,
    ))
    _emit("\n".join(lines), config.output)
    return 0


def _cmd_matrix(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {args.tol}")
    config = _config_from(args, "matrix")
    t = load_weights(config)
    B = parse_set_file(args.set_file)
    M = gcd_matrix(t, B)
    rows = gcd_row_sums(t, B)
    s_value = float(math.fsum(rows))
    payload: dict = {
        "n": len(B),
        "gamma": s_value / len(B),
        "max_row_sum": float(rows.max()),
    }
    if args.stat in ("spectral", "both"):
        lam = spectral_norm(M, tol=args.tol)
        payload["spectral_norm"] = lam
        if len(B) >= 3:
            # diagnostic ratio only; no finite constant is asserted for it
            payload["spectral_vs_log_n_gamma"] = lam / (math.log(len(B)) * payload["gamma"])
    if args.stat in ("mineig", "both"):
        payload["min_eigenvalue"] = min_eigenvalue(M, tol=args.tol)
    _emit(_json_report(config, payload), config.output)
    return 0


def _cmd_bounds(args) -> int:
    config = _config_from(args, "bounds")
    if args.n_from < 21 or args.n_to < args.n_from:
        raise DomainError("need 21 <= n-from <= n-to")
    if args.points < 1:
        raise DomainError("points must be >= 1")
    if args.points == 1:
        ns = [float(args.n_from)]
    else:
        step = (math.log(args.n_to) - math.log(args.n_from)) / (args.points - 1)
        ns = [math.exp(math.log(args.n_from) + i * step) for i in range(args.points)]
    rows = []
    for n in ns:
        if args.curve == "theorem1":
            value = general_upper_curve(n, args.constant)
        elif args.curve == "theorem2":
            value = squarefree_upper_curve(n, args.c_decay, args.constant)
        else:
            value = lower_curve(n, args.constant)
        rows.append([n, value])
    if config.format == "json":
        _emit(_json_report(config, {"curve": args.curve, "constant": args.constant,
                                    "points": [{"n": n, "value": v} for n, v in rows]}),
              config.output)
    else:
        _emit(_csv_report(config, ["n", "value"], rows), config.output)
    return 0


def _cmd_certify(args) -> int:
    config = _config_from(args, "certify")
    t = load_weights(config)
    if (args.set_file is None) == (args.cube is None):
        raise DomainError("choose exactly one input: a set file or --cube K")
    B = cube_construction(args.cube) if args.cube is not None else parse_set_file(args.set_file)
    report = bound_chain_report(t, B, args.c_decay)
    payload = report.to_dict()
    payload["all_exact_hold"] = report.all_exact_hold()
    _emit(_json_report(config, payload), config.output)
    return 0


def _cmd_verify(args) -> int:
    config = _config_from(args, "verify")
    results = run_suite(args.suite, seed=config.seed)
    failed = [r for r in results if not r.ok]
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 2
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gcdsums", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sum", help="pair sum of a set file")
    p.add_argument("set_file")
    _add_common(p)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("cube", help="pair sum and completeness of the k-cube")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("search", help="extremal square-free sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-index", dest="max_index", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "heuristic"), default="exhaustive")
    p.add_argument("--iterations", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("transform", help="divisor closure / completeness normalization")
    p.add_argument("set_file")
    p.add_argument("--mode", choices=("closure", "complete"), default="closure")
    _add_common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("matrix", help="spectral statistics of the pair matrix")
    p.add_argument("set_file")
    p.add_argument("--stat", choices=("spectral", "mineig", "both"), default="both")
    p.add_argument("--tol", type=float, default=1e-13)
    _add_common(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("bounds", help="bound curves over a range of n")
    p.add_argument("--curve", choices=("theorem1", "theorem2", "lower"), required=True)
    p.add_argument("--n-from", dest="n_from", type=float, required=True)
    p.add_argument("--n-to", dest="n_to", type=float, required=True)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--constant", type=float, required=True)
    p.add_argument("--c-decay", dest="c_decay", type=float, default=1.0)
    _add_common(p, with_weights=False)
    p.set_defaults(func=_cmd_bounds, format="csv")

    p = sub.add_parser("certify", help="full estimate-chain certificate")
    p.add_argument("set_file", nargs="?", default=None)
    p.add_argument("--cube", type=int, default=None)
    p.add_argument("--c-decay", dest="c_decay", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    _add_common(p, with_weights=False)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The one parser of the process, built on first use (not at import):
    building it costs about 30 times a parse."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc} (estimate={exc.estimate!r}, residual={exc.residual!r}, "
              f"iterations={exc.iterations})", file=sys.stderr)
    except (DomainError, TransformLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
