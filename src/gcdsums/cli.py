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
import re
import sys
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import (
    bound_chain_report,
    general_upper_curve,
    lower_curve,
    squarefree_upper_curve,
)
from .errors import (
    ConvergenceError,
    DomainError,
    DuplicateMemberError,
    ParseError,
    TransformLimitError,
)
from .gcdsum import (
    IndexSet,
    cube_sum_closed_form,
    gcd_matrix,
    gcd_sum,
    min_eigenvalue,
    spectral_norm,
    support_grouping_form,
)
from .multiindex import (
    MAX_PARSE_EXPONENT,
    MAX_PARSE_INDEX,
    factors_in_scope,
    format_items,
    parse_items,
    ranked_items,
)
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


# A text of plain `mi` lines, each ending in a newline: "mi", then per entry
# one or more spaces and position:exponent without leading zeros.  At most 7
# and 5 digits, so every value fits int64 and one over its cap is still read,
# then found by the value checks; any other file is read line by line
# (`_read_lines`).  Each entry starts at a space and each line ends at its
# newline, so a repeat given back could never let the match go on: the
# repeats are possessive, and the match keeps no backtracking state (greedy
# repeats kept 3.6 MB of it on a 3000-line file, traced by tracemalloc).
_PLAIN_TEXT = re.compile(r"(?:mi(?: +[1-9][0-9]{0,6}:[1-9][0-9]{0,4})*+\n)*+")


def _plain_entries(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Line number, position and exponent of every entry of a text of plain
    `mi` lines, in text order: one numpy conversion reads the numbers, and
    each entry's line is found from its colon's offset."""
    if ":" not in text:  # numpy would read a text without entries as one 0
        none = np.zeros(0, dtype=np.int64)
        return none, none, none
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    colons = np.flatnonzero(chars == ord(":"))
    ends = np.append(np.flatnonzero(chars == ord("\n")), len(chars))
    # each line's entries are the colons between its start and its end
    counts = np.searchsorted(colons, ends)
    counts[1:] -= counts[:-1]
    lines = np.repeat(np.arange(1, len(ends) + 1), counts)
    pairs = np.fromstring(text.replace("mi", " ").replace(":", " "), dtype=np.int64, sep=" ")
    return lines, pairs[0::2], pairs[1::2]


def _read_lines(lines: Iterable[tuple[int, str]]) -> tuple[list[int], list, ParseError | None]:
    """Read (line number, text) lines one at a time, as far as the first
    failing one: the line numbers of the members, their (position, exponent)
    pairs, and the failure, if any.  Comments and blank lines are skipped;
    the integer lines' prime factors are ranked together (`ranked_items`)."""
    linenos: list[int] = []
    # per line its pairs; an integer line's prime factors until they are ranked
    members: list = []
    integers: list[int] = []  # where the integer lines are in members
    failure = None
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("mi"):
                member = parse_items(line)
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
    if integers:
        for k, items in zip(integers, ranked_items(members[k] for k in integers)):
            members[k] = items
    return linenos, members, failure


def parse_set_file(path: str) -> IndexSet:
    """Read one member per line: a decimal integer or an `mi j:e ...` form.

    Blank lines and `#` comments are skipped; duplicates and malformed lines
    are rejected with their line number, the first such line winning.

    The file is read whole.  A file of plain `mi` lines (`_PLAIN_TEXT`) is
    read in one pass (`_plain_entries`), and the caps and increasing
    positions are checked over all its entries at once; only the first line
    that fails a check is read on its own.  Any other file is split at its
    newlines and read one line at a time (`_read_lines`).
    The members before the first failing line become rows over one
    universe, in line order, and `IndexSet.from_rows` names the first
    duplicate (`DuplicateMemberError`).  No `MultiIndex` is built.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open set file: {exc}")
    with handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"cannot decode set file: {exc}") from None
    if _PLAIN_TEXT.fullmatch(text):
        plain = np.arange(1, text.count("\n") + 1)
        at, j, e = _plain_entries(text)
        # the grammar has made every position and exponent at least 1
        bad = (j > MAX_PARSE_INDEX) | (e > MAX_PARSE_EXPONENT)
        bad[1:] |= (at[1:] == at[:-1]) & (j[1:] <= j[:-1])
        others = []
        if bad.any():
            stop = int(at[bad.argmax()])
            others = [(stop, text.split("\n", stop)[stop - 1])]
    else:
        plain = at = j = e = np.zeros(0, dtype=np.int64)
        others = enumerate(text.split("\n"), start=1)
    linenos, members, failure = _read_lines(others)
    if failure is not None:
        plain = plain[plain < failure.line]
        at, j, e = (a[at < failure.line] for a in (at, j, e))

    # the members' line numbers, and the members as rows in that order
    numbers = np.sort(np.concatenate([plain, np.array(linenos, dtype=np.intp)]))
    if not len(numbers):
        if failure is not None:
            raise failure
        raise ParseError("set file has no members")
    row_at = np.zeros(numbers[-1] + 1, dtype=np.intp)
    row_at[numbers] = np.arange(len(numbers))
    entries = np.array([p for items in members for p in items], dtype=np.int64).reshape(-1, 2)
    row = np.concatenate([row_at[at], np.repeat(row_at[linenos], list(map(len, members)))])
    positions = np.concatenate([j, entries[:, 0]])
    ordered = np.sort(positions)  # a sort and a search: np.unique's inverse takes twice as long
    universe = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
    column = np.searchsorted(universe, positions)
    rows = np.zeros((len(numbers), len(universe)), dtype=np.int16)
    rows[row, column] = np.concatenate([e, entries[:, 1]])
    # every line here precedes a failed one, so a duplicate among them is
    # the first error by line
    try:
        B = IndexSet.from_rows(universe.tolist(), rows)
    except DuplicateMemberError as exc:
        r, q = exc.rows
        used = np.flatnonzero(rows[r])
        items = zip(universe[used].tolist(), rows[r, used].tolist())
        raise ParseError(f"duplicate member {format_items(items)} (first seen at line {numbers[q]})",
                         line=int(numbers[r])) from None
    if failure is not None:
        raise failure
    return B


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
        except UnicodeDecodeError as exc:
            raise ParseError(f"cannot decode weights file: {exc}") from None
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
    payload = {
        "k": args.k,
        "n": len(cube),
        "sum": value,
        "gamma": value / len(cube),
        "closed_form": closed,
        # kept for the report schema: the sum is always computed by gcd_sum
        "method": "direct",
        "complete": is_complete(cube),
        "completeness_check": "verified",
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
        {"final": result.member_strings(), "n": len(result),
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
    rows = M.row_sums()
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
    for flag in ("n_from", "n_to", "constant", "c_decay"):
        if not math.isfinite(getattr(args, flag)):
            raise DomainError(f"--{flag.replace('_', '-')} must be finite, got {getattr(args, flag)}")
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
