"""One pass of a workload in a fresh process: set up, run every job once, report.

run.py starts this once per pass:

    python3 perfbench/passrun.py --workload W --seed N --scale S --workdir DIR \
        --spawned-at T [--trace SPANS_FILE]

Set-up is everything from process start (T, on the monotonic clock shared
with the parent) to the first job: interpreter start, imports, input
generation and writing the set files.  The jobs then run back to back, one
at a time, in this process.  DIR/result.json receives the set-up time, the
pass wall time, the peak RSS of this process, and each job's latency and
outcome (exit code, captured output, or the exception that escaped).  With
--trace the pass runs under the Tracer, whose spans go to SPANS_FILE and
whose per-layer metrics go into result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gcdsums.cli as cli  # noqa: E402
import gcdsums.gcdsum as gcdsum  # noqa: E402
import gcdsums.primes as primes  # noqa: E402
from gcdsums.weights import PrimePowerWeights  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_mineig(path: str, max_iterations: int) -> int:
    """What `gcdsums matrix --stat mineig` does, with the iteration bound the
    CLI has no flag for.  Names are looked up at call time so a Tracer sees them."""
    B = cli.parse_set_file(path)
    M = gcdsum.gcd_matrix(PrimePowerWeights(workloads.ALPHA), B)
    value = gcdsum.min_eigenvalue(M, max_iterations=max_iterations)
    print(json.dumps({"n": len(B), "min_eigenvalue": value}))
    return 0


def run_job(job, set_dir: Path) -> dict:
    argv = [str(set_dir / job.file) if a == "@FILE" else a for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.op == "cli":
                rc = cli.main(argv)
            else:
                rc = run_mineig(argv[0], int(argv[1]))
    except Exception as e:  # the job failed; record why and go on with the pass
        exc = f"{type(e).__name__}: {e}"
    latency = time.perf_counter() - start
    return {"id": job.id, "latency_s": latency, "rc": rc, "exc": exc,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    set_dir = workdir / "sets"
    set_dir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.build(args.workload, args.seed, args.scale)
    for job in jobs:
        if job.file is not None:
            (set_dir / job.file).write_text("\n".join(job.lines) + "\n", encoding="utf-8")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    first = time.perf_counter()
    outcomes = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        outcomes.append(run_job(job, set_dir))
    wall = time.perf_counter() - first
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": first - args.spawned_at,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "jobs": outcomes,
    }
    if tracer is not None:
        trace = tracer.dump()
        result["layers"] = tracing.layer_metrics(trace, len(primes.DEFAULT_TABLE))
        Path(args.trace).parent.mkdir(parents=True, exist_ok=True)
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "jobs": [j.id for j in jobs], **trace}, handle)
    with open(workdir / "result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
