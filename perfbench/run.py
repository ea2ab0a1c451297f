"""gcdsums benchmark: seeded streams of user-level jobs through the public API.

    python3 perfbench/run.py --workload sf_dense --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client.  The workload's fixed job list
(workloads.py) runs in passes; each pass is a fresh process (passrun.py) that
sets up, runs every job once, back to back, and exits.  Passes repeat until
about --seconds have gone (never fewer than MIN_PASSES).  Every job outcome of
every pass is then checked against an independent reference (reference.py),
computed here, outside any timed interval.

--trace 0 reports the end-to-end metrics.  A job's latency is its median
over the untraced passes.
  wall_s       time to finish the job list: the sum of the job latencies
  job_p50_s    median job latency
  job_tail_s   latency at the highest percentile with at least ten job runs
               beyond it, counting each job once per pass of MIN_PASSES passes
  setup_s      process start to first job: imports, input generation, set
               files; median over passes
  peak_rss_mb  peak resident memory of the pass process; median over passes
failed_frac (failed / attempted jobs) is printed with them; the final line
carries it as `failed` and `attempted`.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.LAYER_METRICS, medians over traced passes, plus
trace.overhead_frac.  Spans of the last traced pass go to
.perfbench/traces/<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `correct` is false when any job returned a
plainly wrong answer; a job that raised, exited unexpectedly or missed its
reference tolerance counts in `failed`.  Exit status is 0 when the run
completed, 2 when the program or a pass could not run (nothing is printed
on standard output then).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_PASSES = {"full": 3, "tiny": 1}
RUN_BUDGET_S = 170.0  # the whole run, set-up and checks included, ends within 180 s

import workloads  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class PassError(RuntimeError):
    pass


def run_pass(args, workdir: Path, traced: bool, deadline: float) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--workdir", str(workdir)]
    if traced:
        cmd += ["--trace", str(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise PassError("time budget spent before the pass could start")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise PassError(f"pass exited {proc.returncode}:\n{tail}")
    with open(workdir / "result.json", encoding="utf-8") as handle:
        result = json.load(handle)
    result["traced"] = traced
    return result


def run_passes(args) -> list[dict]:
    """Untraced passes (alternating with traced ones under --trace 1) until
    the next pass would end after --seconds and the minimum is met; fewer
    only when the run budget allows no more."""
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S - 10.0
    base = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    passes: list[dict] = []
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args, base / f"pass{len(passes)}", traced, deadline))
            untraced = sum(not p["traced"] for p in passes)
            if args.trace:
                enough = untraced < len(passes)
            else:
                enough = untraced >= MIN_PASSES[args.scale]
            now = time.perf_counter()
            typical = statistics.median(p["wall_s"] + p["setup_s"] for p in passes)
            if enough and now - start + typical > args.seconds:
                break
            if now + 1.5 * typical > deadline and (untraced < len(passes) or not args.trace):
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return passes


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def environment() -> dict:
    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{index}/size")
    import mpmath
    import numpy

    blas_threads = "unknown"
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                blas_threads = getattr(handle, symbol)()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "blas_threads": blas_threads, "commit": commit}


def check_outcomes(jobs, passes: list[dict]) -> tuple[int, int, bool, dict]:
    """(attempted, failed, correct, {job id: [failed runs, status, cause]})."""
    refs = {job.id: Reference(job) for job in jobs}
    seen: dict[tuple, object] = {}
    attempted = failed = 0
    correct = True
    causes: dict[str, list] = {}
    for p in passes:
        for o in p["jobs"]:
            key = (o["id"], o["rc"], o["exc"], o["stdout"], o["stderr"])
            if key not in seen:
                seen[key] = refs[o["id"]].check(o)
            verdict = seen[key]
            attempted += 1
            if verdict.status != "ok":
                failed += 1
                entry = causes.setdefault(o["id"], [0, verdict.status, verdict.cause])
                entry[0] += 1
            if verdict.status == "wrong":
                correct = False
    return attempted, failed, correct, causes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=sorted(workloads.SCALES),
                    help="tiny runs every job kind at toy sizes (for the benchmark's own tests)")
    args = ap.parse_args(argv)

    for needed in ("src/gcdsums/__init__.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    try:
        passes = run_passes(args)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed, args.scale)
    attempted, failed, correct, causes = check_outcomes(jobs, passes)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # Every job is deterministic and runs once per pass, so a job's latency
    # is its median over the passes, which keeps a stall in one pass out.
    # The jobs run back to back: the job list takes the sum of the latencies.
    per_job = [statistics.median(p["jobs"][i]["latency_s"] for p in untraced)
               for i in range(len(jobs))]
    wall = sum(per_job)
    # The tail counts each job once per pass of a fixed number of passes,
    # so its percentile does not move with the number of passes run.
    runs = min(len(untraced), MIN_PASSES[args.scale])
    pct, tail_value = tail(per_job * runs)

    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{len(untraced)} untraced and {len(traced)} traced pass(es) of {len(jobs)} jobs")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("pass wall times: " + " ".join(f"{p['wall_s']:.3f}{'T' if p['traced'] else ''}"
                                         for p in passes))
    e2e = {
        "wall_s": wall,
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_value,
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    notes = {"job_p50_s": f"over {len(per_job)} jobs",
             "job_tail_s": f"p{pct:.1f} over {len(per_job)} jobs x {runs} passes"}
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]:.6g} {unit} {notes.get(name, '')}".rstrip())
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for jid, (count, status, cause) in sorted(causes.items()):
        print(f"  {status.upper()} {jid} in {count} pass(es): {cause}")

    if args.trace:
        metrics = {}
        for name, unit, _better, _moves, _where in LAYER_METRICS:
            if name == "trace.overhead_frac":
                value = (statistics.median(p["wall_s"] for p in traced)
                         / statistics.median(p["wall_s"] for p in untraced) - 1.0)
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} = {value:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
