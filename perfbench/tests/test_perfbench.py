"""The benchmark's own tests, at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= len(workloads.build(workload, 3, "tiny"))
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    report = "\n".join(lines[:-1])
    for m in BENCH["end_to_end"]:
        assert f"{m['name']} = " in report and f" {m['unit']}" in report
    assert "failed_frac = " in report
    if trace:
        assert result["metrics"]["trace.overhead_frac"]["value"] != 0.0


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == \
        [(w, workloads.WHY[w]) for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        [row[:3] for row in tracing.LAYER_METRICS]


def test_inputs_depend_on_the_seed_alone():
    a, b, c = (workloads.build("sf_churn", s) for s in (5, 5, 6))
    assert [(j.id, j.argv, j.lines) for j in a] == [(j.id, j.argv, j.lines) for j in b]
    assert [j.lines for j in a] != [j.lines for j in c]


def test_generated_shapes():
    import random

    rng = random.Random(1)
    down = workloads.random_downset(rng, 200, 9)
    complete = workloads.random_complete(rng, 60, 12)
    assert len(down) == 200 and reference.is_divisor_closed(down)
    assert len(complete) == 60 and reference.is_complete(complete)


def test_references_agree_with_closed_forms_and_oracles():
    k = 6
    cube = list(range(1 << k))
    closed = reference.Reference(workloads.Job("c", "cli", [], "cube", {"k": k})).values["sum"]
    assert reference.sf_sum(cube, k) == pytest.approx(closed, rel=1e-13)
    wide = workloads.random_sparse(__import__("random").Random(2), 40, 30, 0.3)
    assert reference.sf_sum(wide, 30) == pytest.approx(reference.brute_sum(wide), rel=1e-13)


@pytest.fixture(scope="module")
def tiny_passes():
    args = run.argparse.Namespace(workload="sf_dense", seed=4, scale="tiny", trace=1, seconds=0.0)
    return run.run_passes(args)


def test_injected_wrong_reference_raises_failed(tiny_passes, monkeypatch):
    jobs = workloads.build("sf_dense", 4, "tiny")
    attempted, failed, correct, _ = run.check_outcomes(jobs, tiny_passes)
    original = reference.Reference._ref_cube
    monkeypatch.setattr(reference.Reference, "_ref_cube",
                        lambda self: {"sum": original(self)["sum"] * (1 + 1e-8)})
    attempted2, failed2, correct2, causes = run.check_outcomes(jobs, tiny_passes)
    assert attempted2 == attempted
    assert failed2 > failed
    assert causes["cube-k5"][1] == "failed" and correct2 == correct


def test_traced_and_untraced_passes_give_identical_outputs(tiny_passes):
    plain = [p for p in tiny_passes if not p["traced"]]
    traced = [p for p in tiny_passes if p["traced"]]
    assert plain and traced
    def outputs(p):
        return [(o["id"], o["rc"], o["exc"], o["stdout"], o["stderr"]) for o in p["jobs"]]

    assert outputs(plain[0]) == outputs(traced[0])


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import gcdsums.cli as cli
    import gcdsums.gcdsum as gcdsum
    import gcdsums.transforms as transforms

    before = (cli.gcd_sum, gcdsum.gcd_sum, transforms.gcd_sum, gcdsum.GcdMatrix.__dict__["matvec"])
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.gcd_sum is gcdsum.gcd_sum is transforms.gcd_sum is not before[0]
    tracer.uninstall()
    assert (cli.gcd_sum, gcdsum.gcd_sum, transforms.gcd_sum,
            gcdsum.GcdMatrix.__dict__["matvec"]) == before


def test_tracer_skips_names_the_program_lacks(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    monkeypatch.setattr(tracing, "INSTRUMENTED", tracing.INSTRUMENTED + (
        ("gcdsums.gcdsum", "no_such_function", "span"),
        ("gcdsums.gcdsum", "GcdMatrix.no_such_method", "agg"),
        ("gcdsums.gcdsum", "NoSuchClass.method", "agg")))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()


def test_fails_without_the_program():
    tmp_path = run.WORK / "bare-checkout"
    shutil.rmtree(tmp_path, ignore_errors=True)
    tmp_path.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "sf_dense", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    shutil.rmtree(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
