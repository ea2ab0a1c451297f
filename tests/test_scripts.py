"""Smoke tests of the scripts under scripts/, run in process as `__main__`."""

import csv
import io
import json
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exit_.value.code == 0
    return capsys.readouterr().out


def test_cube_curves_direct_sums_match_the_product_form(capsys, monkeypatch):
    out = run_script("cube_curves.py", ["--k-max", "8", "--direct-k-max", "8"], capsys, monkeypatch)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["k"]) for r in rows] == list(range(1, 9))
    for r in rows:
        gap = float(r["direct_rel_gap"])
        assert math.isfinite(gap) and gap <= 1e-12, r


def test_extremal_tables_maximizers_are_complete(capsys, monkeypatch):
    out = run_script("extremal_tables.py", ["--alphas", "0.5", "--max-index", "3", "--n-max", "4"],
                     capsys, monkeypatch)
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert all(r["all_complete"] and r["maximizers"] for r in rows)


def test_prime_counts_match_the_shipped_prefix(tmp_path, capsys, monkeypatch):
    limit = str(1 << 22)
    table = tmp_path / "counts.npy"
    run_script("prime_counts.py", ["--limit", limit, "--table", str(table)], capsys, monkeypatch)
    counts = np.load(table, allow_pickle=False)
    shipped = np.load(SCRIPTS.parent / "src" / "gcdsums" / "prime_counts.npy")
    assert counts.dtype == np.uint16 and len(counts) == 32
    assert np.array_equal(counts, shipped[:32])
    out = run_script("prime_counts.py", ["--check", "--limit", limit], capsys, monkeypatch)
    assert "32 of 32 entries match, 295947 primes below 4194304" in out
