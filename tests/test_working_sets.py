"""Working sets of the pair kernel and the set-file parser.

tracemalloc sees numpy's buffers and the regular-expression engine's
backtracking state, so a traced peak bounds what a call keeps live.  The
shapes are those of the benchmark's set files: sparse square-free sets on 40
positions, smooth integers on 12 primes, random integers below 10^8 and
random subsets of the 14-cube.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

import gcdsums.gcdsum as gcdsum_module
from gcdsums import IndexSet, PrimePowerWeights, gcd_sum
from gcdsums.cli import parse_set_file
from gcdsums.gcdsum import index_set_from_integers

half = PrimePowerWeights(0.5)


def traced_peak(call) -> float:
    """Peak traced memory of call(), in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def wide_set(n=1000, m=40, density=0.25, seed=3):
    """n distinct masks on m positions, each position set with probability `density`."""
    rng = random.Random(seed)
    masks = set()
    while len(masks) < n:
        masks.add(sum(1 << b for b in range(m) if rng.random() < density))
    return IndexSet.from_masks(masks)


def smooth_set(n=300, seed=3):
    """n members on the first 12 positions, each on its own support of one to
    six positions with exponents 1 to 4."""
    rng = random.Random(seed)
    rows = {}
    while len(rows) < n:
        support = frozenset(rng.sample(range(12), rng.randint(1, 6)))
        rows.setdefault(support, [rng.randint(1, 4) if j in support else 0 for j in range(12)])
    return IndexSet.from_rows(range(1, 13), np.array(list(rows.values())))


def random_integer_set(n=250, seed=3):
    rng = random.Random(seed)
    return index_set_from_integers([99_999_989] + rng.sample(range(2, 99_999_989), n - 1))


def subset_set(n=3000, m=14, seed=3):
    return IndexSet.from_masks(random.Random(seed).sample(range(1 << m), n))


@pytest.mark.parametrize("make", [wide_set, smooth_set], ids=["wide", "smooth"])
def test_gcd_sum_working_set_fits_the_cache(make):
    B = make()
    gcd_sum(half, B)  # weights and caches of the set
    assert traced_peak(lambda: gcd_sum(half, B)) <= 4.0


def test_parse_set_file_keeps_no_backtracking_state(tmp_path):
    rng = random.Random(9)
    path = tmp_path / "subsets.txt"
    masks = rng.sample(range(1, 1 << 14), 3000)
    path.write_text("".join("mi" + "".join(f" {b + 1}:1" for b in range(14) if x >> b & 1) + "\n"
                            for x in masks), encoding="utf-8")
    B = parse_set_file(str(path))
    assert len(B) == 3000
    assert traced_peak(lambda: parse_set_file(str(path))) <= 3.0


def test_exponent_blocks_of_one_row_match_one_block(monkeypatch):
    B = random_integer_set()
    n, m = len(B), len(B.universe())
    assert not B.is_square_free() and n * m > gcdsum_module._BLOCK_BUDGET  # one row a block
    rows = gcdsum_module._Pairs(half, B).apply()
    blocked = math.fsum(rows)
    monkeypatch.setattr(gcdsum_module, "_BLOCK_BUDGET", n * n * m)
    assert len(list(gcdsum_module._pair_blocks(half, B))) == 1
    assert np.allclose(gcdsum_module._Pairs(half, B).apply(), rows, rtol=1e-14, atol=0)
    assert gcdsum_module._Pairs(half, B).form() == pytest.approx(blocked, rel=1e-14)


@pytest.mark.parametrize("make, operator", [
    (wide_set, gcdsum_module._Pairs),
    (random_integer_set, gcdsum_module._Divisors),
    (smooth_set, gcdsum_module._Pairs),
    (subset_set, gcdsum_module._Transform),
], ids=["wide", "random-integers", "smooth", "subsets"])
def test_operator_choice_on_benchmark_shapes(make, operator):
    assert type(gcdsum_module._operator(half, make())) is operator
