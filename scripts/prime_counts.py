#!/usr/bin/env python3
"""Write or check the prime counts that `PrimeTable` ranks primes from.

Entry k of src/gcdsums/prime_counts.npy is pi(2^17 (k + 1)) - pi(2^17 k),
the number of primes in one interval of 2^16 odd numbers, for the 16 384
intervals below 2^31, as uint16 (32 KB).  This script counts them with the
library's own sieve, `primes._odd_blocks` (about 3 s), and writes the table,
or with --check compares the count with the table and exits 1 on a
difference.  --limit counts only the intervals below it, and --check then
compares the table's prefix.

    PYTHONPATH=src python scripts/prime_counts.py --check
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from gcdsums.primes import _MARK, _odd_blocks

SPAN = 2 * _MARK  # integers per entry
TOP = 1 << 31
TABLE = Path(__file__).resolve().parent.parent / "src" / "gcdsums" / "prime_counts.npy"


def prime_counts(limit: int) -> np.ndarray:
    """pi(SPAN (k + 1)) - pi(SPAN k) for every k with SPAN (k + 1) <= limit,
    limit a multiple of SPAN: the odd numbers 2i + 1 of entry k are those
    with k _MARK <= i < (k + 1) _MARK, and entry 0 also counts 2."""
    out = np.zeros(limit // SPAN, dtype=np.int64)
    for lo, block in _odd_blocks(0, limit // 2 - 1):
        k = lo // _MARK
        out[k : k + len(block) // _MARK] = np.count_nonzero(block.reshape(-1, _MARK), axis=1)
    out[0] += 1
    return out.astype(np.uint16)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh count with the table instead of writing it")
    parser.add_argument("--limit", type=int, default=TOP,
                        help=f"count the intervals below this multiple of {SPAN} (default 2^31)")
    parser.add_argument("--table", type=Path, default=TABLE,
                        help="the table to write or check (default: the package's)")
    args = parser.parse_args()
    if not (0 < args.limit <= TOP and args.limit % SPAN == 0):
        parser.error(f"--limit must be a positive multiple of {SPAN} up to 2^31, got {args.limit}")

    counts = prime_counts(args.limit)
    if not args.check:
        np.save(args.table, counts, allow_pickle=False)
        total = int(counts.sum(dtype=np.int64))
        print(f"wrote {len(counts)} entries, {total} primes, to {args.table}")
        return 0
    shipped = np.load(args.table, allow_pickle=False)
    if shipped.dtype != np.uint16 or len(shipped) < len(counts):
        print(f"{args.table}: {shipped.dtype}, {len(shipped)} entries; expected uint16, "
              f"at least {len(counts)}")
        return 1
    wrong = np.flatnonzero(shipped[: len(counts)] != counts)
    for k in wrong[:10].tolist():
        print(f"entry {k}: table {int(shipped[k])}, counted {int(counts[k])}")
    print(f"{len(counts) - len(wrong)} of {len(counts)} entries match, "
          f"{int(counts.sum(dtype=np.int64))} primes below {args.limit}")
    return 1 if len(wrong) else 0


if __name__ == "__main__":
    sys.exit(main())
