"""The compiled formatter of raydiss.native against repr on seeded random
bit patterns: a longer run than tier-1's 2e5.

    python tests/formatter_fuzz.py [COUNT [SEED]]

Builds the formatter (a C compiler, `cc`, must be on PATH), formats COUNT
doubles of random bits (default 10^7, seed 0), drawn and compared in
chunks, and exits 1 at the first that differs from repr, printing its
float.hex, the formatter's text and repr's.
"""

from __future__ import annotations

import os
import random
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from raydiss import native  # noqa: E402 - after the path

CHUNK = 200_000


def main(argv):
    count = int(argv[0]) if argv else 10 ** 7
    rng = random.Random(int(argv[1]) if len(argv) > 1 else 0)
    fmt = native._build_formatter()
    if fmt is None:
        print("formatter_fuzz: no formatter: cc is missing or failed",
              file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    for start in range(0, count, CHUNK):
        values = array("d")
        values.frombytes(rng.randbytes(8 * min(CHUNK, count - start)))
        text = fmt(values, 1, [0], ",").split("\n")
        for x, got in zip(values, text):
            if got != repr(x):
                print(f"formatter_fuzz: {x.hex()}: formatter {got!r}, "
                      f"repr {x!r}", file=sys.stderr)
                return 1
    print(f"formatter_fuzz: {count} values equal repr "
          f"({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
