"""Fixed reference work that run.py times next to every measured invocation.

    python3 perfbench/calibrate.py

A fresh interpreter imports the standard modules that a command-line program
of this kind loads, then multiplies a banded sparse matrix of Fractions (dict
of dicts, the representation the package uses for its operators) by itself
three times and checks the result. The work never changes with the program,
so the wall time of this process measures only how fast the machine is at
that moment; run.py divides each invocation's time by it (see NOTES.md).
Exits 1 when the result is wrong.
"""

import importlib
import sys
from fractions import Fraction

# Start-up is part of every timed invocation. Importing these keeps the
# calibration's mix of start-up and arithmetic close to a CLI invocation's,
# which made the ratio follow the machine's speed changes far more closely
# than the arithmetic alone (NOTES.md).
STARTUP_MODULES = ("argparse", "collections", "dataclasses", "decimal", "functools", "hashlib",
                   "itertools", "json", "random", "re", "typing")
N, BAND, POWER = 60, 4, 4
EXPECTED = (1708, 601019, 104528)  # nnz, trace numerator and denominator mod 1000003


def product(a: dict, b: dict) -> dict:
    out = {}
    for i, row in a.items():
        acc: dict = {}
        for k, x in row.items():
            for j, y in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + x * y
        out[i] = {j: v for j, v in acc.items() if v}
    return out


def main() -> int:
    for name in STARTUP_MODULES:
        importlib.import_module(name)
    a = {i: {j: Fraction(i + 1, j + 2) for j in range(max(0, i - BAND), min(N, i + BAND + 1))}
         for i in range(N)}
    m = a
    for _ in range(POWER - 1):
        m = product(m, a)
    nnz = sum(len(row) for row in m.values())
    checksum = sum(m[i][i] for i in range(N))
    got = (nnz, checksum.numerator % 1000003, checksum.denominator % 1000003)
    print(*got)
    return 0 if got == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
