#!/usr/bin/env python3
"""Mutation survey: does some check of `verify all` catch each planted fault?

Each mutant replaces one exact text in one module of src/toda_crystal with
another. For each mutant the survey copies src/ to a temporary directory,
applies the mutant there, and runs `toda-crystal verify all --K 2 --D 3
--NQ 4` (N = 6) on the copy at p = 1/2 and at p = 2/3. It prints the check
kinds that have a fail or error line; a mutant with none survives. The
expected outcome of a mutant is "caught", or "equivalent" with the reason
why no check can catch it.

The exit status is 1 when a mutant that is not equivalent survives, when an
old text does not occur exactly once in its module, or when the unmutated
copy has a line that does not pass. Run from a source checkout:

    python scripts/mutation_survey.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toda_crystal"
VERIFY = ("verify", "all", "--K", "2", "--D", "3", "--NQ", "4")
PS = ("1/2", "2/3")


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/toda_crystal
    old: str     # occurs exactly once in the module
    new: str
    equivalent: str = ""  # why no check can catch it; empty for "caught"

    @property
    def expected(self) -> str:
        return "equivalent" if self.equivalent else "caught"


MUTANTS = (
    Mutant("flipped_prefactor", "symmetries.py",
           "return (((0, -n, m), 1), ((0, n, -m), -1), *(",
           "return (((0, -n, m), -1), ((0, n, -m), 1), *("),
    Mutant("doubled_identity", "symmetries.py",
           "((1, e, e), (m > 0) - (m < 0))", "((1, e, e), 2 * ((m > 0) - (m < 0)))"),
    Mutant("unsigned_degenerate", "symmetries.py",
           "((1, e, e), (m > 0) - (m < 0))", "((1, e, e), 1)"),
    Mutant("certificate_keeps_zero_terms", "symmetries.py",
           "return window, {key: c for key, c in residual.items() if c}",
           "return window, residual",
           equivalent="the zero terms only cost an evaluation: each evaluates to 0, so every "
                      "report is unchanged; tier-1 counts the evaluations instead"),
    Mutant("charge_offset_s_minus_1", "algebra.py",
           "return s * (s + 1) // 2", "return s * (s - 1) // 2"),
    Mutant("flipped_move_sign", "fock.py",
           "sign = -1 if (mask >> min(x, y) + 1 & between).bit_count() & 1 else 1",
           "sign = 1 if (mask >> min(x, y) + 1 & between).bit_count() & 1 else -1"),
    Mutant("wrong_c_k", "transfer.py",
           "num, den = (a * b) ** k, b ** (2 * k) - a ** (2 * k)",
           "num, den = (a * b) ** k, b ** (2 * k) + a ** (2 * k)"),
    Mutant("wrong_alternating_sign", "transfer.py",
           'if family == "alternating" and k % 2 == 0:',
           'if family == "alternating" and k % 2 == 1:'),
    Mutant("short_maya_tail", "fock.py",
           "tail_top, levels = s - len(parts), ", "tail_top, levels = s - len(parts) - 1, "),
    Mutant("first_shift_parity", "shifts.py",
           'parity = (-1) ** k if variant == "G" else 1',
           'parity = (-1) ** (k + 1) if variant == "G" else 1'),
    Mutant("second_shift_exponent", "shifts.py", "(k - m) * e", "(k + m) * e"),
    Mutant("wrong_negative_torus_constant", "checks.py",
           "Fraction(x, y - x) if j > 0 else Fraction(y, x - y)",
           "Fraction(x, y - x) if j > 0 else Fraction(x, x - y)"),
    Mutant("wrong_prev_constant", "identities.py",
           "return params.p ** (-(s * (s + 1) * (2 * s + 1)) // 3)",
           "return params.p ** (-(s * (s + 1) * (2 * s + 1)) // 6)"),
    Mutant("plain_right_dressing", "toda.py",
           '_RIGHT_W0_SIGN = {"plain": +1, "alternating": -1}',
           '_RIGHT_W0_SIGN = {"plain": +1, "alternating": +1}'),
    Mutant("w0_weight_off_by_one", "models.py",
           "(2 * s + 1) * mu.weight", "(2 * s + 3) * mu.weight"),
    Mutant("wrong_kappa", "partitions.py",
           "m * (m - 2 * i + 1)", "m * (m - 2 * i + 3)"),
    Mutant("even_t_signs_flipped", "series.py",
           "return self._flip(range(0, self.ctx.K, 2))",
           "return self._flip(range(1, self.ctx.K, 2))"),
)


def mismatched(mutants=MUTANTS, package: Path = PACKAGE) -> list[str]:
    """The names of the mutants whose old text does not occur exactly once."""
    return [m.name for m in mutants if (package / m.module).read_text().count(m.old) != 1]


def failing_kinds(src: Path) -> set[str]:
    """The check kinds with a line that fails or errors in `verify all` run on
    the package under src, at every p of PS; "crash" when a run writes no
    report."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    kinds = set()
    for p in PS:
        run = subprocess.run([sys.executable, "-m", "toda_crystal.cli", *VERIFY, "--p", p],
                             env=env, capture_output=True, text=True, check=False)
        lines = [json.loads(text) for text in run.stdout.splitlines()]
        if run.returncode not in (0, 1) or not lines:
            kinds.add("crash")
        kinds |= {line["check"] for line in lines if line["status"] in ("fail", "error")}
    return kinds


def run_mutant(mutant: Mutant | None, package: Path = PACKAGE) -> set[str]:
    """failing_kinds on a temporary copy of the package with the mutant
    applied, or unmutated for None."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "toda_crystal"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = copy / mutant.module
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        return failing_kinds(Path(tmp))


def main() -> int:
    bad = mismatched()
    for name in bad:
        print(f"{name}: the old text does not occur exactly once")
    if bad:
        return 1
    base = run_mutant(None)
    if base:
        print(f"unmutated: failing kinds {sorted(base)}")
        return 1
    survivors = []
    for mutant in MUTANTS:
        kinds = run_mutant(mutant)
        outcome = "caught" if kinds else "survived"
        print(f"{mutant.name} ({mutant.module}): {outcome}, expected {mutant.expected}; "
              f"failing kinds {', '.join(sorted(kinds)) or 'none'}")
        if not kinds and not mutant.equivalent:
            survivors.append(mutant.name)
    if survivors:
        print(f"survived: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
