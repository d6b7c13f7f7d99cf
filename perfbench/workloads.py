"""Workload definitions, the seeded choice of p, and output checks.

Each workload is one fixed toda-crystal CLI invocation apart from the
rational p = q^(1/2), which comes from POOL; the seed orders the pool (see
p_order). Sizes are scaled so one uncontended invocation takes about a
second, which lets a run time many fresh processes.
Why each workload exists (the layer it isolates):

- commutators: V-operator construction, sparse banded SectorOperator
  arithmetic and certificate evaluation; no transfer exponentials, no toda,
  no series.
- tau-export: the dense transfer pair G-G+ and the time vectors and tau
  assembly; no certificates and no series products.
- prev-identity: the intertwining check over dense graded blocks; the same
  SectorOperator matmul and subtraction as commutators on dense operands.
- zprime-sum: the sum over partitions with series multiplication and exp;
  never touches the fermion sector.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

# The rationals in (0, 1) with denominator at most 3. Costs grow with the
# height of p (larger integers in every Fraction), so the pool stays at the
# smallest heights.
POOL = ("1/2", "1/3", "2/3")
REFERENCE_P = "1/2"
REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify": JSON report lines; "compute": one series document
    args: tuple[str, ...]  # CLI arguments; --p is appended per run

    def argv(self, p: str) -> list[str]:
        return [*self.args, "--p", p]


WORKLOADS = {w.name: w for w in (
    Workload("commutators", "verify",
             ("verify", "commutators", "--s", "0", "--K", "2", "--D", "3")),
    Workload("tau-export", "compute",
             ("compute", "tau-prime", "--s", "0", "--l", "1", "--K", "3", "--D", "2",
              "--NQ", "8")),
    Workload("prev-identity", "verify",
             ("verify", "prev-identity", "--s", "0", "--K", "2", "--D", "3")),
    Workload("zprime-sum", "compute",
             ("compute", "zprime", "--s", "0", "--l", "1", "--K", "4", "--D", "4", "--NQ", "6")),
)}

# Crashes the program is known to have at every p but REFERENCE_P, by
# workload: the stderr text that identifies each. Such a workload is timed at
# REFERENCE_P only and probed once per run at the other p (see NOTES.md).
KNOWN_DEFECTS = {
    "prev-identity": "ValueError: rebinding requires identical N and p",
}


def timed_pool(name: str) -> tuple[str, ...]:
    """The p a workload is timed at. It stays REFERENCE_P alone for a workload
    with a known crash, so that a fix cannot change what is timed."""
    return (REFERENCE_P,) if name in KNOWN_DEFECTS else POOL


def p_order(seed: int, name: str) -> Iterator[str]:
    """The p of each successive invocation of a workload: rounds that each
    run every timed p once, in an order drawn from the seed. Every run then
    times the same mix of p, and the seed changes only the sequence."""
    rng = random.Random(f"{seed}:{name}")
    pool = list(timed_pool(name))
    while True:
        rng.shuffle(pool)
        yield from pool


def line_key(line: dict) -> str:
    """Identity of a report line: its check and params, without p (the
    references are grouped by p)."""
    params = {k: v for k, v in line["params"].items() if k != "p"}
    return json.dumps([line["check"], params], sort_keys=True, separators=(",", ":"))


def verify_windows(stdout: str) -> dict[str, int]:
    """Each report line's key and its evidence.window."""
    return {line_key(line): line["evidence"]["window"] for line in _report_lines(stdout)}


def output_sha256(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _report_lines(stdout: str):
    for text in stdout.splitlines():
        if text.strip():
            yield json.loads(text)


def reference_for(references: dict, workload: str, p: str) -> dict:
    """The stored reference of one workload at one p: {"sha256": hex} for a
    compute workload, {"checks": {line key: window}} for a verify workload."""
    ref = references[workload]
    if "sha256" in ref:
        return {"sha256": ref["sha256"][p]}
    return {"checks": dict(zip(ref["checks"], ref["windows"][p]))}


def check_output(kind: str, stdout: bytes, reference: dict, p: str) -> tuple[int, int]:
    """(attempted, failed) for one invocation's output against its reference.

    verify: one attempt per reference line; a line fails when it is missing,
    not 'pass', reports another p, or its evidence.window is below the
    reference window.
    compute: one attempt; it fails unless the output is byte-identical.
    """
    if kind == "compute":
        return 1, int(output_sha256(stdout) != reference["sha256"])
    expected = reference["checks"]
    got = {}
    try:
        for line in _report_lines(stdout.decode()):
            got[line_key(line)] = line
    except (ValueError, KeyError, AttributeError, UnicodeDecodeError):
        got = {}
    failed = 0
    for key, window in expected.items():
        line = got.get(key)
        if (line is None or line.get("status") != "pass" or line["params"].get("p") != p
                or line.get("evidence", {}).get("window", -1) < window):
            failed += 1
    return len(expected), failed


def normalized(kind: str, stdout: bytes) -> bytes:
    """Output with the timing field removed, for traced/untraced comparison."""
    if kind == "compute":
        return stdout
    lines = []
    for line in _report_lines(stdout.decode()):
        line.pop("wall_ms", None)
        lines.append(json.dumps(line, sort_keys=True))
    return "\n".join(lines).encode()


def load_references(path: Path = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)
