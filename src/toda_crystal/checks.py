"""The report records of the verify routes, and what both check modules share.

A check of `symmetries` or `identities` fills one CheckReport and tells its
status as PASS, FAIL or INSUFFICIENT; the cli writes it as a report line.
entry_evidence names an offending operator entry by its row and column
partitions. sandwich_entry is the residual kernel of the first shift and of
the intertwining check: it forms c T + f L T + T f' R on a dense integer
table T, row by row, and stops at the first nonzero entry a mask certifies.
torus_constant is the central subtraction both check modules read. Only the
verify routes import this module, so a series export compiles none of it.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import format_rational

PASS = "pass"
FAIL = "fail"
INSUFFICIENT = "insufficient_window"


class CheckReport:
    """One report line's content, filled in as a check runs."""

    __slots__ = ("check", "params", "status", "evidence", "window")

    def __init__(self, check: str, params: dict, status: str, evidence=None, window=0):
        self.check, self.params, self.status, self.window = check, params, status, window
        self.evidence = {} if evidence is None else evidence

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self) -> dict:
        return {"check": self.check, "params": self.params, "status": self.status,
                "evidence": {**self.evidence, "window": self.window}}


def torus_constant(j: int, p: Fraction) -> Fraction:
    """Central subtraction q^j/(1-q^j) attached to the zero-shift generators."""
    if j == 0:
        raise ValueError("the torus constant is undefined at j = 0")
    x, y = p.numerator ** (2 * abs(j)), p.denominator ** (2 * abs(j))  # q^|j| = x/y
    return Fraction(x, y - x) if j > 0 else Fraction(y, x - y)


def entry_evidence(basis_obj, i: int, j: int, value) -> dict:
    """The evidence of entry (i, j) of an operator on the basis: its row and
    column partitions and its value."""
    return {
        "row": basis_obj.parts[i].to_json(),
        "col": basis_obj.parts[j].to_json(),
        "value": format_rational(value),
    }


def sandwich_entry(table, left, right, diag: int, mask, basis, f_left: int = 1,
                   f_right: int = 1) -> tuple[int, int, int] | None:
    """The earliest nonzero entry (i, j, v) of diag T + f_left L T + T f_right R
    inside the certified_window mask, by row, then column, or None: T a dense
    integer matrix (a list of rows), L and R integer rows {i: {j: value}},
    diag, the scales and so v integers, over the caller's denominator. Only the
    rows the mask reads are formed, in turn, each up to its last live column."""
    w, ranges = basis.weights, basis.weight_range
    cut: dict[int, list] = {}  # by stop, the entries (x, j, u) of R with j < stop
    for i, row in enumerate(table):
        live = mask[w[i]]
        if not any(live):
            continue
        stop = ranges[max(n for n, x in enumerate(live) if x)].stop
        if stop not in cut:
            cut[stop] = [(x, j, f_right * u) for x, r in right.items() for j, u in r.items()
                         if j < stop]
        acc = [diag * t for t in row[:stop]] if diag else [0] * stop
        for x, u in left.get(i, {}).items():
            u *= f_left
            acc = [a + u * t for a, t in zip(acc, table[x])]
        for x, j, u in cut[stop]:
            acc[j] += row[x] * u
        j = next((j for j, v in enumerate(acc) if v and live[w[j]]), None)
        if j is not None:
            return i, j, acc[j]
    return None
