"""What the check modules share: the split rule, the report records and the
residual kernel.

Truncation is certified instead of bounded: a product entry is trusted only
when the split rule proves every intermediate state fits under the cutoff.
The rule reads the chain of the product, the shift classes of its factors,
and the row and column weights alone. Operators carry no shift class: each
check states the chains of the products it compares, from its own indices,
and asks certified_window once for its mask, an (N+1) x (N+1) table over
weight pairs, and reads every entry against it. Entries outside the mask are
never used.

A check of `symmetries`, `shifts` or `identities` fills one CheckReport and
tells its status as PASS, FAIL or INSUFFICIENT; the cli writes it as a report
line. p_label writes the p of its params, once per sector. entry_evidence
names an offending operator entry by its row and column partitions.
sandwich_entry is the residual kernel of the first shift and of the
intertwining check: it forms c T + f L T + T f' R on a dense integer table T,
row by row, and stops at the first nonzero entry a mask certifies.
torus_constant is the central subtraction of the first shift and of the
identities. Only the verify routes import this module, so a series export
compiles none of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import Value, format_rational
from .fock import SectorConfig, get_basis

INF = math.inf

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


@lru_cache(maxsize=None)
def p_label(config: SectorConfig) -> str:
    """The p of a report's params, formatted once per config."""
    return format_rational(config.p)


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


class ShiftClass(Value):
    """Energy bookkeeping of one factor of a product, a Value: banded(delta)
    means row weight = col weight + delta for every nonzero entry, RAISING
    means row weight >= col weight, LOWERING row weight <= col weight, and
    FULL promises nothing. The chain of a product is the tuple of the shift
    classes of its factors, from left to right."""

    __slots__ = ("kind", "delta")  # kind: 'banded' | 'raising' | 'lowering' | 'full'

    def __init__(self, kind: str, delta: int = 0):
        super().__init__(kind, delta)


RAISING = ShiftClass("raising")
LOWERING = ShiftClass("lowering")
FULL = ShiftClass("full")


def banded(delta: int) -> ShiftClass:
    return ShiftClass("banded", delta)


def _overflows(chains: tuple[tuple[ShiftClass, ...], ...], N: int, w: int, row_side: bool) -> int:
    """The split points, one bit each, counted across the chains in turn, where
    the bound walking in from weight w exceeds N: from the row side it adds
    max(0, -delta) rightwards (RAISING transparent), from the col side
    max(0, delta) leftwards (LOWERING transparent); other classes unbound it."""
    over: list[bool] = []
    for chain in chains:
        bound, exceeds = w, []
        for f in chain[:-1] if row_side else chain[:0:-1]:
            if f.kind == "banded":
                bound += max(0, -f.delta if row_side else f.delta)
            elif f.kind != ("raising" if row_side else "lowering"):
                bound = INF
            exceeds.append(bound > N)
        over += exceeds if row_side else exceeds[::-1]
    return sum(x << t for t, x in enumerate(over))


@lru_cache(maxsize=None)
def certified_window(N: int, chains: tuple[tuple[ShiftClass, ...], ...] = (),
                     band: int | None = None) -> tuple[tuple[tuple[bool, ...], ...], int]:
    """The mask of weight pairs a check trusts and the window size; the one
    place the split rule is applied.

    Each chain is the tuple of shift classes of the factors of one product
    the check compares, in the sector cut at N. mask[row weight][col weight]
    holds when, for every chain, at no split point both the row-side and the
    col-side bound (_overflows, walked once per weight) exceed N and, given a
    band, row weight = col weight + band. It is cached, since many checks
    share their chains. The window size is the number of basis pairs it
    covers."""
    b = get_basis(N)
    sizes = [len(b.weight_range[n]) for n in range(N + 1)]
    rows, cols = ([_overflows(chains, N, w, side) for w in range(N + 1)] for side in (True, False))
    mask = tuple(tuple((band is None or w1 == w2 + band) and not rows[w1] & cols[w2]
                       for w2 in range(N + 1)) for w1 in range(N + 1))
    size = sum(sizes[w1] * sizes[w2]
               for w1 in range(N + 1) for w2 in range(N + 1) if mask[w1][w2])
    return mask, size
