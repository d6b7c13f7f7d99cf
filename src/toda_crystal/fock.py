"""Charge-s free-fermion sector on a partition basis with an energy cutoff.

States are Maya diagrams: |mu, s> occupies the levels {s + mu_i - i + 1}
and every level far enough below. psi_a creates a particle at level -a,
psi*_b removes the one at level b, and each move picks up the parity of
the occupied levels strictly above the touched level. All operators here
preserve the charge, so a fixed sector is a sparse matrix algebra over
the partitions of weight <= N. In the sector cut at N a state is an int bit
mask, the same for every charge (_masks): bit x stands for level
x + s - 2N - 1, so row r of mu sets bit mu_r - r + 2N + 2, the tail sets bits
0 ... 2N + 1 - len(mu), and every level below bit 0 is occupied. Moving the
particle at bit x to the empty bit y flips both bits. Its sign counts the
occupied levels above x, then those above y once x is empty; the levels above
both count twice, so the sign is (-1)^popcount of the bits strictly between.

Operators are held, never combined, and always in integer form: integer
numerators over one denominator. The particle moves of a shift depend on it
and the cutoff alone, not on the charge, and are built once, in move_table.
v_terms, the one builder of V^(k)_m, writes each entry p-free as a Laurent
polynomial in x = p^k, one term per move (at m = 0 per level of the potential
diagonal); J_k puts its sign on each move (j_rows, which the time vectors and
the intertwining check read), and a transfer exponent +-c_k. The commutator
certificate reads the terms, for every p; the first shift evaluates them at a
p (shifts.v_rows), and the second compares their exponents. Every Fraction
operator, V and J among them, is the test oracles' reference. Every route of
the fermion sector imports this module. The split rule is in `checks`, which a
tau export never loads, and G_- in `transfer`, which the commutators never do.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .algebra import Value
from .partitions import enumerate_partitions


class SectorConfig(Value):
    """Fixed charge s, energy cutoff N, rational p = q^(1/2), and the
    integer weight l of the q^(l W0/2) insertion, as a Value."""

    __slots__ = ("s", "N", "p", "l", "_hash")

    def __init__(self, s: int, N: int, p: Fraction, l: int = 0):
        p = Fraction(p)
        if N < 0:
            raise ValueError("cutoff N must be nonnegative")
        if not (0 < p < 1):
            raise ValueError("p must satisfy 0 < p < 1")
        super().__init__(s, N, p, l)
        object.__setattr__(self, "_hash", hash((s, N, p, l)))

    def __hash__(self):  # taken once: a config keys its sector's caches, and p's hash is slow
        return self._hash


class Basis:
    """Partitions of weight <= cutoff in canonical order; the order is graded,
    so each weight occupies a contiguous index range."""

    __slots__ = ("cutoff", "parts", "index", "weights", "weight_range")

    def __init__(self, cutoff: int):
        self.cutoff = cutoff
        self.parts = enumerate_partitions(cutoff)
        self.index = {mu: i for i, mu in enumerate(self.parts)}
        self.weights = [mu.weight for mu in self.parts]
        self.weight_range: dict[int, range] = {}
        start = 0
        for n in range(cutoff + 1):
            stop = start
            while stop < len(self.parts) and self.parts[stop].weight == n:
                stop += 1
            self.weight_range[n] = range(start, stop)
            start = stop

    def __len__(self):
        return len(self.parts)


@lru_cache(maxsize=None)
def get_basis(cutoff: int) -> Basis:
    return Basis(cutoff)


# ---------------------------------------------------------------------------
# Maya diagrams

@lru_cache(maxsize=None)
def _masks(N: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The bit mask of each basis state of the cut at N, for every charge (see
    the module docstring), and the index of each mask."""
    masks = tuple(sum(1 << m - r + 2 * N + 1 for r, m in enumerate(mu.parts))
                  | (1 << 2 * N + 2 - len(mu)) - 1 for mu in get_basis(N).parts)
    return masks, {mask: i for i, mask in enumerate(masks)}


def maya_diag_levels(parts: tuple[int, ...], s: int) -> list[tuple[int, int]]:
    """(sign, x) for each occupied level x > 0, with sign +1, and each empty
    level x <= 0, with sign -1; both lists are finite. A diagonal eigenvalue
    sum_{x occupied, x>0} f(x) - sum_{x empty, x<=0} f(x) is sum sign f(x).
    The tail occupies every level <= s - len(parts)."""
    tail_top, levels = s - len(parts), [s + m - i for i, m in enumerate(parts)]
    # empty levels can only sit strictly above the tail
    return ([(1, x) for x in levels if x > 0] + [(1, x) for x in range(1, tail_top + 1)]
            + [(-1, x) for x in range(tail_top + 1, 1) if x not in levels])


# ---------------------------------------------------------------------------
# Integer forms

def apply_row(vec: Mapping[int, object], rows: Mapping[int, Mapping]) -> dict[int, object]:
    """Row vector times the matrix with the given rows."""
    out: dict[int, object] = {}
    for i, v in vec.items():
        row = rows.get(i)
        if not row:
            continue
        for j, m in row.items():
            cur = out.get(j)
            nv = v * m if cur is None else cur + v * m
            out[j] = nv
    return {j: v for j, v in out.items() if v}


def power_form(p: Fraction, exps: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The powers p^e, e in exps, as integer numerators over one denominator,
    in lowest terms: with p = a/b, lo = min(0, exps) and hi = max(0, exps),
    p^e = a^(e - lo) b^(hi - e) / (a^-lo b^hi). No exponent gives ((), 1)."""
    a, b = p.numerator, p.denominator
    lo, hi = min([0, *exps]), max([0, *exps])
    return tuple(a ** (e - lo) * b ** (hi - e) for e in exps), a ** -lo * b ** hi


# ---------------------------------------------------------------------------
# Concrete operators

@lru_cache(maxsize=None)
def move_table(m: int, N: int) -> tuple[tuple[int, int, int, int], ...]:
    """The particle moves of a shift by -m in the sector cut at N, the same at
    every charge, as (row, col, sign, src): in the charge-s sector, moving the
    particle at level src + s to src + s - m takes |mu_col, s> to
    sign |lambda_row, s>; distinct moves give distinct pairs. On the _masks,
    the particle at bit x, from the top down to |m| below the tail, moves to
    y = x - m when y >= 0 and bit y is clear, with the sign (-1)^(number of
    set bits strictly between x and y); at m = 0 every such particle stays,
    giving (col, col, 1, src)."""
    b = get_basis(N)
    masks, index = _masks(N)
    between = (1 << abs(m) - 1) - 1 if m else 0  # the bits strictly between, from min(x, y) + 1
    level = -2 * N - 1  # of bit 0 at charge 0
    moves = []
    for j, mask in enumerate(masks):
        if not 0 <= b.weights[j] - m <= N:
            continue
        for x in range(mask.bit_length() - 1, 2 * N - len(b.parts[j]) - abs(m), -1):
            y = x - m
            if mask >> x & 1 and (not m or y >= 0 and not mask >> y & 1):
                sign = -1 if (mask >> min(x, y) + 1 & between).bit_count() & 1 else 1
                moves.append((index[mask ^ 1 << x ^ 1 << y], j, sign, x + level))
    return tuple(moves)


@lru_cache(maxsize=None)
def j_rows(k: int, N: int) -> dict[int, dict[int, int]]:
    """The rows of J_k in the sector cut at N, for every charge: the sign of
    each move of move_table(k, N)."""
    rows: dict[int, dict[int, int]] = {}
    for i, j, sign, _ in move_table(k, N):
        rows.setdefault(i, {})[j] = sign
    return rows


@lru_cache(maxsize=None)
def v_terms(m: int, s: int, N: int) -> dict[int, list[tuple[int, int, int]]]:
    """V^(k)_m of the charge-s sector cut at N for every k, p-free, as rows
    {i: [(j, e, c), ...]}: the entry (i, j) is the sum of its terms c x^e, x = p^k.
    Each move of move_table gives one term sign x^(2 (src + s) - m); at m = 0 each
    diagonal entry has one term sign x^(2 level) per level of maya_diag_levels."""
    rows: dict[int, list[tuple[int, int, int]]] = {}
    for i, j, sign, src in move_table(m, N) if m else ():
        rows.setdefault(i, []).append((j, 2 * (src + s) - m, sign))
    for i, mu in enumerate(get_basis(N).parts) if m == 0 else ():
        rows[i] = [(i, 2 * x, sign) for sign, x in maya_diag_levels(mu.parts, s)]
    return rows


@lru_cache(maxsize=None)
def w0_diag(s: int, N: int) -> tuple[int, ...]:
    """The W0 eigenvalues of the charge-s sector cut at N, by basis index."""
    return tuple(sum(sign * x * x for sign, x in maya_diag_levels(mu.parts, s))
                 for mu in get_basis(N).parts)
