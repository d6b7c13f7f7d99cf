"""Charge-s free-fermion sector on a partition basis with an energy cutoff.

States are Maya diagrams: |mu, s> occupies the levels {s + mu_i - i + 1}
and every level far enough below. psi_a creates a particle at level -a,
psi*_b removes the one at level b, and each move picks up the parity of
the occupied levels strictly above the touched level. All operators here
preserve the charge, so a fixed sector is a sparse matrix algebra over
the partitions of weight <= N.

Truncation is certified instead of bounded: a product entry is trusted
only when the split rule proves every intermediate state fits under the
cutoff. The rule reads the chain of the product, the shift classes of its
factors, and the row and column weights alone. Operators carry no shift
class: each check states the chains of the products it compares, from its
own indices, and asks certified_window once for its mask, an (N+1) x (N+1)
table over weight pairs, and reads every entry against it. Entries outside
the mask are never used.

Operators are held, never combined, and always in integer form: integer
numerators over one denominator. The particle moves of a shift depend on it,
the charge and the cutoff alone, and are built once, in move_table. v_int,
the one builder of V^(k)_m, lays the numerators of +-p^v_exponent out along
v_pattern, the moves (at m = 0 the potential diagonal); J_k puts its sign on
each move, a transfer exponent +-c_k. The checks form each product from
these numerators. Of the transfer exponentials only G_- is ever applied, to
vectors, by transfer_row, in the same form; G_+ is its transpose. So every
entry of the pair G_-G_+ is a dot of two rows through G_-, formed by pair_dots
against the cached rows e_i G_- of minus_rows; pair_table holds the dots of
every basis row. The dense Fraction matrices of G+- and of the pair, and
every Fraction operator, V and J among them, are the test oracles' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .partitions import Partition, enumerate_partitions

INF = math.inf


@dataclass(frozen=True)
class SectorConfig:
    """Fixed charge s, energy cutoff N, rational p = q^(1/2), and the
    integer weight l of the q^(l W0/2) insertion."""

    s: int
    N: int
    p: Fraction
    l: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if self.N < 0:
            raise ValueError("cutoff N must be nonnegative")
        if not (0 < self.p < 1):
            raise ValueError("p must satisfy 0 < p < 1")
        object.__setattr__(self, "_hash", hash((self.s, self.N, self.p, self.l)))

    def __hash__(self):  # taken once: a config keys its sector's caches, and p's hash is slow
        return self._hash


class Basis:
    """Partitions of weight <= cutoff in canonical order; the order is graded,
    so each weight occupies a contiguous index range."""

    __slots__ = ("cutoff", "parts", "index", "weights", "weight_range")

    def __init__(self, cutoff: int):
        self.cutoff = cutoff
        self.parts = enumerate_partitions(cutoff, "all_up_to")
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
# Maya diagram combinatorics

def _levels(parts: tuple[int, ...], s: int) -> list[int]:
    """Occupied levels above the filled tail, strictly decreasing.
    The tail occupies every level <= s - len(parts)."""
    return [s + m - i for i, m in enumerate(parts)]


def occupied(parts: tuple[int, ...], s: int, x: int) -> bool:
    if x <= s - len(parts):
        return True
    return any(s + m - i == x for i, m in enumerate(parts))


def count_above(parts: tuple[int, ...], s: int, x: int) -> int:
    """Number of occupied levels strictly above x; finite by cofinality."""
    c = 0
    for i, m in enumerate(parts):
        if s + m - i > x:
            c += 1
        else:
            break
    tail_top = s - len(parts)
    if tail_top > x:
        c += tail_top - x
    return c


def move_particle(parts: tuple[int, ...], s: int, src: int, dst: int):
    """Move one particle from level src to level dst.

    Returns (sign, new_parts) or None when the move is Pauli-blocked.
    """
    if not occupied(parts, s, src):
        return None
    if dst == src:
        return (1, parts)
    if occupied(parts, s, dst):
        return None
    sign_exp = count_above(parts, s, src) + count_above(parts, s, dst)
    if src > dst:
        # removing src lowers the count above dst by one
        sign_exp -= 1
    tail_top = s - len(parts)
    excited = _levels(parts, s)
    if src <= tail_top:
        excited += list(range(tail_top, src - 1, -1))
        tail_top = src - 1
    excited.remove(src)
    excited.append(dst)
    excited.sort(reverse=True)
    new_parts = []
    for i, x in enumerate(excited, start=1):
        part = x - s + i - 1
        if part < 0:
            raise AssertionError("charge changed during a move")
        new_parts.append(part)
    while new_parts and new_parts[-1] == 0:
        new_parts.pop()
    return ((-1) ** sign_exp, tuple(new_parts))


def _move_sources(parts: tuple[int, ...], s: int, m: int) -> list[int]:
    """Occupied levels from which a shift by -m can leave the filled tail."""
    tail_top = s - len(parts)
    cands = _levels(parts, s)
    cands.extend(range(tail_top, tail_top - abs(m) - 1, -1))
    return cands


def maya_diag_levels(parts: tuple[int, ...], s: int) -> list[tuple[int, int]]:
    """(sign, x) for each occupied level x > 0, with sign +1, and each empty
    level x <= 0, with sign -1; both lists are finite. A diagonal eigenvalue
    sum_{x occupied, x>0} f(x) - sum_{x empty, x<=0} f(x) is sum sign f(x)."""
    tail_top = s - len(parts)
    # empty levels can only sit strictly above the tail
    return ([(1, x) for x in _levels(parts, s) if x > 0] + [(1, x) for x in range(1, tail_top + 1)]
            + [(-1, x) for x in range(tail_top + 1, 1) if not occupied(parts, s, x)])


# ---------------------------------------------------------------------------
# Shift classes and the split rule

@dataclass(frozen=True)
class ShiftClass:
    """Energy bookkeeping of one factor of a product: banded(delta) means
    row weight = col weight + delta for every nonzero entry, RAISING means
    row weight >= col weight, LOWERING row weight <= col weight, and FULL
    promises nothing. The chain of a product is the tuple of the shift
    classes of its factors, from left to right."""

    kind: str  # 'banded' | 'raising' | 'lowering' | 'full'
    delta: int = 0


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


def integer_form(rows: Mapping[int, Mapping[int, Fraction]]) -> tuple[dict, int]:
    """Rational rows as (M, den): integer rows M with M/den = rows, over the
    least common denominator of the entries, so in lowest terms."""
    den = math.lcm(*(v.denominator for row in rows.values() for v in row.values()))
    return {i: {j: v.numerator * (den // v.denominator) for j, v in row.items()}
            for i, row in rows.items()}, den


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
def move_table(m: int, s: int, N: int) -> tuple[tuple[int, int, int, int], ...]:
    """The particle moves of a shift by -m in the charge-s sector cut at N, as
    (row, col, sign, src): moving the particle at level src to src - m takes
    |mu_col, s> to sign |lambda_row, s>; distinct moves give distinct pairs."""
    b = get_basis(N)
    moves = []
    for j, mu in enumerate(b.parts):
        if not 0 <= mu.weight - m <= N:
            continue
        for src in _move_sources(mu.parts, s, m):
            res = move_particle(mu.parts, s, src, src - m)
            if res is not None:
                moves.append((b.index[Partition(res[1])], j, res[0], src))
    return tuple(moves)


def v_exponent(k: int, m: int, src: int) -> int:
    """The power of p that V^(k)_m puts on moving the particle at level src."""
    return 2 * k * src - k * m


@lru_cache(maxsize=None)
def v_pattern(m: int, s: int, N: int) -> tuple[tuple[int, int], ...]:
    """The (row, col) of each entry V^(k)_m can hold, whatever k: the moves of
    move_table, which give distinct pairs, or at m = 0 the basis diagonal,
    with the entries that vanish (V^(0)_0 at the vacuum) kept."""
    if m:
        return tuple((i, j) for i, j, _, _ in move_table(m, s, N))
    return tuple((i, i) for i in range(len(get_basis(N))))


@lru_cache(maxsize=None)
def v_int(k: int, m: int, config: SectorConfig) -> tuple[tuple[int, ...], int]:
    """V^(k)_m = q^{-km/2} sum_n q^{kn} :psi_{m-n} psi*_n: as integer numerators
    aligned with v_pattern(m, s, N) over one denominator, in lowest terms: the
    power_form of +-p^v_exponent on each move, or at m = 0 the diagonal of the
    potential eigenvalues, the signed sums of p^v_exponent over the levels of
    maya_diag_levels, read off one power_form."""
    if abs(m) > config.N:
        raise ValueError(f"|m| = {abs(m)} exceeds the cutoff {config.N}")
    s, p = config.s, config.p
    if m == 0:
        levels = [maya_diag_levels(mu.parts, s) for mu in get_basis(config.N).parts]
        exps = sorted({v_exponent(k, 0, x) for terms in levels for _, x in terms})
        nums, den = power_form(p, exps)
        pw = dict(zip(exps, nums))
        diag = [sum(sign * pw[v_exponent(k, 0, x)] for sign, x in terms) for terms in levels]
        g = math.gcd(den, *diag)
        return tuple(v // g for v in diag), den // g
    moves = move_table(m, s, config.N)
    nums, den = power_form(p, [v_exponent(k, m, src) for _, _, _, src in moves])
    return tuple(v if sign > 0 else -v for (_, _, sign, _), v in zip(moves, nums)), den


@lru_cache(maxsize=None)
def w0_diag(s: int, N: int) -> tuple[int, ...]:
    """The W0 eigenvalues of the charge-s sector cut at N, by basis index."""
    return tuple(sum(sign * x * x for sign, x in maya_diag_levels(mu.parts, s))
                 for mu in get_basis(N).parts)


def transfer_weights(p: Fraction, N: int, alternating: bool) -> dict[int, Fraction]:
    """Coupling of J_{+-k} inside the transfer exponentials:
    q^{k/2}/(k(1-q^k)), with an extra (-1)^(k+1) for the alternating family."""
    out = {}
    for k in range(1, N + 1):
        c = p ** k / (k * (1 - p ** (2 * k)))
        if alternating and k % 2 == 0:
            c = -c
        out[k] = c
    return out


@lru_cache(maxsize=None)
def _transfer_generator(p: Fraction, N: int, family: str) -> tuple[dict, int]:
    """The rows of the exponent sum_k c_k J_{-k} of G_- in integer form, c_k the
    transfer weights of the family: +-c_k on each move of move_table(-k, 0, N),
    the signs of J_{-k}. A weight pair belongs to one k alone, and no entry
    depends on the charge, so the table is built at s = 0."""
    rows: dict[int, dict[int, Fraction]] = {}
    for k, c in transfer_weights(p, N, alternating=(family == "alternating")).items():
        for i, j, sign, _ in move_table(-k, 0, N):
            rows.setdefault(i, {})[j] = c if sign > 0 else -c
    return integer_form(rows)


# A vector in integer form is a pair (nums, den): sparse integer numerators
# over one common denominator den > 0, with the value nums[i]/den at index i.
IntVector = tuple[dict[int, int], int]


def reduced(vec: IntVector) -> IntVector:
    """vec in lowest terms: zero numerators dropped, and the gcd of the
    numerators and the denominator divided out."""
    nums, den = vec
    nums = {i: v for i, v in nums.items() if v}
    g = math.gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {i: v // g for i, v in nums.items()}, den // g


def _exp_series(vec: IntVector, step: Callable, den_step: int) -> IntVector:
    """sum_n (step/den_step)^n vec / n! for a nilpotent integer linear step on
    sparse numerators. The n-th term is step^n(nums) over den * den_step^n * n!,
    so at step n the accumulator is rescaled by den_step * n before the term
    is added. The sum is reduced once, at the end."""
    nums, den = vec
    acc = term = nums
    n = 0
    while True:
        n += 1
        term = step(term)
        if not term:
            return reduced((acc, den))
        f = den_step * n
        den *= f
        acc = {i: v * f for i, v in acc.items()}
        for i, v in term.items():
            acc[i] = acc[i] + v if i in acc else v


def transfer_row(vec: IntVector, p: Fraction, N: int, family: str) -> IntVector:
    """vec . exp(sum_k c_k J_{-k}) in the sector cut at N, c_k the transfer
    weights of the family: G_- for 'plain', G"_- for 'alternating'. On a row
    G_- lowers weights. vec and the result are in integer form (see
    IntVector), the result in lowest terms. The exponential runs on the
    numerators with the integer form of its exponent, so no step reduces a
    fraction. Every transfer exponential of the package is applied here."""
    gen, den = _transfer_generator(p, N, family)
    return _exp_series(vec, lambda t: apply_row(t, gen), den)


@lru_cache(maxsize=None)
def minus_rows(p: Fraction, N: int, family: str) -> tuple[tuple[dict[int, int], ...], int]:
    """e_i . G_- for each basis vector e_i of the sector cut at N, as sparse
    integer rows over one denominator, in lowest terms. Row i reaches only
    weights <= w_i, so the rows of weight <= c are those of the cut at c."""
    pushed = [transfer_row(({i: 1}, 1), p, N, family) for i in range(len(get_basis(N)))]
    den = math.lcm(*(d for _, d in pushed))
    return tuple({j: v * (den // d) for j, v in nums.items()} for nums, d in pushed), den


def pair_dots(nums: Mapping[int, int], p: Fraction, cap: int, family: str) -> tuple[list[int], int]:
    """(dots, den) with (v . G_-G_+)_j = dots[j]/(d den) for j < len(get_basis(cap)),
    for a row v = nums/d already through G_-, in any sector. G_+ is the
    transpose of G_- (J_{-k} that of J_k), so (u G_-G_+)_j is the dot of u G_-
    with e_j G_-, which reaches only weights <= w_j <= cap: the sum is exact
    over minus_rows(p, cap, family). The one place a G_-G_+ entry is formed."""
    rows, den = minus_rows(p, cap, family)
    return [sum(v * nums[x] for x, v in row.items() if x in nums) for row in rows], den


@lru_cache(maxsize=None)
def pair_table(p: Fraction, N: int, family: str, cap: int) -> tuple[list[list[int]], int]:
    """G_-G_+ on the sector cut at N, on the columns of weight <= cap alone, as
    a dense integer matrix over one denominator, in lowest terms: row i is the
    pair_dots of e_i G_-. No entry depends on s."""
    rows, den = minus_rows(p, N, family)
    table = [pair_dots(row, p, cap, family)[0] for row in rows]
    d = den * minus_rows(p, cap, family)[1]
    g = math.gcd(d, *(v for row in table for v in row))
    return [[v // g for v in row] for row in table], d // g
