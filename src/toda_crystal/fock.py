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
the charge and the cutoff alone, and are built once, in move_table. v_terms,
the one builder of V^(k)_m, writes each entry p-free as a Laurent polynomial in
x = p^k, one term per move (at m = 0 per level of the potential diagonal), and
v_rows evaluates it at a p; J_k puts its sign on each move, a transfer exponent
+-c_k. The commutator certificate reads the terms, for every p; the first shift
forms products from the rows, and the second compares exponents of the terms.
Of the transfer exponentials only G_- = exp(X), X = sum_k
c_k J_{-k}, is ever formed; G_+ is its transpose. The parts of X commute, so
with E the weight diagonal [E, G_-] = Y G_- = G_- Y, Y = [E, X] = sum_k k c_k
J_{-k} (_y_rows): Newton's identity n h_n = sum_k p_k h_{n-k} in operator
form. It gives G_- with no power series: minus_rows builds the rows e_i G_-
by the Y.G form, from rows of lower weight, and transfer_row pushes a vector
by the G.Y form, from its top weight down. Every entry of the pair G_-G_+ is
a dot of two rows through G_-, formed by pair_dots against the cached rows of
minus_rows; pair_table holds the dots of every basis row, forming each
symmetric pair of its leading square once and mirroring it. The dense
Fraction matrices of G+- (summed as power series) and of the pair, and
every Fraction operator, V and J among them, are the test oracles' reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .algebra import Value
from .partitions import enumerate_partitions

INF = math.inf


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
# Shift classes and the split rule

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
def move_table(m: int, s: int, N: int) -> tuple[tuple[int, int, int, int], ...]:
    """The particle moves of a shift by -m in the charge-s sector cut at N, as
    (row, col, sign, src): moving the particle at level src to src - m takes
    |mu_col, s> to sign |lambda_row, s>; distinct moves give distinct pairs.
    On the _masks, the particle at bit x, from the top down to |m| below the
    tail, moves to y = x - m when y >= 0 and bit y is clear, with the sign
    (-1)^(number of set bits strictly between x and y); at m = 0 every such
    particle stays, giving (col, col, 1, src)."""
    b = get_basis(N)
    masks, index = _masks(N)
    between = (1 << abs(m) - 1) - 1 if m else 0  # the bits strictly between, from min(x, y) + 1
    level = s - 2 * N - 1  # of bit 0
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
def v_terms(m: int, s: int, N: int) -> dict[int, list[tuple[int, int, int]]]:
    """V^(k)_m of the charge-s sector cut at N for every k, p-free, as rows
    {i: [(j, e, c), ...]}: the entry (i, j) is the sum of its terms c x^e, x = p^k.
    Each move of move_table gives one term sign x^(2 src - m); at m = 0 each
    diagonal entry has one term sign x^(2 level) per level of maya_diag_levels."""
    rows: dict[int, list[tuple[int, int, int]]] = {}
    for i, j, sign, src in move_table(m, s, N) if m else ():
        rows.setdefault(i, []).append((j, 2 * src - m, sign))
    for i, mu in enumerate(get_basis(N).parts) if m == 0 else ():
        rows[i] = [(i, 2 * x, sign) for sign, x in maya_diag_levels(mu.parts, s)]
    return rows


@lru_cache(maxsize=None)
def v_rows(k: int, m: int, config: SectorConfig) -> tuple[dict[int, dict[int, int]], int]:
    """V^(k)_m = q^{-km/2} sum_n q^{kn} :psi_{m-n} psi*_n: as integer rows
    {i: {j: numerator}} over one denominator, in lowest terms: the v_terms at
    x = p^k, read off one power_form over their distinct exponents k e. For
    m != 0 each entry is one term; at m = 0 each diagonal entry sums its
    levels, the zero sums are dropped and the common gcd divided out."""
    if abs(m) > config.N:
        raise ValueError(f"|m| = {abs(m)} exceeds the cutoff {config.N}")
    terms = v_terms(m, config.s, config.N)
    exps = sorted({k * e for row in terms.values() for _, e, _ in row})
    nums, den = power_form(config.p, exps)
    pw = dict(zip(exps, nums))
    if m:
        return {i: {j: c * pw[k * e] for j, e, c in row} for i, row in terms.items()}, den
    diag = {i: sum(c * pw[k * e] for _, e, c in row) for i, row in terms.items()}
    g = math.gcd(den, *diag.values())
    return {i: {i: v // g} for i, v in diag.items() if v}, den // g


@lru_cache(maxsize=None)
def w0_diag(s: int, N: int) -> tuple[int, ...]:
    """The W0 eigenvalues of the charge-s sector cut at N, by basis index."""
    return tuple(sum(sign * x * x for sign, x in maya_diag_levels(mu.parts, s))
                 for mu in get_basis(N).parts)


@lru_cache(maxsize=None)
def _y_rows(p: Fraction, N: int, family: str) -> tuple[dict, int]:
    """The rows of Y = sum_k k c_k J_{-k} in integer form, over the least common
    denominator of the k c_k, c_k the transfer weights of the family,
    q^{k/2}/(k(1-q^k)) with an extra (-1)^(k+1) for 'alternating': with p = a/b,
    k c_k = a^k b^k / (b^{2k} - a^{2k}), put with the sign of J_{-k} on each
    move of move_table(-k, 0, N). A weight pair belongs to one k alone, and no
    entry depends on the charge, so the table is built at s = 0."""
    a, b = p.numerator, p.denominator
    weights = []
    for k in range(1, N + 1):
        num, den = (a * b) ** k, b ** (2 * k) - a ** (2 * k)
        if family == "alternating" and k % 2 == 0:
            num = -num
        g = math.gcd(num, den)
        weights.append((num // g, den // g))
    den = math.lcm(*(d for _, d in weights))
    rows: dict[int, dict[int, int]] = {}
    for k, (num, d) in enumerate(weights, start=1):
        num *= den // d
        for i, j, sign, _ in move_table(-k, 0, N):
            rows.setdefault(i, {})[j] = num if sign > 0 else -num
    return rows, den


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


def transfer_row(vec: IntVector, p: Fraction, N: int, family: str) -> IntVector:
    """vec . G_- in the sector cut at N, G_- for 'plain' and G"_- for
    'alternating', in integer form (see IntVector), the result in lowest terms.
    Each weight part of vec is pushed alone, by the G.Y form: the push u of a
    part of weight w agrees with it on weight w, and (w - w_j) u_j = (u Y)_j
    fills the lower weights from the top down, one reduced layer at a time."""
    nums, den = vec
    weights = get_basis(N).weights
    ys, y_den = _y_rows(p, N, family)
    parts: dict[int, dict[int, int]] = {}
    for i, v in nums.items():
        parts.setdefault(weights[i], {})[i] = v
    layers = []
    for w, top in parts.items():
        sums, D = [{} for _ in range(w)], 1  # sums[n][j] = (u Y)_j D y_den, w_j = n < w
        for m in range(w, -1, -1):
            layer = reduced((sums[m], D * y_den * (w - m)) if m < w else (top, den))
            layers.append(layer)
            L = math.lcm(D, layer[1])
            if L != D:
                sums[:m] = [{j: v * (L // D) for j, v in acc.items()} for acc in sums[:m]]
            D = L
            for x, v in layer[0].items():
                c = v * (L // layer[1])
                for j, y in ys.get(x, {}).items():
                    acc = sums[weights[j]]
                    acc[j] = acc.get(j, 0) + c * y
    d = math.lcm(*(e for _, e in layers))
    out: dict[int, int] = {}
    for part, e in layers:
        out.update({j: out.get(j, 0) + v * (d // e) for j, v in part.items()})
    return reduced((out, d))


@lru_cache(maxsize=None)
def minus_rows(p: Fraction, N: int, family: str) -> tuple[tuple[dict[int, int], ...], int]:
    """e_i . G_- for each basis vector e_i of the sector cut at N, as sparse
    integer rows over one denominator, in lowest terms, by the Y.G form: in
    weight order, G_ii = 1 and G_ij = (Y G)_ij / (w_i - w_j) for w_j < w_i,
    read off rows already built. Row i reaches only weights <= w_i, so the
    rows of weight <= c are those of the cut at c."""
    ys, y_den = _y_rows(p, N, family)
    weights = get_basis(N).weights
    pushed: list[IntVector] = []
    for i, w in enumerate(weights):
        row_y = ys.get(i, {})
        L = math.lcm(*(pushed[x][1] for x in row_y))
        acc: dict[int, int] = {}
        for x, y in row_y.items():
            nums, d = pushed[x]
            f = y * (L // d)
            for j, v in nums.items():
                acc[j] = acc.get(j, 0) + f * v
        M = math.lcm(*range(1, w + 1))  # a multiple of every w - w_j
        row = {j: v * (M // (w - weights[j])) for j, v in acc.items()}
        pushed.append(reduced(({i: y_den * L * M} | row, y_den * L * M)))
    den = math.lcm(*(d for _, d in pushed))
    return tuple({j: v * (den // d) for j, v in nums.items()} for nums, d in pushed), den


def pair_dots(nums: Mapping[int, int], p: Fraction, cap: int, family: str,
              stop: int | None = None) -> tuple[list[int], int]:
    """(dots, den) with (v . G_-G_+)_j = dots[j]/(d den) for j < len(get_basis(cap)),
    or only for j < stop when given, for a row v = nums/d already through G_-
    (by transfer_row or minus_rows), in any sector. G_+ is the transpose of G_-
    (J_{-k} that of J_k), so (u G_-G_+)_j is the dot of u G_- with e_j G_-,
    which reaches only weights <= w_j <= cap: the sum is exact over
    minus_rows(p, cap, family). The one place a G_-G_+ entry is formed."""
    rows, den = minus_rows(p, cap, family)
    return [sum(v * nums[x] for x, v in row.items() if x in nums)
            for row in rows[:stop]], den


@lru_cache(maxsize=None)
def pair_table(p: Fraction, N: int, family: str, cap: int) -> tuple[list[list[int]], int]:
    """G_-G_+ on the sector cut at N, on the columns of weight <= cap <= N alone, as
    a dense integer matrix over one denominator, in lowest terms: row i is the
    pair_dots of e_i G_-. No entry depends on s. On the rows of weight <= cap
    the table is a symmetric square: entries (i, j) and (j, i) both are
    d_N d_cap (e_i G_- . e_j G_-), d_c the denominator of minus_rows at c, so
    only the dots with j <= i are formed and each is mirrored."""
    rows, den = minus_rows(p, N, family)
    n = len(get_basis(cap))
    lower = [pair_dots(row, p, cap, family, i + 1)[0] for i, row in enumerate(rows[:n])]
    table = [dots + [lower[j][i] for j in range(i + 1, n)] for i, dots in enumerate(lower)]
    table += [pair_dots(row, p, cap, family)[0] for row in rows[n:]]
    d = den * minus_rows(p, cap, family)[1]
    g = math.gcd(d, *(v for row in table for v in row))
    return [[v // g for v in row] for row in table], d // g
