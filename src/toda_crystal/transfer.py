"""The transfer exponential G_- and the transfer pair G_-G_+, in integer form.

Only G_- = exp(X), X = sum_k c_k J_{-k}, is ever formed; G_+ is its
transpose. The parts of X commute, so with E the weight diagonal [E, G_-] =
Y G_- = G_- Y, Y = [E, X] = sum_k k c_k J_{-k} (_y_rows): Newton's identity
n h_n = sum_k p_k h_{n-k} in operator form. It gives G_- with no power
series: minus_rows builds the rows e_i G_- by the Y.G form, from rows of
lower weight, and transfer_row pushes a vector by the G.Y form, from its top
weight down. Every entry of the pair is a dot of two rows through G_-, formed
by pair_dots against the cached rows of minus_rows; pair_table holds the dots
of every basis row, forming each symmetric pair of its leading square once
and mirroring it.

G"_-, the modified model's exp(sum_k (-1)^(k+1) c_k J_{-k}), is never built.
With Omega the basis permutation lam -> lam' (conjugation), the involution
p_k -> (-1)^(k-1) p_k of Macdonald, Symmetric Functions, ch. I section 2:
  1. Omega J_k Omega = (-1)^(k-1) J_k, and Omega fixes the vacuum |s>;
  2. so G"_- = Omega G_- Omega, entry by entry over the same denominator;
  3. w0(lam) + w0(lam') = 2 (2s+1)|lam| + 2 w0(empty) at charge s, as w0 =
     kappa + (2s+1)|lam| + w0(empty) and kappa is odd under conjugation.
pair_table relabels the plain pair, and toda the plain pushes, by 1-3. The
dense Fraction G+-, G"+- and pairs are the test oracles' reference. `verify
commutators` never loads this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .fock import get_basis, move_table


@lru_cache(maxsize=None)
def conjugation(N: int) -> tuple[int, ...]:
    """Omega on the cut at N: the index of each basis partition's conjugate."""
    basis = get_basis(N)
    return tuple(basis.index[mu.conjugate()] for mu in basis.parts)


@lru_cache(maxsize=None)
def _y_rows(p: Fraction, N: int) -> tuple[dict, int]:
    """The rows of Y = sum_k k c_k J_{-k} in integer form, over the least common
    denominator of the k c_k, c_k = q^{k/2}/(k(1-q^k)) the transfer weights:
    with p = a/b, k c_k = a^k b^k / (b^{2k} - a^{2k}), put with the sign of
    J_{-k} on each move of move_table(-k, N). A weight pair belongs to one k
    alone, and no entry depends on the charge."""
    a, b = p.numerator, p.denominator
    weights = []
    for k in range(1, N + 1):
        num, den = (a * b) ** k, b ** (2 * k) - a ** (2 * k)
        g = math.gcd(num, den)
        weights.append((num // g, den // g))
    den = math.lcm(*(d for _, d in weights))
    rows: dict[int, dict[int, int]] = {}
    for k, (num, d) in enumerate(weights, start=1):
        num *= den // d
        for i, j, sign, _ in move_table(-k, N):
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


def transfer_row(vec: IntVector, p: Fraction, N: int) -> IntVector:
    """vec . G_- in the sector cut at N, in integer form (see IntVector), in
    lowest terms. Each weight part of vec is pushed alone, by the G.Y form: the
    push u of a part of weight w agrees with it on weight w, and (w - w_j) u_j =
    (u Y)_j fills the lower weights from the top down, one reduced layer at a time."""
    nums, den = vec
    weights = get_basis(N).weights
    ys, y_den = _y_rows(p, N)
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
def minus_rows(p: Fraction, N: int) -> tuple[tuple[dict[int, int], ...], int]:
    """e_i . G_- for each basis vector e_i of the sector cut at N, as sparse
    integer rows over one denominator, in lowest terms, by the Y.G form: in
    weight order, G_ii = 1 and G_ij = (Y G)_ij / (w_i - w_j) for w_j < w_i,
    read off rows already built. Row i reaches only weights <= w_i, so the
    rows of weight <= c are those of the cut at c."""
    ys, y_den = _y_rows(p, N)
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


def pair_dots(nums: Mapping[int, int], p: Fraction, cap: int,
              stop: int | None = None) -> tuple[list[int], int]:
    """(dots, den) with (v . G_-G_+)_j = dots[j]/(d den) for j < len(get_basis(cap)),
    or only for j < stop when given, for a row v = nums/d already through G_-
    (by transfer_row or minus_rows), in any sector. G_+ is the transpose of G_-
    (J_{-k} that of J_k), so (u G_-G_+)_j is the dot of u G_- with e_j G_-,
    which reaches only weights <= w_j <= cap: the sum is exact over
    minus_rows(p, cap). The one place a G_-G_+ entry is formed."""
    rows, den = minus_rows(p, cap)
    return [sum(v * nums[x] for x, v in row.items() if x in nums)
            for row in rows[:stop]], den


@lru_cache(maxsize=None)
def pair_table(p: Fraction, N: int, family: str, cap: int) -> tuple[list[list[int]], int]:
    """G_-G_+ ('plain') or G"_-G"_+ ('alternating') on the sector cut at N, on the
    columns of weight <= cap <= N alone, as a dense integer matrix over one
    denominator, in lowest terms, the same at every s: plain row i is the
    pair_dots of e_i G_-, and the alternating table the plain one relabelled by
    conjugation(N), which keeps weights. Plain rows of weight <= cap form a
    symmetric square, (i, j) and (j, i) both d_N d_cap (e_i G_- . e_j G_-), d_c
    the denominator of minus_rows at c, so only dots with j <= i are formed."""
    if family == "alternating":
        table, den = pair_table(p, N, "plain", cap)
        omega = conjugation(N)
        cols = omega[:len(get_basis(cap))]
        return [[table[i][j] for j in cols] for i in omega], den
    rows, den = minus_rows(p, N)
    n = len(get_basis(cap))
    lower = [pair_dots(row, p, cap, i + 1)[0] for i, row in enumerate(rows[:n])]
    table = [dots + [lower[j][i] for j in range(i + 1, n)] for i, dots in enumerate(lower)]
    table += [pair_dots(row, p, cap)[0] for row in rows[n:]]
    d = den * minus_rows(p, cap)[1]
    g = math.gcd(d, *(v for row in table for v in row))
    return [[v // g for v in row] for row in table], d // g
