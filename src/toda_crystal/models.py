"""Partition functions of the crystal models, as exact truncated series.

The partition functions are computed here by the closed-form route: Schur
values from the hook length formula, diagonal eigenvalues from their closed
expressions, and the partition function as a single sum over partitions.
One loop serves both models, selected by 'Z' (the previous model) or
'Zprime' (the modified one). It forms the weights and Phi values in
integers from the powers of p's numerator and denominator, groups the
partitions by their Q power, clears each group's denominators, and writes
each exp(linear form) out in integers over one shared monomial table per
(number of couplings, degree cap), built once: the exponent tuples, their
degrees and the step from each to its parent. Each class sums into one
integer list aligned with that table, over one denominator per degree. A
precomputed walk reads these sums in canonical order, so a PartitionSeries
exports them through truncated.export_dict with no sort and no Fraction, and
makes its Fraction coefficients from the same integers only when they are
read. It never touches `fock` or `series`, so computing a partition function
never loads them. The model point, ModelParams, and charge_offset live in
`algebra`, where the tau route reads them without this module.
The independent fermionic route, the vacuum expectation value of the dense
transfer exponentials built from the operator machinery in `fock`, lives in
the test oracles as `fermionic_expectation`, with the same selector, and
the Fraction form of this loop as `fraction_partition_sum`. The routes must
agree coefficient for coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from operator import add
from typing import Sequence

from .algebra import ModelParams, SeriesContext, charge_offset
from .partitions import Partition, enumerate_partitions
from .truncated import TruncatedSeries, export_dict


def l0_eigenvalue(mu: Partition, s: int) -> int:
    return mu.weight + charge_offset(s)


def w0_eigenvalue(mu: Partition, s: int) -> int:
    return mu.kappa() + (2 * s + 1) * mu.weight + s * (s + 1) * (2 * s + 1) // 6


def schur_qrho(mu: Partition, p: Fraction) -> Fraction:
    """Principal specialization s_mu at (q^{1/2}, q^{3/2}, ...) by the hook
    length formula q^{-kappa/4} / prod_cells (q^{-h/2} - q^{h/2}); kappa is
    even, so only integer powers of p occur."""
    p = Fraction(p)
    kappa = mu.kappa()
    assert kappa % 2 == 0
    denom = Fraction(1)
    for h in mu.hook_lengths():
        denom *= p ** (-h) - p ** h
    return p ** (-kappa // 2) / denom


def _phi_levels(mu: Partition, s: int) -> list[tuple[int, int]]:
    """(sign, x) with Phi_k = sum sign q^{kx}: each row's level s + mu_i - i + 1
    against the empty row's s - i + 1, then the geometric tail, added over
    j = 1..s for s >= 0 or subtracted over j = s+1..0 for s < 0."""
    levels = [(1, s + m - i + 1) for i, m in enumerate(mu.parts, start=1)]
    levels += [(-1, s - i + 1) for i in range(1, len(mu) + 1)]
    return levels + [(1, j) for j in range(1, s + 1)] + [(-1, j) for j in range(s + 1, 1)]


def phi_potential(k: int, mu: Partition, s: int, p: Fraction) -> Fraction:
    """Potential eigenvalue sum_i (q^{k(s+mu_i-i+1)} - q^{k(s-i+1)})
    + q^k (1-q^{ks})/(1-q^k); the i-sum stops at len(mu) and the last term
    is summed as an exact finite geometric tail."""
    if k == 0:
        raise ValueError("the potential index k must be nonzero")
    p = Fraction(p)
    return sum((sign * p ** (2 * k * x) for sign, x in _phi_levels(mu, s)), Fraction(0))


@lru_cache(maxsize=None)
def _monomials(n: int, D: int) -> tuple[tuple, tuple, tuple]:
    """(keys, degrees, steps) for the monomials of degree <= D in n variables,
    each after its parent: keys[i] the exponent tuple, degrees[i] its degree,
    and steps[i - 1] = (parent, j, e_j) for i >= 1, the monomial being its
    parent with variable j, the last one it raises, raised once more, to e_j."""
    keys, degrees, steps = [(0,) * n], [0], []
    layer = [(0, 0)]  # (index, first variable it may raise) of the last degree
    for d in range(1, D + 1):
        grown = []
        for parent, first in layer:
            e = keys[parent]
            for j in range(first, n):
                m = e[j] + 1
                grown.append((len(keys), j))
                keys.append(e[:j] + (m,) + e[j + 1:])
                degrees.append(d)
                steps.append((parent, j, m))
        layer = grown
    return tuple(keys), tuple(degrees), tuple(steps)


@lru_cache(maxsize=None)
def _canonical_walk(n: int, D: int, NQ: int) -> tuple:
    """(j, d, positions) for the monomials Q^j e, j <= NQ, e of degree d in
    _monomials(n, D), in the canonical order of the keys (j, *e): by j + d,
    then by j, then by e. The table holds each degree in descending order
    (a monomial follows its parent and raises a variable at or after the
    parent's last raised one), so each run is a degree's span read backwards."""
    degrees = _monomials(n, D)[1]
    starts = [*map(degrees.index, range(D + 1)), len(degrees)]
    return tuple((j, t - j, range(starts[t - j + 1] - 1, starts[t - j] - 1, -1))
                 for t in range(NQ + D + 1) for j in range(max(t - D, 0), min(t, NQ) + 1))


class PartitionSeries(TruncatedSeries):
    """A partition sum as its terms (Q power, time monomial, numerator,
    denominator) in canonical order; the time monomials of 'Z' hold the t
    exponents alone, and pad holds the th exponents, all zero, of its keys.
    to_json_dict formats the terms directly; coeffs, the Fraction form that
    == and q_profile read, is built from the same integers when first read."""

    __slots__ = ("terms", "_pad", "_coeffs")

    def __init__(self, ctx: SeriesContext, terms: list[tuple], pad: tuple[int, ...]):
        self.ctx, self.terms, self._pad, self._coeffs = ctx, terms, pad, None

    def __reduce__(self):
        # the inherited coeffs slot is a property here, so the default slot
        # state cannot be set back; rebuild from the terms instead
        return PartitionSeries, (self.ctx, self.terms, self._pad)

    @property
    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        if self._coeffs is None:
            self._coeffs = {(q, *e, *self._pad): Fraction(num, den)
                            for q, e, num, den in self.terms}
        return self._coeffs

    def to_json_dict(self) -> dict:
        return export_dict(self.ctx, self.terms)


def _add_weighted_exp(acc: list[int], weight: int, a: Sequence[int], D: int) -> None:
    """Add weight D! exp(sum_j a_j x_j) up to x-degree D into acc, aligned
    with the keys of _monomials(len(a), D), for integer weight and a. Its
    coefficients are the integers weight prod_j a_j^e_j D! / prod_j e_j!, so
    each is its parent's times a_j // e_j along the table's step; the division
    is exact because D! / prod_j e_j! is an integer for |e| <= D."""
    c = [weight * factorial(D)]
    for parent, j, m in _monomials(len(a), D)[2]:
        c.append(c[parent] * a[j] // m)
    acc[:] = map(add, acc, c)


def _partition_sum(params: ModelParams, which: str) -> PartitionSeries:
    """sum_mu w(mu) q^{l W0/2} Q^{L0} exp(sum t_k Phi_k [+ sum th_k Phi_{-k}]),
    with w(mu) = s_mu s_{t(mu)} and both time families for 'Zprime', and
    w(mu) = s_mu^2 and the t family alone for 'Z'.

    The partitions are grouped by L0 = |mu| + s(s+1)/2, so each class fills
    the monomials of one Q power. Its scalars are integers over powers of
    p = a/b's numerator and denominator, tabled once per run: Phi_k is sum
    sign a^{E+2kx} b^{E-2kx} / (ab)^E over _phi_levels, and, as mu and t(mu)
    share their hook lengths h, the weight p^e / prod_h (p^-h - p^h)^2 is
    a^{2H+e} b^{2H-e} / prod_h (b^{2h} - a^{2h})^2, H = sum h, e = l W0 (less
    kappa for 'Z'). A class is expanded over one common denominator: with W
    the lcm of its weight denominators and d that of its Phi values,
    `_add_weighted_exp` sums the integer weights w W and couplings Phi d into
    one integer list over the shared monomial table, each entry over
    W D! d^|e|. The canonical walk then lists the nonzero entries as the
    series' terms; no Fraction is made, and no series arithmetic. 'Z' walks
    the t variables alone; its th exponents stay 0."""
    s, K, D, NQ = params.s, params.ctx.K, params.ctx.D, params.ctx.NQ
    a, b = params.p.numerator, params.p.denominator
    n = 2 * K if which == "Zprime" else K
    keys = _monomials(n, D)[0]
    E = 2 * K * (abs(s) + NQ)  # |2kx| <= E as |x| <= |s| + NQ, and 2h <= 2NQ <= 2E
    A, B = [a ** i for i in range(2 * E + 1)], [b ** i for i in range(2 * E + 1)]
    ks = [*range(1, K + 1), *range(-1, -K - 1, -1)][:n]
    classes: list[list] = [[] for _ in range(NQ + 1)]
    for mu in enumerate_partitions(NQ):
        levels = _phi_levels(mu, s)
        phis = [sum(c * A[E + 2 * k * x] * B[E - 2 * k * x] for c, x in levels) for k in ks]
        hooks = mu.hook_lengths()
        lw = params.l * w0_eigenvalue(mu, s) - (mu.kappa() if which == "Z" else 0)
        u, v = 2 * sum(hooks) + lw, 2 * sum(hooks) - lw
        wn = a ** max(u, 0) * b ** max(v, 0)
        wd = a ** max(-u, 0) * b ** max(-v, 0) * prod(B[2 * h] - A[2 * h] for h in hooks) ** 2
        g = gcd(wn, wd)
        classes[mu.weight].append((wn // g, wd // g, phis))
    sums = []
    for members in classes:
        W = lcm(*(wd for _, wd, _ in members))
        g = gcd(A[E] * B[E], *(c for *_, phis in members for c in phis))
        acc = [0] * len(keys)
        for wn, wd, phis in members:
            _add_weighted_exp(acc, wn * (W // wd), [c // g for c in phis], D)
        d = A[E] * B[E] // g
        sums.append((acc, [W * factorial(D) * d ** k for k in range(D + 1)]))
    terms, c_s = [], charge_offset(s)  # the Q power of class j is L0 = j + c_s
    for j, d, run in _canonical_walk(n, D, NQ):
        acc, dens = sums[j]
        terms += [(j + c_s, keys[i], acc[i], dens[d]) for i in run if acc[i]]
    return PartitionSeries(params.out_ctx, terms, (0,) * (2 * K - n))


def zprime_series(params: ModelParams) -> TruncatedSeries:
    """Modified-model partition function as a sum over partitions:
    sum_mu s_mu s_{t(mu)} q^{l W0/2} Q^{L0} exp(sum t_k Phi_k + sum th_k Phi_{-k}).
    At s = 0 with the couplings off (K = 1, D = 0) this is
    sum_mu s_mu s_{t(mu)} q^{l kappa/2} (q^{l/2} Q)^{|mu|}."""
    return _partition_sum(params, "Zprime")


def z_series(params: ModelParams) -> TruncatedSeries:
    """Previous-model partition function: weights s_mu^2 and a single time family."""
    return _partition_sum(params, "Z")
