"""Partition functions of the crystal models, as exact truncated series.

The partition functions are computed here by the closed-form route: Schur
values from the hook length formula, diagonal eigenvalues from their closed
expressions, and the partition function as a single sum over partitions.
One loop serves both models, selected by 'Z' (the previous model) or
'Zprime' (the modified one). It groups the partitions by their Q power,
clears the denominators of each group's weights and potentials, and writes
each exp(linear form) out monomial by monomial in integers, so one Fraction
is made per output coefficient; it never touches `fock` or `series_exp`.
The independent fermionic route, the vacuum expectation value of the dense
transfer exponentials built from the operator machinery in `fock`, lives in
the test oracles as `fermionic_expectation`, with the same selector, and
the Fraction form of this loop as `fraction_partition_sum`. The routes must
agree coefficient for coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .algebra import SeriesContext, TruncatedSeries
from .fock import SectorConfig
from .partitions import Partition, enumerate_partitions


def charge_offset(s: int) -> int:
    """Ground-state energy s(s+1)/2 of the charge-s sector."""
    return s * (s + 1) // 2


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


def phi_potential(k: int, mu: Partition, s: int, p: Fraction) -> Fraction:
    """Potential eigenvalue sum_i (q^{k(s+mu_i-i+1)} - q^{k(s-i+1)})
    + q^k (1-q^{ks})/(1-q^k); the i-sum stops at len(mu) and the last term
    is summed as an exact finite geometric tail."""
    if k == 0:
        raise ValueError("the potential index k must be nonzero")
    p = Fraction(p)
    total = Fraction(0)
    for i, m in enumerate(mu.parts, start=1):
        total += p ** (2 * k * (s + m - i + 1)) - p ** (2 * k * (s - i + 1))
    if s >= 0:
        for j in range(1, s + 1):
            total += p ** (2 * k * j)
    else:
        for j in range(s + 1, 1):
            total -= p ** (2 * k * j)
    return total


@dataclass(frozen=True)
class ModelParams:
    """Model point: charge s, insertion weight l, rational p, series caps,
    and the fock cutoff N (auto-derived as max(NQ, K*D) unless overridden)."""

    s: int
    l: int
    p: Fraction
    ctx: SeriesContext
    N: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        need = max(self.ctx.NQ, self.ctx.K * self.ctx.D)
        n = need if self.N is None else self.N
        if n < need:
            raise ValueError(f"cutoff N={n} below the certified requirement {need}")
        object.__setattr__(self, "N", n)
        if not (0 < self.p < 1):
            raise ValueError("p must satisfy 0 < p < 1")

    @property
    def config(self) -> SectorConfig:
        return SectorConfig(self.s, self.N, self.p, self.l)

    @property
    def out_ctx(self) -> SeriesContext:
        """Output context: the Q cap absorbs the charge offset so that every
        graded coefficient up to Q-order NQ is retained."""
        return SeriesContext(self.ctx.K, self.ctx.D, self.ctx.NQ + charge_offset(self.s))

    def with_charge(self, s: int) -> "ModelParams":
        return ModelParams(s, self.l, self.p, self.ctx, self.N)

    def with_cutoff(self, N: int) -> "ModelParams":
        return ModelParams(self.s, self.l, self.p, self.ctx, N)


def _add_weighted_exp(acc: dict, weight: int, a: list[int], D: int) -> None:
    """Add weight D! exp(sum_j a_j x_j) up to x-degree D into acc, keyed by the
    exponents (e_1..e_n), for integer weight and a. Its coefficients are the
    integers weight prod_j a_j^e_j D! / prod_j e_j!, so each monomial is made
    once, as its predecessor times a_j // e_j, j the last variable raised; the
    division is exact because D! / prod_j e_j! is an integer for |e| <= D.
    Variables with a_j = 0 are never raised."""
    live = [j for j, c in enumerate(a) if c]
    stack = [((0,) * len(a), weight * factorial(D), 0, 0)]
    while stack:
        e, c, first, d = stack.pop()
        acc[e] = acc.get(e, 0) + c
        if d < D:
            for pos, j in enumerate(live[first:], first):
                m = e[j] + 1
                stack.append((e[:j] + (m,) + e[j + 1:], c * a[j] // m, pos, d + 1))


def _partition_sum(params: ModelParams, which: str) -> TruncatedSeries:
    """sum_mu w(mu) q^{l W0/2} Q^{L0} exp(sum t_k Phi_k [+ sum th_k Phi_{-k}]),
    with w(mu) = s_mu s_{t(mu)} and both time families for 'Zprime', and
    w(mu) = s_mu^2 and the t family alone for 'Z'.

    The partitions are grouped by L0 = |mu| + s(s+1)/2, so each class fills
    the monomials of one Q power. A class is expanded over one common
    denominator: with W the lcm of its weight denominators and d that of its
    Phi values, `_add_weighted_exp` writes the integer weights w W and
    couplings Phi d out monomial by monomial, and each nonzero coefficient
    becomes one Fraction over W D! d^|e| at the end of its class. No
    Fraction is made inside the walk, and no series arithmetic anywhere."""
    s, p, K, D = params.s, params.p, params.ctx.K, params.ctx.D
    classes: dict[int, list] = {}
    for mu in enumerate_partitions(params.ctx.NQ, "all_up_to"):
        a = [phi_potential(k, mu, s, p) for k in range(1, K + 1)]
        if which == "Zprime":
            weight = schur_qrho(mu, p) * schur_qrho(mu.conjugate(), p)
            a += [phi_potential(-k, mu, s, p) for k in range(1, K + 1)]
        else:
            weight = schur_qrho(mu, p) ** 2
            a += [Fraction(0)] * K
        weight *= p ** (params.l * w0_eigenvalue(mu, s))
        classes.setdefault(l0_eigenvalue(mu, s), []).append((weight, a))
    coeffs = {}
    for q_exp, members in classes.items():
        W = lcm(*(w.denominator for w, _ in members))
        d = lcm(*(c.denominator for _, a in members for c in a))
        acc: dict = {}
        for w, a in members:
            _add_weighted_exp(acc, w.numerator * (W // w.denominator),
                              [c.numerator * (d // c.denominator) for c in a], D)
        base = W * factorial(D)
        for e, num in acc.items():
            if num:
                coeffs[(q_exp, *e)] = Fraction(num, base * d ** sum(e))
    return TruncatedSeries(params.out_ctx, coeffs)


def zprime_series(params: ModelParams) -> TruncatedSeries:
    """Modified-model partition function as a sum over partitions:
    sum_mu s_mu s_{t(mu)} q^{l W0/2} Q^{L0} exp(sum t_k Phi_k + sum th_k Phi_{-k}).
    At s = 0 with the couplings off (K = 1, D = 0) this is
    sum_mu s_mu s_{t(mu)} q^{l kappa/2} (q^{l/2} Q)^{|mu|}."""
    return _partition_sum(params, "Zprime")


def z_series(params: ModelParams) -> TruncatedSeries:
    """Previous-model partition function: weights s_mu^2 and a single time family."""
    return _partition_sum(params, "Z")
