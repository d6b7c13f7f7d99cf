"""Tau functions of the crystal models: the graded operators and the tau
series built from them.

The central object is a Q-graded operator g = A . Q^{L0} . B with A and B
built from transfer exponentials and diagonal p^{W0} dressings. Tau series
are ground-state expectation values of g between time-evolution
exponentials; their coefficients are assembled grade by grade, so every
retained coefficient is a finite exact sum.

Certification is by construction for the tau series. A tau series needs
only the C(K+D, D) time vectors <s| prod J_k^{a_k} A and B prod J_{-k}^{b_k} |s>,
paired at weights n <= NQ, so A and B are never materialised. Each time row
is pushed once, in integer form, through p^{W0}, G_- (transfer.transfer_row)
and the dots of transfer.pair_dots at cap NQ, which are exact; the rows of
A and the columns of B of every operator at the point are read off these
pushes, those of g' by the conjugation identities stated in `transfer`. The
time exponentials contribute energies at most K*D, which the cutoff must
dominate. The grade dots are written straight into a series.GradedSeries,
integer numerators over one denominator, which the tau builders return and
on which the checks compute; a reported or exported value is built once, as
a Fraction, by its to_truncated. Each block g_n = A Pi_n B is a dense
integer table, the grade-n Gram matrix of the basis vectors e_lam A and
B e_mu: dressed rows of transfer.pair_table at cap NQ, from the same rows of
G_- as the first shift's table. The identities these series and blocks
satisfy are checked in `identities`; this module imports nothing of
`checks` or `models`, so a tau export compiles no check code and no
partition sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .algebra import ModelParams, SeriesContext, charge_offset
from .fock import SectorConfig, apply_row, get_basis, j_rows, power_form, w0_diag
from .series import GradedSeries, layout, monomials
from .transfer import IntVector, conjugation, pair_dots, pair_table, reduced, transfer_row


# ---------------------------------------------------------------------------
# Time-evolution vectors <s| prod J_k^{a_k}. As J_{-k} is the transpose of J_k,
# the same entries give the columns prod J_{-k}^{b_k} |s>. Current-mode
# matrices carry no p and no charge dependence, so these vectors are cached on
# (N, K, D) alone. Their entries are integers, the numerators of integer-form
# vectors over the denominator 1.

@lru_cache(maxsize=None)
def _time_rows(N: int, K: int, D: int):
    rows = {(0,) * K: {0: 1}}
    for a in monomials(K, D):
        if a in rows or sum(a) == 0:
            continue
        k = next(i + 1 for i, e in enumerate(a) if e)
        prev = tuple(e - 1 if i == k - 1 else e for i, e in enumerate(a))
        rows[a] = apply_row(rows[prev], j_rows(k, N))
    return rows


def _factorials(a: tuple[int, ...]) -> int:
    """a! = prod_k a_k!"""
    return math.prod(math.factorial(e) for e in a)


# ---------------------------------------------------------------------------
# Graded operators

def _dressed(vec: IntVector, c: int, p: Fraction, w0) -> IntVector:
    """vec times the diagonal p^{c W0}, by the power_form of the exponents c w0_i."""
    nums, den = vec
    if not c or not nums:
        return vec
    powers, d = power_form(p, [c * w0[i] for i in nums])
    return {i: v * f for (i, v), f in zip(nums.items(), powers)}, den * d


def _push(vec: IntVector, config: SectorConfig, NQ: int) -> IntVector:
    """vec p^{W0} G_-G_+ on the weights <= NQ, in lowest terms."""
    nums, den = transfer_row(_dressed(vec, 1, config.p, w0_diag(config.s, config.N)),
                             config.p, config.N)
    dots, d = pair_dots(nums, config.p, NQ)
    return reduced(({j: v for j, v in enumerate(dots) if v}, den * d))


@lru_cache(maxsize=None)
def _pushes(config: SectorConfig, ctx: SeriesContext) -> dict[tuple[int, ...], IntVector]:
    """The _push of each time row r_a = <s| prod J_k^{a_k}, keyed by a, at l = 0."""
    return {a: _push((r, 1), config, ctx.NQ) for a, r in _time_rows(config.N, ctx.K, ctx.D).items()}


class GradedOperator:
    """g = A . Q^{L0} . B on a fixed sector, with A = q^{W0/2} G_-G_+ q^{l W0/2}
    and B = G"_-G"_+ q^{+-W0/2}, the right family 'plain' with q^{+W0/2} or
    'alternating' with q^{-W0/2}. Vectors are in integer form, on the weights
    <= NQ: <lam| g |mu> = sum_n Q^{n + s(s+1)/2} <e_lam A, B e_mu>_n. It keeps
    time_vectors for the tau series; gram(n) = g_n reads transfer.pair_table."""

    def __init__(self, params: ModelParams, family: str):
        if family not in ("plain", "alternating"):
            raise ValueError(f"unknown transfer family {family!r}")
        self.params = params
        self.config = params.config
        self.family = family
        self.basis = get_basis(self.config.N)
        self._w0 = w0_diag(self.config.s, self.config.N)
        self._limit = self.basis.weight_range[params.ctx.NQ].stop

    @cached_property
    def time_vectors(self):
        """u_a = <s| prod J_k^{a_k} A and w_b = B prod J_{-k}^{b_k} |s> for each
        multi-index of degree <= D, from the pushes u of the time rows r at l = 0:
        u_a is the push of r_a dressed by p^{l W0}; w_b is u_b for g, as G_-G_+ is
        symmetric, and sigma_b p^{-e} Omega u_b for g' by the identities of
        `transfer`, sigma_b = (-1)^(sum (k-1) b_k) and e = w0 + w0 Omega on the
        weight sum k b_k of r_b; a ValueError refuses an e that is not constant."""
        cfg, ctx, w0 = self.config, self.params.ctx, self._w0
        us = _pushes(SectorConfig(cfg.s, cfg.N, cfg.p), ctx)
        rows = {a: reduced(_dressed(u, cfg.l, cfg.p, w0)) for a, u in us.items()} if cfg.l else us
        if self.family == "plain":
            return rows, us
        omega, cols = conjugation(cfg.N), {}
        for b, (nums, den) in us.items():
            n = sum(k * x for k, x in enumerate(b, start=1))
            if len(e := {w0[i] + w0[omega[i]] for i in self.basis.weight_range[n]}) != 1:
                raise ValueError(f"w0 + w0 Omega takes the values {sorted(e)} on weight {n}")
            (f,), d = power_form(cfg.p, [-e.pop()])
            f *= (-1) ** sum((k - 1) * x for k, x in enumerate(b, start=1))
            cols[b] = reduced(({omega[j]: f * v for j, v in nums.items()}, den * d))
        return rows, cols

    @cached_property
    def _basis_vectors(self) -> tuple[list[list[int]], list[list[int]], int]:
        """(rows, cols, den): rows[lam][nu] and cols[nu][mu], nu of weight <= NQ,
        the numerators of e_lam A and B e_mu over one den, read off
        transfer.pair_table at cap NQ: e_lam A is row lam of G_-G_+ dressed by
        p^{w0(lam)} and p^{l W0}, B e_mu (the pair is symmetric) row mu of
        G"_-G"_+ by p^{+-w0(mu)}."""
        cfg, dim, NQ = self.config, len(self.basis), self.params.ctx.NQ
        (left, d_l), (right, d_r) = (pair_table(cfg.p, cfg.N, family, NQ)
                                     for family in ("plain", self.family))
        (a, d_a), (b, d_b), (c, d_c) = (
            power_form(cfg.p, [e * x for x in self._w0[:stop]])
            for e, stop in ((1, dim), (cfg.l, self._limit),
                            (1 if self.family == "plain" else -1, dim)))
        rows = [[a_lam * t * b_nu for t, b_nu in zip(row, b)] for a_lam, row in zip(a, left)]
        cols = [[c_mu * row[nu] for c_mu, row in zip(c, right)] for nu in range(self._limit)]
        return rows, cols, d_a * d_b * d_c * d_l * d_r

    def gram(self, n: int) -> tuple[list[list[int]], int]:
        """g_n = A Pi_n B, n <= NQ, as a dense integer matrix and a denominator
        shared by every grade: g_n[lam][mu] = <e_lam A, Pi_n B e_mu>, the grade-n
        Gram matrix of the basis vectors."""
        rows, cols, den = self._basis_vectors
        block = []
        for row in rows:
            acc = [0] * len(self.basis)
            for nu in self.basis.weight_range[n]:
                if row[nu]:
                    acc = [x + row[nu] * y for x, y in zip(acc, cols[nu])]
            block.append(acc)
        return block, den

    def vacuum_q_series(self) -> GradedSeries:
        """<s| g |s> as a pure Q series in the output context, paired from the
        vacuum entries of time_vectors, u_0 = <s| A and w_0 = B |s>."""
        zero = (0,) * self.params.ctx.K
        us, ws = self.time_vectors
        return _assemble(self.params, {zero: us[zero]}, {zero: ws[zero]}, hat_sign=+1)


@lru_cache(maxsize=None)
def build_gprime(params: ModelParams) -> GradedOperator:
    """g' = q^{W0/2} G_-G_+ q^{l W0/2} Q^{L0} G"_-G"_+ q^{-W0/2} with the
    alternating transfer family on the right. Cached per model point, so the
    checks on one (s, l) share its time vectors and blocks."""
    return GradedOperator(params, "alternating")


@lru_cache(maxsize=None)
def build_g(params: ModelParams) -> GradedOperator:
    """g = q^{W0/2} G_-G_+ q^{l W0/2} Q^{L0} G_-G_+ q^{+W0/2}; cached like build_gprime."""
    return GradedOperator(params, "plain")


# ---------------------------------------------------------------------------
# Tau series

def _graded(vec: dict[int, int], basis, NQ: int) -> list[list[int]]:
    """A vector's integer numerators on the weights n <= NQ, grade by grade:
    <u, w>_n is the dot of grade n of each over the product of the
    denominators."""
    return [[vec.get(i, 0) for i in basis.weight_range[n]] for n in range(NQ + 1)]


def _assemble(params: ModelParams, us, ws, hat_sign: int) -> GradedSeries:
    """Coefficient table sum_{a,b,n} Q^{n+c_s} t^a th^b (sgn^{|b|}/a!b!) <u_a, w_b>_n
    for integer-form vectors u_a and w_b, the grade dots written over one
    denominator: the lcm of the u_den a! times the lcm of the w_den b!."""
    ctx, NQ = params.out_ctx, params.ctx.NQ
    basis = get_basis(params.N)
    c_s = charge_offset(params.s)
    _, index, starts = layout(ctx.K, ctx.D)
    den_u = {a: den * _factorials(a) for a, (_, den) in us.items()}
    den_w = {b: den * _factorials(b) for b, (_, den) in ws.items()}
    lcm_u, lcm_w = math.lcm(*den_u.values()), math.lcm(*den_w.values())
    graded_w = {b: _graded(w, basis, NQ) for b, (w, _) in ws.items()}
    grades = [[0] * starts[-1] for _ in range(ctx.NQ + 1)]
    for a, (u, _) in us.items():
        graded_u = _graded(u, basis, NQ)
        for bb, w in graded_w.items():
            if sum(a) + sum(bb) > ctx.D:
                continue
            scale = lcm_u // den_u[a] * (lcm_w // den_w[bb])
            if hat_sign < 0 and sum(bb) % 2:
                scale = -scale
            i = index[a + bb]
            for n, (x, y) in enumerate(zip(graded_u, w)):
                grades[n + c_s][i] = sum(map(mul, x, y)) * scale
    return GradedSeries(ctx, grades, lcm_u * lcm_w)


def tau_prime_series(params: ModelParams, graded: GradedOperator | None = None) -> GradedSeries:
    """tau'(s, t, th) = <s| exp(sum t_k J_k) g' exp(-sum th_k J_{-k}) |s>."""
    us, ws = (graded or build_gprime(params)).time_vectors
    return _assemble(params, us, ws, hat_sign=-1)


def tau_prev_series(params: ModelParams, form: str = "left",
                    graded: GradedOperator | None = None) -> GradedSeries:
    """Previous-model tau in one of four presentations: time flows on the
    'left', split 'symmetric', on the 'right', or in the genuine two-family
    'reduced_2d' form <s| e^{sum t J} g e^{-sum th J_-} |s>."""
    if form not in ("left", "right", "reduced_2d", "symmetric"):
        raise ValueError(f"unknown form {form!r}")
    us, ws = (graded or build_g(params)).time_vectors
    zero = (0,) * params.ctx.K
    if form == "left":
        return _assemble(params, us, {zero: ws[zero]}, hat_sign=+1)
    if form == "right":
        return _assemble(params, {zero: us[zero]}, ws, hat_sign=+1).merge_into_t(1)
    if form == "reduced_2d":
        return _assemble(params, us, ws, hat_sign=-1)
    return _assemble(params, us, ws, hat_sign=+1).merge_into_t(Fraction(1, 2))


def trivial_tau(K: int, D: int) -> GradedSeries:
    """<s| e^{sum t J} e^{-sum th J_-} |s> with no operator inserted; the
    machinery route to exp(-sigma sum k t_k th_k). Every a! b! divides D!^2."""
    N = max(K * D, 1)
    basis = get_basis(N)
    vecs = _time_rows(N, K, D)
    _, index, starts = layout(K, D)
    den = math.factorial(D) ** 2
    row = [0] * starts[-1]
    graded = {a: _graded(u, basis, N) for a, u in vecs.items()}
    for a, u in graded.items():
        for bb, w in graded.items():
            if sum(a) + sum(bb) > D:
                continue
            scale = (-1) ** sum(bb) * den // (_factorials(a) * _factorials(bb))
            # u and w each live on one weight, so at most one grade pairs
            row[index[a + bb]] = sum(sum(map(mul, x, y)) for x, y in zip(u, w)) * scale
    return GradedSeries(SeriesContext(K, D, 0), [row], den)
