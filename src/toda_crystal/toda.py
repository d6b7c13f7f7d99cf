"""Tau functions of the crystal models: the graded operators and the tau
series built from them.

The central object is a Q-graded operator g = A . Q^{L0} . B with A and B
built from transfer exponentials and diagonal p^{W0} dressings. Tau series
are ground-state expectation values of g between time-evolution
exponentials; their coefficients are assembled grade by grade, so every
retained coefficient is a finite exact sum.

Certification is by construction for the tau series. A tau series needs
only the C(K+D, D) time vectors <s| prod J_k^{a_k} A and B prod J_{-k}^{b_k} |s>,
paired at weights n <= NQ, so A and B are never materialised: each vector
is pushed through the dressings and the transfer pairs one factor at a
time, in integer form: a pair (nums, den) of integer numerators over one
denominator den > 0, with value nums/den. A reported value is built once, as
a Fraction. A transfer pair is one push through G_- (G"_- for the
alternating family) in the sector cut at N, by the G.Y form of
fock.transfer_row, then fock.pair_dots against the rows e_nu G_- of weight
<= NQ, built by the Y.G form, which is exact. The time exponentials
contribute energies at most K*D, which the cutoff must dominate. The time
vectors read J_k as the signs of the moves in fock.move_table, and since
J_{-k} is the transpose of J_k, one table of row vectors serves as the
column vectors too. Each block g_n = A Pi_n B is a dense integer table, the
grade-n Gram matrix of the basis vectors e_lam A and B e_mu: dressed rows of
fock.pair_table at cap NQ, from the same rows of G_- as the first shift's
table. The identities these series and blocks satisfy are checked in
`identities`; this module imports no check code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import SeriesContext, TruncatedSeries, Value
from .fock import (
    IntVector,
    apply_row,
    get_basis,
    move_table,
    pair_dots,
    pair_table,
    power_form,
    reduced,
    transfer_row,
    w0_diag,
)
from .models import ModelParams, charge_offset


# ---------------------------------------------------------------------------
# Time-evolution vectors <s| prod J_k^{a_k}. As J_{-k} is the transpose of J_k,
# the same entries give the columns prod J_{-k}^{b_k} |s>. Current-mode
# matrices carry no p and no charge dependence, so these vectors are cached on
# (N, K, D) alone. Their entries are integers, the numerators of integer-form
# vectors over the denominator 1.

@lru_cache(maxsize=None)
def _j_matrix(k: int, N: int) -> dict[int, dict[int, int]]:
    """The rows of J_k: the sign of each move of move_table(k, 0, N)."""
    rows: dict[int, dict[int, int]] = {}
    for i, j, sign, _ in move_table(k, 0, N):
        rows.setdefault(i, {})[j] = sign
    return rows


def _multi_indices(K: int, D: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(K):
        out = [t + (e,) for t in out for e in range(D - sum(t) + 1)]
    return sorted(out, key=lambda t: (sum(t), t))


@lru_cache(maxsize=None)
def _time_rows(N: int, K: int, D: int):
    rows = {(0,) * K: {0: 1}}
    for a in _multi_indices(K, D):
        if a in rows or sum(a) == 0:
            continue
        k = next(i + 1 for i, e in enumerate(a) if e)
        prev = tuple(e - 1 if i == k - 1 else e for i, e in enumerate(a))
        rows[a] = apply_row(rows[prev], _j_matrix(k, N))
    return rows


def _factorials(a: tuple[int, ...]) -> int:
    """a! = prod_k a_k!"""
    return math.prod(math.factorial(e) for e in a)


# ---------------------------------------------------------------------------
# Graded operators

class TauSeries(Value):
    """A tau series and its charge."""

    __slots__ = ("charge", "series")


_RIGHT_W0_SIGN = {"plain": +1, "alternating": -1}


class GradedOperator:
    """g = A . Q^{L0} . B on a fixed sector, with A = q^{W0/2} G_-G_+ q^{l W0/2}
    and B = G"_-G"_+ q^{+-W0/2}. The right pair uses the given transfer family,
    'plain' with q^{+W0/2} or 'alternating' with q^{-W0/2}.

    g is applied to vectors in integer form: a vector is a pair
    (nums, den) of integer numerators over one denominator den > 0, with
    value nums/den. row(vec) is vec . A and col(vec) is B . vec, pushed
    through the factors one at a time, kept on the weights <= NQ, the only
    ones a graded pairing reads, and returned in lowest terms. The p^{cW0}
    dressings multiply numerators and denominator by integer powers of the
    numerator and the denominator of p. A transfer pair is one push through
    G_- and its fock.pair_dots at cap NQ, exact since the dressings keep
    weights. Every graded quantity pairs such vectors: <lam| g |mu> =
    sum_n Q^{n + s(s+1)/2} <row(e_lam), col(e_mu)>_n.

    The operator keeps what it pushes, time_vectors for the tau series. The
    blocks gram(n) = g_n are integer tables read off fock.pair_table."""

    def __init__(self, params: ModelParams, family: str):
        if family not in _RIGHT_W0_SIGN:
            raise ValueError(f"unknown transfer family {family!r}")
        self.params = params
        self.config = params.config
        self.family = family
        self.basis = get_basis(self.config.N)
        self._w0 = w0_diag(self.config.s, self.config.N)
        self._limit = self.basis.weight_range[params.ctx.NQ].stop

    def _scaled(self, vec: IntVector, c: int) -> IntVector:
        """vec times the diagonal p^{c W0}, by the power_form of the exponents
        c w0_i."""
        nums, den = vec
        if not c or not nums:
            return vec
        powers, d = power_form(self.config.p, [c * self._w0[i] for i in nums])
        return {i: v * f for (i, v), f in zip(nums.items(), powers)}, den * d

    def _pair(self, vec: IntVector, family: str) -> IntVector:
        """vec times the transfer pair of the family on the weights <= NQ."""
        nums, den = transfer_row(vec, self.config.p, self.config.N, family)
        dots, d = pair_dots(nums, self.config.p, self.params.ctx.NQ, family)
        return {j: v for j, v in enumerate(dots) if v}, den * d

    def row(self, vec: IntVector) -> IntVector:
        """vec . A on the weights <= NQ."""
        return reduced(self._scaled(self._pair(self._scaled(vec, 1), "plain"), self.config.l))

    def col(self, vec: IntVector) -> IntVector:
        """B . vec on the weights <= NQ; the transfer pair is symmetric, so it
        acts on a column as on a row."""
        return reduced(self._pair(self._scaled(vec, _RIGHT_W0_SIGN[self.family]), self.family))

    @cached_property
    def time_vectors(self):
        """u_a = <s| prod J_k^{a_k} A and w_b = B prod J_{-k}^{b_k} |s> for every
        multi-index of degree <= D, keyed by the multi-index."""
        ctx = self.params.ctx
        rows = _time_rows(self.config.N, ctx.K, ctx.D)
        return ({a: self.row((r, 1)) for a, r in rows.items()},
                {b: self.col((r, 1)) for b, r in rows.items()})

    @cached_property
    def _basis_vectors(self) -> tuple[list[list[int]], list[list[int]], int]:
        """(rows, cols, den): rows[lam][nu] and cols[nu][mu], nu of weight <= NQ,
        the numerators of e_lam A and B e_mu over one den, read off
        fock.pair_table at cap NQ: e_lam A is row lam of G_-G_+ dressed by
        p^{w0(lam)} and p^{l W0}, B e_mu (the pair is symmetric) row mu of
        G"_-G"_+ by p^{+-w0(mu)}."""
        cfg, dim, NQ = self.config, len(self.basis), self.params.ctx.NQ
        (left, d_l), (right, d_r) = (pair_table(cfg.p, cfg.N, family, NQ)
                                     for family in ("plain", self.family))
        (a, d_a), (b, d_b), (c, d_c) = (
            power_form(cfg.p, [e * x for x in self._w0[:stop]])
            for e, stop in ((1, dim), (cfg.l, self._limit), (_RIGHT_W0_SIGN[self.family], dim)))
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

    def vacuum_q_series(self) -> TruncatedSeries:
        """<s| g |s> as a pure Q series in the output context."""
        zero = (0,) * self.params.ctx.K
        return _assemble(self.params, {zero: self.row(({0: 1}, 1))}, {zero: self.col(({0: 1}, 1))},
                         hat_sign=+1)


@lru_cache(maxsize=None)
def build_gprime(params: ModelParams) -> GradedOperator:
    """g' = q^{W0/2} G_-G_+ q^{l W0/2} Q^{L0} G"_-G"_+ q^{-W0/2} with the
    alternating transfer family on the right. Cached per model point, so the
    checks on one (s, l) share its time vectors."""
    return GradedOperator(params, "alternating")


@lru_cache(maxsize=None)
def build_g(params: ModelParams) -> GradedOperator:
    """g = q^{W0/2} G_-G_+ q^{l W0/2} Q^{L0} G_-G_+ q^{+W0/2}; cached like build_gprime."""
    return GradedOperator(params, "plain")


# ---------------------------------------------------------------------------
# Tau series

def _grade_dot(u: dict[int, int], w: dict[int, int], grade: range) -> int:
    """sum_{|nu| = n} u_nu w_nu over integer numerators, with grade the
    indices of weight n; <u, w>_n is this over the product of the denominators."""
    return sum(u[i] * w[i] for i in grade if i in u and i in w)


def _graded_pairing(u, w, basis, NQ: int) -> list[tuple[int, int]]:
    """The nonzero numerator grade dots for n <= NQ, by grade."""
    totals = [(n, _grade_dot(u, w, basis.weight_range[n])) for n in range(NQ + 1)]
    return [(n, total) for n, total in totals if total]


def _assemble(params: ModelParams, us, ws, hat_sign: int) -> TruncatedSeries:
    """Coefficient table sum_{a,b,n} Q^{n+c_s} t^a th^b (sgn^{|b|}/a!b!) <u_a, w_b>_n
    for integer-form vectors u_a and w_b."""
    D, NQ = params.ctx.D, params.ctx.NQ
    basis = get_basis(params.N)
    c_s = charge_offset(params.s)
    coeffs = {}
    for a, (u, u_den) in us.items():
        da = sum(a)
        den_a = u_den * _factorials(a)
        for bb, (w, w_den) in ws.items():
            if da + sum(bb) > D:
                continue
            den = den_a * w_den * _factorials(bb)
            if hat_sign < 0 and sum(bb) % 2:
                den = -den
            for n, total in _graded_pairing(u, w, basis, NQ):
                coeffs[(n + c_s,) + a + bb] = Fraction(total, den)
    return TruncatedSeries(params.out_ctx, coeffs)


def _merge_into_t(series: TruncatedSeries, c) -> TruncatedSeries:
    """Substitute t_k -> c t_k and th_k -> c t_k: the monomial (Q, a, b) goes
    to (Q, a + b, 0) with the factor c^{|a| + |b|}."""
    K = series.ctx.K
    out: dict[tuple[int, ...], Fraction] = {}
    for key, val in series.coeffs.items():
        a, b = key[1:K + 1], key[K + 1:]
        nk = (key[0],) + tuple(x + y for x, y in zip(a, b)) + (0,) * K
        term = val * c ** (sum(a) + sum(b))
        out[nk] = out[nk] + term if nk in out else term
    return TruncatedSeries(series.ctx, out)


def tau_prime_series(params: ModelParams, graded: GradedOperator | None = None) -> TauSeries:
    """tau'(s, t, th) = <s| exp(sum t_k J_k) g' exp(-sum th_k J_{-k}) |s>."""
    us, ws = (graded or build_gprime(params)).time_vectors
    return TauSeries(params.s, _assemble(params, us, ws, hat_sign=-1))


def tau_prev_series(params: ModelParams, form: str = "left",
                    graded: GradedOperator | None = None) -> TauSeries:
    """Previous-model tau in one of four presentations: time flows on the
    'left', split 'symmetric', on the 'right', or in the genuine two-family
    'reduced_2d' form <s| e^{sum t J} g e^{-sum th J_-} |s>."""
    if form not in ("left", "right", "reduced_2d", "symmetric"):
        raise ValueError(f"unknown form {form!r}")
    us, ws = (graded or build_g(params)).time_vectors
    zero = (0,) * params.ctx.K
    if form == "left":
        series = _assemble(params, us, {zero: ws[zero]}, hat_sign=+1)
    elif form == "right":
        series = _merge_into_t(_assemble(params, {zero: us[zero]}, ws, hat_sign=+1), 1)
    elif form == "reduced_2d":
        series = _assemble(params, us, ws, hat_sign=-1)
    else:
        series = _merge_into_t(_assemble(params, us, ws, hat_sign=+1), Fraction(1, 2))
    return TauSeries(params.s, series)


def trivial_tau(K: int, D: int) -> TruncatedSeries:
    """<s| e^{sum t J} e^{-sum th J_-} |s> with no operator inserted; the
    machinery route to exp(-sigma sum k t_k th_k)."""
    N = max(K * D, 1)
    basis = get_basis(N)
    vecs = _time_rows(N, K, D)
    coeffs = {}
    for a, u in vecs.items():
        for bb, w in vecs.items():
            if sum(a) + sum(bb) > D:
                continue
            den = _factorials(a) * _factorials(bb)
            if sum(bb) % 2:
                den = -den
            # u and w each live on one weight, so at most one grade pairs
            for _, total in _graded_pairing(u, w, basis, N):
                coeffs[(0,) + a + bb] = Fraction(total, den)
    return TruncatedSeries(SeriesContext(K, D, 0), coeffs)
