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
denominator den > 0, with value nums/den. The grade dots of these vectors are
written straight into a series.GradedSeries, integer numerators over one
denominator for the whole series, which the tau builders return and on which
the checks compute; a reported or exported value is built once, as a
Fraction, by its to_truncated. A transfer pair is one push through G_- (G"_-
for the alternating family) in the sector cut at N, by the G.Y form of
transfer.transfer_row, then transfer.pair_dots against the rows e_nu G_- of
weight <= NQ, built by the Y.G form, which is exact. The time exponentials
contribute energies at most K*D, which the cutoff must dominate. The time
vectors read the rows of J_k from fock.j_rows, the same at every charge, and
since J_{-k} is the transpose of J_k, one table of row vectors serves as the
column vectors too. Each block g_n = A Pi_n B is a dense integer table, the
grade-n Gram matrix of the basis vectors e_lam A and B e_mu: dressed rows of
transfer.pair_table at cap NQ, from the same rows of G_- as the first shift's
table. The identities these series and blocks satisfy are checked in
`identities`; this module imports nothing of `checks`, so a tau export
compiles no check code and no split rule, and the model point comes from
`algebra`, so it compiles no partition sum either.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .algebra import ModelParams, SeriesContext, charge_offset
from .fock import apply_row, get_basis, j_rows, power_form, w0_diag
from .series import GradedSeries, layout, monomials
from .transfer import IntVector, pair_dots, pair_table, reduced, transfer_row


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
    G_- and its transfer.pair_dots at cap NQ, exact since the dressings keep
    weights. Every graded quantity pairs such vectors: <lam| g |mu> =
    sum_n Q^{n + s(s+1)/2} <row(e_lam), col(e_mu)>_n.

    The operator keeps what it pushes, time_vectors for the tau series. The
    blocks gram(n) = g_n are integer tables read off transfer.pair_table."""

    def __init__(self, params: ModelParams, family: str, at_l0: GradedOperator | None = None):
        if family not in _RIGHT_W0_SIGN:
            raise ValueError(f"unknown transfer family {family!r}")
        self.params = params
        self._at_l0 = at_l0
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
        multi-index of degree <= D, keyed by the multi-index, pushed through
        row and col. Only the last factor of A, p^{l W0}, reads l, so given
        at_l0, the operator of the same point at l = 0, they are its vectors
        with the rows dressed."""
        if self._at_l0 is not None:
            us, ws = self._at_l0.time_vectors
            return {a: reduced(self._scaled(u, self.config.l)) for a, u in us.items()}, ws
        rows = _time_rows(self.config.N, self.params.ctx.K, self.params.ctx.D)
        return ({a: self.row((r, 1)) for a, r in rows.items()},
                {b: self.col((r, 1)) for b, r in rows.items()})

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

    def vacuum_q_series(self) -> GradedSeries:
        """<s| g |s> as a pure Q series in the output context, paired from the
        vacuum entries of time_vectors, u_0 = <s| A and w_0 = B |s>."""
        zero = (0,) * self.params.ctx.K
        us, ws = self.time_vectors
        return _assemble(self.params, {zero: us[zero]}, {zero: ws[zero]}, hat_sign=+1)


def _at_l0(build, params: ModelParams) -> GradedOperator | None:
    """build's operator at l = 0 of the point of params; None at l = 0."""
    return build(ModelParams(params.s, 0, params.p, params.ctx, params.N)) if params.l else None


@lru_cache(maxsize=None)
def build_gprime(params: ModelParams) -> GradedOperator:
    """g' = q^{W0/2} G_-G_+ q^{l W0/2} Q^{L0} G"_-G"_+ q^{-W0/2} with the
    alternating transfer family on the right. Cached per model point, so the
    checks on one (s, l) share its time vectors, and the points at every l
    share the pushes of the point at l = 0."""
    return GradedOperator(params, "alternating", _at_l0(build_gprime, params))


@lru_cache(maxsize=None)
def build_g(params: ModelParams) -> GradedOperator:
    """g = q^{W0/2} G_-G_+ q^{l W0/2} Q^{L0} G_-G_+ q^{+W0/2}; cached like build_gprime."""
    return GradedOperator(params, "plain", _at_l0(build_g, params))


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
