"""Tau functions of the crystal models and the identities tying them together.

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
alternating family) in the sector cut at N, then fock.pair_dots against the
rows e_nu G_- of weight <= NQ, which is exact. The time exponentials
contribute energies at most K*D, which the cutoff must dominate. The time
vectors read J_k as the signs of the moves in fock.move_table, and since
J_{-k} is the transpose of J_k, one table of row vectors serves as the
column vectors too. The intertwining check reads each block g_n = A Pi_n B
as a dense integer table, the grade-n Gram matrix of the basis vectors
e_lam A and B e_mu: dressed rows of fock.pair_table at cap NQ, from the same
rows of G_- as the first shift's table. The first shift's kernel,
symmetries._sandwich_entry, reads J_k g_n - g_n J_r on it, with the rows of
J_k and J_r, the latter scaled by -1, against a certified_window mask.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property, lru_cache

from .algebra import (
    SeriesContext,
    TruncatedSeries,
    Value,
    alternate_t_signs,
    first_difference,
    format_rational,
    linear_form,
    monomial_label,
    negate_hatted,
    series_exp,
    series_partial,
    substitute_difference,
)
from .fock import (
    FULL,
    IntVector,
    apply_row,
    certified_window,
    get_basis,
    banded,
    move_table,
    pair_dots,
    pair_table,
    power_form,
    reduced,
    transfer_row,
    w0_diag,
)
from .models import (
    ModelParams,
    charge_offset,
    z_series,
    zprime_series,
)
from .symmetries import (
    FAIL,
    INSUFFICIENT,
    PASS,
    CheckReport,
    _entry_evidence,
    _sandwich_entry,
    torus_constant,
)


class CalibrationError(RuntimeError):
    """Neither sign of the bilinear constant matches the trivial solution."""


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
    'plain' with q^{+W0/2} or 'alternating' with q^{-W0/2}; identity_transfers
    replaces both pairs by the identity.

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

    def __init__(self, params: ModelParams, family: str, identity_transfers: bool = False):
        if family not in _RIGHT_W0_SIGN:
            raise ValueError(f"unknown transfer family {family!r}")
        self.params = params
        self.config = params.config
        self.family = family
        self.identity_transfers = identity_transfers
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
        """vec times the transfer pair of the family on the weights <= NQ; with
        identity_transfers, vec on those weights."""
        if self.identity_transfers:
            return {i: v for i, v in vec[0].items() if i < self._limit}, vec[1]
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
        (left, d_l), (right, d_r) = (
            [([[int(i == j) for j in range(dim)] for i in range(dim)], 1)] * 2 if self.identity_transfers
            else [pair_table(cfg.p, cfg.N, family, NQ) for family in ("plain", self.family)])
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
def build_gprime(params: ModelParams, identity_transfers: bool = False) -> GradedOperator:
    """g' = q^{W0/2} G_-G_+ q^{l W0/2} Q^{L0} G"_-G"_+ q^{-W0/2} with the
    alternating transfer family on the right. Cached per model point, so the
    checks on one (s, l) share its time vectors."""
    return GradedOperator(params, "alternating", identity_transfers)


@lru_cache(maxsize=None)
def build_g(params: ModelParams, identity_transfers: bool = False) -> GradedOperator:
    """g = q^{W0/2} G_-G_+ q^{l W0/2} Q^{L0} G_-G_+ q^{+W0/2}; cached like build_gprime."""
    return GradedOperator(params, "plain", identity_transfers)


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


# ---------------------------------------------------------------------------
# Identity checks

def _series_report(check: str, params_dict: dict, lhs: TruncatedSeries,
                   rhs: TruncatedSeries, extra: dict | None = None) -> CheckReport:
    diff = first_difference(lhs, rhs)
    report = CheckReport(check, params_dict, PASS if diff is None else FAIL)
    report.window = len(set(lhs.coeffs) | set(rhs.coeffs))
    report.evidence = dict(extra or {})
    if diff is not None:
        label, va, vb = diff
        report.evidence["first_difference"] = {
            "monomial": label, "lhs": format_rational(va), "rhs": format_rational(vb)}
    return report


def _params_dict(params: ModelParams, **extra) -> dict:
    d = {"s": params.s, "l": params.l, "p": format_rational(params.p),
         "K": params.ctx.K, "D": params.ctx.D, "NQ": params.ctx.NQ, "N": params.N}
    d.update(extra)
    return d


def main_identity_sides(params: ModelParams) -> tuple[TruncatedSeries, TruncatedSeries]:
    """LHS: the modified partition function summed over partitions. RHS:
    exp(sum_k c(k) t_k + c(-k) th_k) times tau' at (-t_1, t_2, -t_3, ...,
    -th_1, -th_2, ...), with c(j) = q^j/(1-q^j). The alternating-family
    constants force c(-k) = -1/(1-q^k) on the hatted side."""
    lhs = zprime_series(params)
    tau = tau_prime_series(params).series
    tau_sub = negate_hatted(alternate_t_signs(tau))
    ctx = params.out_ctx
    K, p = params.ctx.K, params.p
    pref = series_exp(linear_form(
        ctx,
        {k: torus_constant(k, p) for k in range(1, K + 1)},
        {k: torus_constant(-k, p) for k in range(1, K + 1)},
    ))
    return lhs, pref * tau_sub


def verify_main_identity(params: ModelParams) -> CheckReport:
    lhs, rhs = main_identity_sides(params)
    return _series_report(
        "main_identity", _params_dict(params), lhs, rhs,
        {"prefactor": "exp(sum_k q^k t_k/(1-q^k) + q^-k th_k/(1-q^-k))"})


def prev_identity_sides(params: ModelParams) -> tuple[TruncatedSeries, TruncatedSeries]:
    """LHS: previous-model partition function. RHS:
    exp(sum t_k q^k/(1-q^k)) q^{-s(s+1)(2s+1)/6} tau(s, -t_1, t_2, -t_3, ...)."""
    lhs = z_series(params)
    tau = tau_prev_series(params, "left").series
    tau_sub = alternate_t_signs(tau)
    ctx = params.out_ctx
    K, p, s = params.ctx.K, params.p, params.s
    pref = series_exp(linear_form(ctx, {k: torus_constant(k, p) for k in range(1, K + 1)}))
    const = p ** (-(s * (s + 1) * (2 * s + 1)) // 3)
    return lhs, pref * tau_sub * const


def verify_prev_identity(params: ModelParams) -> CheckReport:
    lhs, rhs = prev_identity_sides(params)
    s = params.s
    return _series_report(
        "prev_identity", _params_dict(params), lhs, rhs,
        {"constant": format_rational(params.p ** (-(s * (s + 1) * (2 * s + 1)) // 3))})


def check_prev_forms(params: ModelParams) -> CheckReport:
    """The three one-family presentations of the previous-model tau agree."""
    left = tau_prev_series(params, "left").series
    sym = tau_prev_series(params, "symmetric").series
    right = tau_prev_series(params, "right").series
    rep = _series_report("prev_tau_forms", _params_dict(params), left, sym,
                         {"compared": "left vs symmetric"})
    if rep.status != PASS:
        return rep
    rep2 = _series_report("prev_tau_forms", _params_dict(params), left, right,
                          {"compared": "left vs right"})
    rep2.evidence["compared"] = "left vs symmetric vs right"
    return rep2


def check_prev_reduction(params: ModelParams) -> CheckReport:
    """The two-family form depends on the times only through t - th."""
    two = tau_prev_series(params, "reduced_2d").series
    left = tau_prev_series(params, "left").series
    reduced = substitute_difference(left)
    return _series_report("prev_tau_reduction", _params_dict(params), two, reduced)


def ground_action_constants(s: int, p: Fraction, N: int) -> CheckReport:
    """Inverse-free form of the ground-state actions: <s|G_- = <s| and
    G"_+|s> = |s>, plus the W0 eigenvalue of the vacuum matching
    s(s+1)(2s+1)/6, which makes the two dressing scalars p^{-+ that}."""
    p = Fraction(p)
    params_dict = {"s": s, "p": format_rational(p), "N": N}
    vac = ({0: 1}, 1)
    row = transfer_row(vac, p, N, "plain")
    # G"_+ is the transpose of G"_-, so G"_+|s> is the row <s|G"_-
    col = transfer_row(vac, p, N, "alternating")
    w0_vac = w0_diag(s, N)[0]
    expected = s * (s + 1) * (2 * s + 1) // 6
    ok = row == vac and col == vac and w0_vac == expected
    report = CheckReport("ground_action", params_dict, PASS if ok else FAIL)
    report.window = 2 * len(get_basis(N))
    report.evidence = {
        "left_scalar": format_rational(p ** (-w0_vac)),
        "right_scalar": format_rational(p ** w0_vac),
        "vacuum_w0": w0_vac,
    }
    if not ok:
        report.evidence["reason"] = "ground-state action is not scalar"
    return report


@lru_cache(maxsize=1)
def _blocks(g: GradedOperator):
    """g.gram, cached per grade for the last operator asked only: the checks of
    one model point run in turn and share its blocks, and no other operator's
    blocks are held."""
    return cache(g.gram)


def intertwining_residual(which: str, k: int, params: ModelParams) -> CheckReport:
    """For 'g_true' (k > 0): J_k g - g J_{-k} must vanish on the certified window.
    For 'gprime_fake': J_k g' - g' J_k must NOT vanish; a pass means the
    residual has a certified nonzero entry, reported as evidence."""
    if which not in ("g_true", "gprime_fake"):
        raise ValueError(f"unknown selector {which!r}")
    if k == 0 or (which == "g_true" and k < 0):
        raise ValueError("k must be nonzero, and positive for 'g_true'")
    if abs(k) > params.ctx.K:
        raise ValueError(f"|k| = {abs(k)} exceeds the tracked family K = {params.ctx.K}")
    N = params.N
    report = CheckReport("intertwining", _params_dict(params, k=k, which=which), INSUFFICIENT)
    if abs(k) > N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    g = build_g(params) if which == "g_true" else build_gprime(params)
    right_k = -k if which == "g_true" else k
    # g_n is exact on the whole window, so only the J factors of J_k g_n and
    # g_n J_{right_k} can leave the cutoff
    mask, window = certified_window(N, ((banded(-k), FULL), (FULL, banded(-right_k))))
    report.window = window * (params.ctx.NQ + 1)
    if window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    jl, jr = _j_matrix(k, N), _j_matrix(right_k, N)
    first_nonzero = None
    for n in range(params.ctx.NQ + 1):
        block, den = _blocks(g)(n)
        if entry := _sandwich_entry(block, jl, jr, 0, mask, g.basis, f_right=-1):
            first_nonzero = {"grade": n, **_entry_evidence(g.basis, *entry[:2],
                                                           Fraction(entry[2], den))}
            break
    if which == "g_true":
        report.status = PASS if first_nonzero is None else FAIL
        if first_nonzero:
            report.evidence = {"worst": first_nonzero}
    else:
        report.status = PASS if first_nonzero is not None else FAIL
        report.evidence = ({"nonzero_entry": first_nonzero} if first_nonzero
                           else {"reason": "fake intertwining relation unexpectedly holds"})
    return report


def trivial_tau_compare(params: ModelParams) -> CheckReport:
    """tau' against exp(sum_k k t_k th_k) <s|g'|s>; the negative result holds
    when the two differ in at least one retained coefficient. At D = 0 both
    sides are the vacuum Q-series by construction, so nothing is tested."""
    if params.ctx.D == 0:
        return CheckReport("trivial_tau", _params_dict(params), INSUFFICIENT,
                           {"reason": "need D >= 1: at D = 0 both sides are <s|g'|s>"})
    tau = tau_prime_series(params).series
    ctx = params.out_ctx
    bilin = TruncatedSeries.zero(ctx)
    for k in range(1, params.ctx.K + 1):
        key = [0] * ctx.nvars
        key[ctx.var_index(f"t{k}")] = 1
        key[ctx.var_index(f"th{k}")] = 1
        bilin = bilin + TruncatedSeries(ctx, {tuple(key): Fraction(k)})
    rhs = series_exp(bilin) * build_gprime(params).vacuum_q_series()
    diff = first_difference(tau, rhs)
    report = CheckReport("trivial_tau", _params_dict(params),
                         PASS if diff is not None else FAIL)
    report.window = len(set(tau.coeffs) | set(rhs.coeffs))
    const_agree = tau.q_profile() == rhs.q_profile()
    report.evidence = {"constant_terms_agree": const_agree}
    if diff is not None:
        label, va, vb = diff
        report.evidence["first_difference"] = {
            "monomial": label, "tau": format_rational(va), "trivial": format_rational(vb)}
    return report


# ---------------------------------------------------------------------------
# The lowest 2D Toda bilinear equation

def _bilinear_residual(center: TruncatedSeries, up: TruncatedSeries,
                       down: TruncatedSeries, c: Fraction) -> TruncatedSeries:
    d1 = series_partial(center, "t1")
    d2 = series_partial(center, "th1")
    d12 = series_partial(d1, "th1")
    return center * d12 - d1 * d2 - up * down * c


@lru_cache(maxsize=None)
def calibrate_bilinear_sign(K: int, D: int) -> int:
    """Fix the constant in tau tau_{t1 th1} - tau_{t1} tau_{th1} = c tau_+ tau_-
    on the trivial solution g = 1, where all three factors coincide."""
    if D < 2:
        raise CalibrationError("calibration needs D >= 2")
    tau = trivial_tau(K, D)
    for c in (1, -1):
        if not _bilinear_residual(tau, tau, tau, Fraction(c)):
            return c
    raise CalibrationError("no sign matches the trivial solution")


def toda_bilinear_residual(tau_family: dict[int, TauSeries], sign: str | int = "auto") -> CheckReport:
    """Check the lowest bilinear equation on every charge whose neighbors are
    present in the family. Polynomial form only: no divisions, no logs.
    The product caps shrink to the meet of the factor contexts and the
    derivative caps, which is exactly the window on which every retained
    coefficient of the residual is certified."""
    charges = sorted(tau_family)
    any_series = tau_family[charges[0]].series
    K, D = any_series.ctx.K, any_series.ctx.D
    params_dict = {"charges": charges, "K": K, "D": D, "sign": str(sign)}
    centers = [s for s in charges if s - 1 in tau_family and s + 1 in tau_family]
    report = CheckReport("toda_bilinear", params_dict, INSUFFICIENT)
    if not centers or D < 2:
        report.evidence = {"reason": "need D >= 2 and at least one charge with both neighbors"}
        return report
    if sign == "auto":
        c = Fraction(calibrate_bilinear_sign(K, D))
    else:
        c = Fraction(sign)
    for checked, s in enumerate(centers, start=1):
        residual = _bilinear_residual(tau_family[s].series,
                                      tau_family[s + 1].series,
                                      tau_family[s - 1].series, c)
        report.window = checked
        if residual:
            key = min(residual.coeffs, key=lambda t: (sum(t), t))
            report.status = FAIL
            report.evidence = {
                "constant": format_rational(c),
                "center": s,
                "first_nonzero": {"monomial": monomial_label(residual.ctx, key),
                                  "value": format_rational(residual.coeffs[key])},
            }
            return report
    report.status = PASS
    report.evidence = {"constant": format_rational(c), "centers": centers}
    return report


def tau_prime_family(params: ModelParams, charges) -> dict[int, TauSeries]:
    return {s: tau_prime_series(params.with_charge(s)) for s in charges}


def zprime_family(params: ModelParams, charges) -> dict[int, TauSeries]:
    return {s: TauSeries(s, zprime_series(params.with_charge(s))) for s in charges}
