"""Tau functions of the crystal models and the identities tying them together.

The central object is a Q-graded operator g = A . Q^{L0} . B with A and B
built from transfer exponentials and diagonal p^{W0} dressings. Tau series
are ground-state expectation values of g between time-evolution
exponentials; their coefficients are assembled grade by grade, so every
retained coefficient is a finite exact sum.

Certification is by construction for the tau series. A tau series needs
only the C(K+D, D) time vectors <s| prod J_k^{a_k} A and B prod J_{-k}^{b_k} |s>,
paired at weights n <= NQ, so A and B are never materialised: each vector
is pushed through the dressings and the terminating exponential series of
the transfer factors one factor at a time. The factor that raises weights
(G_+ on a row, G"_- on a column) runs in the sector cut at NQ, which is
exact: a component of weight <= NQ only draws on intermediates of lower
weight. The time exponentials contribute energies at most K*D, which the
cutoff must dominate. Since J_{-k} is the transpose of J_k, one table of
row vectors serves as the column vectors too. The intertwining check pairs
pushed vectors as well: (g_n)_{lam,mu} = <e_lam A, Pi_n B e_mu>, and the
current modes enter by linearity, so no dense block of g is ever built. It
reads its residual entries against the same certified_window mask as the
operator checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache

from .algebra import (
    SeriesContext,
    TruncatedSeries,
    alternate_t_signs,
    first_difference,
    format_rational,
    linear_form,
    negate_hatted,
    series_exp,
    series_partial,
    substitute_difference,
)
from .fock import (
    FULL,
    ExactnessCertificate,
    SectorConfig,
    SectorOperator,
    apply_col,
    apply_row,
    certified_window,
    get_basis,
    j_op,
    transfer_operator,
    transfer_pair_col,
    transfer_pair_row,
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
    torus_constant,
)


class CalibrationError(RuntimeError):
    """Neither sign of the bilinear constant matches the trivial solution."""


# ---------------------------------------------------------------------------
# Time-evolution vectors <s| prod J_k^{a_k}. As J_{-k} is the transpose of J_k,
# the same entries give the columns prod J_{-k}^{b_k} |s>. Current-mode
# matrices carry no p and no charge dependence, so these vectors are cached on
# (N, K, D) alone.

@lru_cache(maxsize=None)
def _j_matrix(k: int, N: int) -> SectorOperator:
    """J_k for the time vectors only. Its config pins p = 1/2, so operator
    products in a sector use j_op(k, config) instead."""
    return j_op(k, SectorConfig(0, N, Fraction(1, 2)))


def _multi_indices(K: int, D: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(K):
        out = [t + (e,) for t in out for e in range(D - sum(t) + 1)]
    return sorted(out, key=lambda t: (sum(t), t))


@lru_cache(maxsize=None)
def _time_rows(N: int, K: int, D: int):
    rows = {(0,) * K: {0: Fraction(1)}}
    for a in _multi_indices(K, D):
        if a in rows or sum(a) == 0:
            continue
        k = next(i + 1 for i, e in enumerate(a) if e)
        prev = tuple(e - 1 if i == k - 1 else e for i, e in enumerate(a))
        rows[a] = apply_row(rows[prev], _j_matrix(k, N))
    return rows


def _norm(a: tuple[int, ...]) -> Fraction:
    f = 1
    for e in a:
        f *= math.factorial(e)
    return Fraction(1, f)


# ---------------------------------------------------------------------------
# Graded operators

@dataclass(frozen=True)
class TauSeries:
    charge: int
    series: TruncatedSeries


_RIGHT_W0_SIGN = {"plain": +1, "alternating": -1}


class GradedOperator:
    """g = A . Q^{L0} . B on a fixed sector, with A = q^{W0/2} G_-G_+ q^{l W0/2}
    and B = G"_-G"_+ q^{+-W0/2}. The right pair uses the given transfer family,
    'plain' with q^{+W0/2} or 'alternating' with q^{-W0/2}; identity_transfers
    replaces both pairs by the identity.

    g is only ever applied to vectors. row(vec) is vec . A and col(vec) is
    B . vec, pushed through the factors one at a time and kept on the weights
    <= NQ, the only ones a graded pairing reads. The cut is exact: the
    dressings keep weights, and the transfer factor that raises weights (G_+
    on a row, G"_- on a column) runs in the sector cut at NQ, since no
    intermediate of a kept component lies above that component's weight.
    Every graded quantity pairs such vectors: <lam| g |mu> =
    sum_n Q^{n + s(s+1)/2} <row(e_lam), col(e_mu)>_n.

    The operator keeps what it pushes: time_vectors for the tau series, and
    basis_row(i) = row(e_i) and basis_col(i) = col(e_i), each pushed on
    first call."""

    def __init__(self, params: ModelParams, family: str, identity_transfers: bool = False):
        if family not in _RIGHT_W0_SIGN:
            raise ValueError(f"unknown transfer family {family!r}")
        self.params = params
        self.config = params.config
        self.family = family
        self.identity_transfers = identity_transfers
        self.basis = get_basis(self.config.N)
        self._w0 = w0_diag(self.config)
        self._limit = self.basis.weight_range[params.ctx.NQ].stop
        self.basis_row = cache(lambda i: self.row({i: Fraction(1)}))
        self.basis_col = cache(lambda i: self.col({i: Fraction(1)}))

    def _scaled(self, vec, c: int) -> dict[int, Fraction]:
        """vec times the diagonal p^{c W0}."""
        p, w0 = self.config.p, self._w0
        return {i: v * p ** (c * w0[i]) for i, v in vec.items()}

    def _cut(self, vec) -> dict[int, Fraction]:
        return {i: v for i, v in vec.items() if i < self._limit}

    def row(self, vec) -> dict[int, Fraction]:
        """vec . A on the weights <= NQ."""
        cfg = self.config
        v = self._scaled(vec, 1)
        if not self.identity_transfers:
            v = transfer_pair_row(v, cfg.p, cfg.N, "plain", self.params.ctx.NQ)
        return self._scaled(self._cut(v), cfg.l)

    def col(self, vec) -> dict[int, Fraction]:
        """B . vec on the weights <= NQ."""
        cfg = self.config
        v = self._scaled(vec, _RIGHT_W0_SIGN[self.family])
        if not self.identity_transfers:
            v = transfer_pair_col(v, cfg.p, cfg.N, self.family, self.params.ctx.NQ)
        return self._cut(v)

    @cached_property
    def time_vectors(self):
        """u_a = <s| prod J_k^{a_k} A and w_b = B prod J_{-k}^{b_k} |s> for every
        multi-index of degree <= D, keyed by the multi-index."""
        ctx = self.params.ctx
        rows = _time_rows(self.config.N, ctx.K, ctx.D)
        return ({a: self.row(r) for a, r in rows.items()},
                {b: self.col(r) for b, r in rows.items()})

    def vacuum_q_series(self) -> TruncatedSeries:
        """<s| g |s> as a pure Q series in the output context."""
        zero = (0,) * self.params.ctx.K
        return _assemble(self.params, {zero: self.basis_row(0)}, {zero: self.basis_col(0)},
                         hat_sign=+1)


@lru_cache(maxsize=None)
def build_gprime(params: ModelParams, identity_transfers: bool = False) -> GradedOperator:
    """g' = q^{W0/2} G_-G_+ q^{l W0/2} Q^{L0} G"_-G"_+ q^{-W0/2} with the
    alternating transfer family on the right. Cached per model point, so the
    checks on one (s, l) share its pushed vectors."""
    return GradedOperator(params, "alternating", identity_transfers)


@lru_cache(maxsize=None)
def build_g(params: ModelParams, identity_transfers: bool = False) -> GradedOperator:
    """g = q^{W0/2} G_-G_+ q^{l W0/2} Q^{L0} G_-G_+ q^{+W0/2}; cached like build_gprime."""
    return GradedOperator(params, "plain", identity_transfers)


# ---------------------------------------------------------------------------
# Tau series

def _grade_dot(u, w, grade: range) -> Fraction:
    """<u, w>_n = sum_{|nu| = n} u_nu w_nu, with grade the indices of weight n."""
    return sum((u[i] * w[i] for i in grade if i in u and i in w), Fraction(0))


def _graded_pairing(u, w, basis, NQ: int) -> list[tuple[int, Fraction]]:
    """The nonzero <u, w>_n for n <= NQ, by grade."""
    totals = [(n, _grade_dot(u, w, basis.weight_range[n])) for n in range(NQ + 1)]
    return [(n, total) for n, total in totals if total]


def _assemble(params: ModelParams, us, ws, hat_sign: int) -> TruncatedSeries:
    """Coefficient table sum_{a,b,n} Q^{n+c_s} t^a th^b (sgn^{|b|}/a!b!) <u_a, w_b>_n."""
    D, NQ = params.ctx.D, params.ctx.NQ
    basis = get_basis(params.N)
    c_s = charge_offset(params.s)
    coeffs = {}
    for a, u in us.items():
        da = sum(a)
        na = _norm(a)
        for bb, w in ws.items():
            if da + sum(bb) > D:
                continue
            norm = na * _norm(bb)
            if hat_sign < 0 and sum(bb) % 2:
                norm = -norm
            for n, total in _graded_pairing(u, w, basis, NQ):
                coeffs[(n + c_s,) + a + bb] = total * norm
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
            sign = -1 if sum(bb) % 2 else 1
            # u and w each live on one weight, so at most one grade pairs
            for _, total in _graded_pairing(u, w, basis, N):
                coeffs[(0,) + a + bb] = sign * total * _norm(a) * _norm(bb)
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
    cfg = SectorConfig(s, N, p)
    gm = transfer_operator(p, N, "plain", "raising")
    gpp = transfer_operator(p, N, "alternating", "lowering")
    row = apply_row({0: Fraction(1)}, gm)
    col = apply_col(gpp, {0: Fraction(1)})
    w0_vac = w0_diag(cfg)[0]
    expected = s * (s + 1) * (2 * s + 1) // 6
    ok = row == {0: Fraction(1)} and col == {0: Fraction(1)} and w0_vac == expected
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


def _linear_combination(vector, coeffs) -> dict[int, Fraction]:
    """sum_i coeffs[i] vector(i)."""
    out: dict[int, Fraction] = {}
    for i, c in coeffs.items():
        for j, v in vector(i).items():
            out[j] = out[j] + c * v if j in out else c * v
    return out


def _first_residual_entry(g: GradedOperator, jl: SectorOperator, jr: SectorOperator,
                          mask) -> dict | None:
    """The earliest nonzero entry of J_l g_n - g_n J_r inside the mask, by
    grade n <= NQ, then row, then column; None when every such entry vanishes.

    The entry at (lam, mu) is <e_lam J_l A, Pi_n B e_mu> - <e_lam A, Pi_n B J_r e_mu>.
    By linearity e_lam J_l A = sum_kappa (J_l)_{lam,kappa} row(e_kappa), and
    likewise on the right, so the J-dressed vectors cost no pushes of their
    own. A basis vector is pushed when the scan first needs it."""
    b = g.basis
    w = b.weights
    row, col = g.basis_row, g.basis_col
    jr_cols = jr.transpose().rows
    dressed_row = cache(lambda lam: _linear_combination(row, jl.rows.get(lam, {})))
    dressed_col = cache(lambda mu: _linear_combination(col, jr_cols.get(mu, {})))
    for n in range(g.params.ctx.NQ + 1):
        grade = b.weight_range[n]
        for lam in range(len(b)):
            certified = mask[w[lam]]
            for mu in range(len(b)):
                if not certified[w[mu]]:
                    continue
                v = (_grade_dot(dressed_row(lam), col(mu), grade)
                     - _grade_dot(row(lam), dressed_col(mu), grade))
                if v:
                    return {"grade": n, **_entry_evidence(b, lam, mu, v)}
    return None


def intertwining_residual(which: str, k: int, params: ModelParams) -> CheckReport:
    """For 'g_true': J_k g - g J_{-k} must vanish on the certified window.
    For 'gprime_fake': J_k g' - g' J_k must NOT vanish; a pass means the
    residual has a certified nonzero entry, reported as evidence."""
    if which not in ("g_true", "gprime_fake"):
        raise ValueError(f"unknown selector {which!r}")
    if k == 0:
        raise ValueError("k must be nonzero")
    if abs(k) > params.ctx.K:
        raise ValueError(f"|k| = {abs(k)} exceeds the tracked family K = {params.ctx.K}")
    cfg = params.config
    N = cfg.N
    report = CheckReport("intertwining", _params_dict(params, k=k, which=which), INSUFFICIENT)
    if abs(k) > N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    g = build_g(params) if which == "g_true" else build_gprime(params)
    right_k = -k if which == "g_true" else k
    jl = j_op(k, cfg)
    jr = j_op(right_k, cfg)
    # g_n pairs pushed vectors, exact on the whole window, so only the J
    # factors of J_k g_n and g_n J_{right_k} can leave the cutoff
    mask, window = certified_window(N, (ExactnessCertificate((jl.shift, FULL), N),
                                        ExactnessCertificate((FULL, jr.shift), N)))
    report.window = window * (params.ctx.NQ + 1)
    if window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    first_nonzero = _first_residual_entry(g, jl, jr, mask)
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
    checked = 0
    for s in centers:
        residual = _bilinear_residual(tau_family[s].series,
                                      tau_family[s + 1].series,
                                      tau_family[s - 1].series, c)
        checked += 1
        if residual:
            key = min(residual.coeffs, key=lambda t: (sum(t), t))
            from .algebra import monomial_label
            report.status = FAIL
            report.evidence = {
                "constant": format_rational(c),
                "center": s,
                "first_nonzero": {"monomial": monomial_label(residual.ctx, key),
                                  "value": format_rational(residual.coeffs[key])},
            }
            return report
    report.status = PASS
    report.window = checked
    report.evidence = {"constant": format_rational(c), "centers": centers}
    return report


def tau_prime_family(params: ModelParams, charges) -> dict[int, TauSeries]:
    return {s: tau_prime_series(params.with_charge(s)) for s in charges}


def zprime_family(params: ModelParams, charges) -> dict[int, TauSeries]:
    return {s: TauSeries(s, zprime_series(params.with_charge(s))) for s in charges}
