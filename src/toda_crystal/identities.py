"""The identities tying the partition functions to the tau functions of
`toda`, and the lowest 2D Toda bilinear equation, as exact checks.

Each series check compares two sides coefficient by coefficient and reports
the first difference in canonical order, with a window of the nonzero
coefficients of both sides: Z' against prefactor . tau', the previous
model's Z against its tau, the presentations of the previous-model tau, tau'
against the trivial solution, and tau tau_{t1 th1} - tau_{t1} tau_{th1} =
c tau_+ tau_- on a charge family. They compute on the integer series of
`series`, as `toda` writes them; Z' and Z, which `models` returns as
TruncatedSeries, enter by one conversion each. The ground-action check
pushes the vacuum through G_- and G"_- by transfer.transfer_row, whose G.Y
form has no weight below the vacuum's to fill, and the intertwining check
reads J_k g_n - g_n J_r on the blocks g_n of toda.GradedOperator.gram with
the first shift's kernel, checks.sandwich_entry: the rows fock.j_rows of J_k
and J_r, the latter scaled by -1, against a checks.certified_window mask. The
report records come from `checks`, and no name from `symmetries` or `shifts`,
so `verify prev-identity` and `verify main-identity` compile none of the
commutator and shift checks. The tau construction never imports this module,
so a tau export compiles no check code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache

from .algebra import ModelParams, SeriesContext, charge_offset, format_rational
from .checks import (FAIL, FULL, INSUFFICIENT, PASS, CheckReport, banded, certified_window,
                     entry_evidence, sandwich_entry, torus_constant)
from .fock import get_basis, j_rows, maya_diag_levels, w0_diag
from .models import z_series, zprime_series
from .series import GradedSeries, first_difference, first_nonzero
from .toda import (GradedOperator, build_g, build_gprime, tau_prev_series, tau_prime_series,
                   trivial_tau)
from .transfer import transfer_row
from .truncated import TruncatedSeries, parse_monomial_label


class CalibrationError(RuntimeError):
    """Neither sign of the bilinear constant matches the trivial solution."""


def _series_report(check: str, params_dict: dict, lhs: GradedSeries,
                   rhs: GradedSeries, extra: dict | None = None) -> CheckReport:
    diff = first_difference(lhs, rhs)
    report = CheckReport(check, params_dict, PASS if diff is None else FAIL)
    report.window = len(lhs.support() | rhs.support())
    report.evidence = dict(extra or {})
    if diff is not None:
        label, va, vb = diff
        report.evidence["first_difference"] = {
            "monomial": label, "lhs": format_rational(va), "rhs": format_rational(vb)}
    return report


def _polynomial(ctx: SeriesContext, terms: dict[str, Fraction]) -> GradedSeries:
    """sum c m over the terms {monomial label m: c}."""
    return GradedSeries.of(TruncatedSeries(ctx, {
        parse_monomial_label(ctx, m): c for m, c in terms.items()}))


def _params_dict(params: ModelParams, **extra) -> dict:
    d = {"s": params.s, "l": params.l, "p": format_rational(params.p),
         "K": params.ctx.K, "D": params.ctx.D, "NQ": params.ctx.NQ, "N": params.N}
    d.update(extra)
    return d


def main_identity_sides(params: ModelParams) -> tuple[GradedSeries, GradedSeries]:
    """LHS: the modified partition function summed over partitions. RHS:
    exp(sum_k c(k) t_k + c(-k) th_k) times tau' at (-t_1, t_2, -t_3, ...,
    -th_1, -th_2, ...), with c(j) = q^j/(1-q^j). The alternating-family
    constants force c(-k) = -1/(1-q^k) on the hatted side."""
    lhs = GradedSeries.of(zprime_series(params))
    tau_sub = tau_prime_series(params).alternate_t_signs().negate_hatted()
    K, p = params.ctx.K, params.p
    pref = _polynomial(params.out_ctx, {
        **{f"t{k}^1": torus_constant(k, p) for k in range(1, K + 1)},
        **{f"th{k}^1": torus_constant(-k, p) for k in range(1, K + 1)}}).exp()
    return lhs, pref * tau_sub


def verify_main_identity(params: ModelParams) -> CheckReport:
    lhs, rhs = main_identity_sides(params)
    return _series_report(
        "main_identity", _params_dict(params), lhs, rhs,
        {"prefactor": "exp(sum_k q^k t_k/(1-q^k) + q^-k th_k/(1-q^-k))"})


def _prev_constant(params: ModelParams) -> Fraction:
    """q^{-s(s+1)(2s+1)/6} = p^{-s(s+1)(2s+1)/3}, the previous model's vacuum constant."""
    s = params.s
    return params.p ** (-(s * (s + 1) * (2 * s + 1)) // 3)


def prev_identity_sides(params: ModelParams) -> tuple[GradedSeries, GradedSeries]:
    """LHS: previous-model partition function. RHS:
    exp(sum t_k q^k/(1-q^k)) q^{-s(s+1)(2s+1)/6} tau(s, -t_1, t_2, -t_3, ...)."""
    lhs = GradedSeries.of(z_series(params))
    tau_sub = tau_prev_series(params, "left").alternate_t_signs()
    K, p = params.ctx.K, params.p
    pref = _polynomial(params.out_ctx,
                       {f"t{k}^1": torus_constant(k, p) for k in range(1, K + 1)}).exp()
    return lhs, pref * tau_sub * _prev_constant(params)


def verify_prev_identity(params: ModelParams) -> CheckReport:
    lhs, rhs = prev_identity_sides(params)
    return _series_report("prev_identity", _params_dict(params), lhs, rhs,
                          {"constant": format_rational(_prev_constant(params))})


def check_prev_forms(params: ModelParams) -> CheckReport:
    """The three one-family presentations of the previous-model tau agree."""
    left = tau_prev_series(params, "left")
    sym = tau_prev_series(params, "symmetric")
    right = tau_prev_series(params, "right")
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
    two = tau_prev_series(params, "reduced_2d")
    reduced = tau_prev_series(params, "left").substitute_difference()
    return _series_report("prev_tau_reduction", _params_dict(params), two, reduced)


def ground_action_constants(s: int, p: Fraction, N: int) -> CheckReport:
    """Inverse-free form of the ground-state actions: <s|G_- = <s| and
    G"_+|s> = |s>, plus the W0 eigenvalue of the vacuum matching
    s(s+1)(2s+1)/6, which makes the two dressing scalars p^{-+ that}, and its
    L0 eigenvalue, the signed sum of the levels of maya_diag_levels, matching
    algebra.charge_offset. The transfer half holds by construction: no weight
    lies below the vacuum's, so transfer_row returns the vacuum without
    reading a coupling. Only the W0 and L0 halves can fail."""
    p = Fraction(p)
    params_dict = {"s": s, "p": format_rational(p), "N": N}
    vac = ({0: 1}, 1)
    row = transfer_row(vac, p, N, "plain")
    # G"_+ is the transpose of G"_-, so G"_+|s> is the row <s|G"_-
    col = transfer_row(vac, p, N, "alternating")
    w0_vac = w0_diag(s, N)[0]
    expected = s * (s + 1) * (2 * s + 1) // 6
    l0_vac = sum(sign * x for sign, x in maya_diag_levels((), s))
    ok = row == vac and col == vac and w0_vac == expected and l0_vac == charge_offset(s)
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
    jl, jr = j_rows(k, N), j_rows(right_k, N)
    first_nonzero = None
    for n in range(params.ctx.NQ + 1):
        block, den = _blocks(g)(n)
        if entry := sandwich_entry(block, jl, jr, 0, mask, g.basis, f_right=-1):
            first_nonzero = {"grade": n, **entry_evidence(g.basis, *entry[:2],
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
    tau = tau_prime_series(params)
    bilin = _polynomial(params.out_ctx, {f"t{k}^1 th{k}^1": Fraction(k)
                                         for k in range(1, params.ctx.K + 1)})
    rhs = bilin.exp() * build_gprime(params).vacuum_q_series()
    diff = first_difference(tau, rhs)
    report = CheckReport("trivial_tau", _params_dict(params),
                         PASS if diff is not None else FAIL)
    report.window = len(tau.support() | rhs.support())
    const_agree = tau.q_profile() == rhs.q_profile()
    report.evidence = {"constant_terms_agree": const_agree}
    if diff is not None:
        label, va, vb = diff
        report.evidence["first_difference"] = {
            "monomial": label, "tau": format_rational(va), "trivial": format_rational(vb)}
    return report


# ---------------------------------------------------------------------------
# The lowest 2D Toda bilinear equation

def _bilinear_residual(center: GradedSeries, up: GradedSeries,
                       down: GradedSeries, c: Fraction) -> GradedSeries:
    d1 = center.partial("t1")
    d2 = center.partial("th1")
    d12 = d1.partial("th1")
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


def _bilinear_report(charges: list[int], K: int, D: int, sign) -> CheckReport:
    """An insufficient_window bilinear report on the charges, with its reason
    in the evidence when the window is too small for the equation: D < 2, or
    no charge with both neighbors."""
    report = CheckReport("toda_bilinear", {"charges": charges, "K": K, "D": D, "sign": str(sign)},
                         INSUFFICIENT)
    if D < 2 or not any(s - 1 in charges and s + 1 in charges for s in charges):
        report.evidence = {"reason": "need D >= 2 and at least one charge with both neighbors"}
    return report


def toda_bilinear_residual(tau_family: dict[int, GradedSeries],
                           sign: str | int = "auto") -> CheckReport:
    """Check the lowest bilinear equation on every charge whose neighbors are
    present in the family. Polynomial form only: no divisions, no logs.
    The product caps shrink to the meet of the factor contexts and the
    derivative caps, which is exactly the window on which every retained
    coefficient of the residual is certified."""
    charges = sorted(tau_family)
    ctx = tau_family[charges[0]].ctx
    report = _bilinear_report(charges, ctx.K, ctx.D, sign)
    if report.evidence:
        return report
    centers = [s for s in charges if s - 1 in tau_family and s + 1 in tau_family]
    if sign == "auto":
        c = Fraction(calibrate_bilinear_sign(ctx.K, ctx.D))
    else:
        c = Fraction(sign)
    for checked, s in enumerate(centers, start=1):
        residual = _bilinear_residual(tau_family[s], tau_family[s + 1], tau_family[s - 1], c)
        report.window = checked
        if residual:
            label, value = first_nonzero(residual)
            report.status = FAIL
            report.evidence = {
                "constant": format_rational(c),
                "center": s,
                "first_nonzero": {"monomial": label, "value": format_rational(value)},
            }
            return report
    report.status = PASS
    report.evidence = {"constant": format_rational(c), "centers": centers}
    return report


def bilinear_family_check(build_family, params: ModelParams, charges) -> CheckReport:
    """toda_bilinear_residual on the family build_family(params, charges),
    which is not built when the window is too small for the equation."""
    charges = sorted(charges)
    report = _bilinear_report(charges, params.ctx.K, params.ctx.D, "auto")
    return report if report.evidence else toda_bilinear_residual(build_family(params, charges))


def tau_prime_family(params: ModelParams, charges) -> dict[int, GradedSeries]:
    return {s: tau_prime_series(params.with_charge(s)) for s in charges}


def zprime_family(params: ModelParams, charges) -> dict[int, GradedSeries]:
    return {s: GradedSeries.of(zprime_series(params.with_charge(s))) for s in charges}
