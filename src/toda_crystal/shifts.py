"""Exact checks of the two shift symmetries, on integer residuals.

Each check compares two operator products entry by entry on the mask that
checks.certified_window gives for the chains it writes from its indices
(V^(k)_m banded(-m), G_- and G_+ RAISING and LOWERING), and reports the
earliest offending entry, the only one made a Fraction. The first shift runs
checks.sandwich_entry on the integer transfer.pair_table and the V rows of
v_rows, the terms of fock.v_terms at a p; the second compares the exponents
of those terms. Only the shift suite imports this module, and it imports
nothing of `symmetries`, so the commutators compile none of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import format_rational
from .checks import (FAIL, INSUFFICIENT, LOWERING, PASS, RAISING, CheckReport, banded,
                     certified_window, entry_evidence, p_label, sandwich_entry, torus_constant)
from .fock import SectorConfig, get_basis, power_form, v_terms, w0_diag
from .transfer import pair_table


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


def first_shift_check(variant: str, k: int, m: int, config: SectorConfig) -> CheckReport:
    """Intertwining form of the first shift symmetry.

    Plain variant: G_-G_+ (V^(k)_m - d_{m,0} c(k)) = (-1)^k (V^(k)_{m+k} - d_{m+k,0} c(k)) G_-G_+.
    Alternating variant: same with upper index -k, no parity factor, and
    constant c(-k); c(j) = q^j/(1-q^j) throughout. The constant pattern
    c(-k) = -1/(1-q^k) is what the locked conventions realize for the
    alternating family. The residual G V_L - parity V_R G - (c_L - parity c_R) G,
    with c_L = c(upper) at m = 0 and c_R = c(upper) at m + k = 0 (at most one
    of them is nonzero), is read by sandwich_entry over one denominator from
    the integer table of G_-G_+ and the integer rows of the two V factors.
    """
    if k < 1:
        raise ValueError("first shift symmetries need k >= 1")
    if variant not in ("G", "Gprime"):
        raise ValueError(f"unknown variant {variant!r}")
    params = {"variant": variant, "k": k, "m": m, "s": config.s,
              "p": p_label(config), "N": config.N}
    report = CheckReport("first_shift", params, INSUFFICIENT)
    N = config.N
    if abs(m) > N or abs(m + k) > N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    mask, window = certified_window(N, ((RAISING, LOWERING, banded(-m)),
                                        (banded(-(m + k)), RAISING, LOWERING)))
    report.window = window
    if window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    upper = k if variant == "G" else -k
    parity = (-1) ** k if variant == "G" else 1
    c = torus_constant(upper, config.p)
    table, d_g = pair_table(config.p, N, "plain" if variant == "G" else "alternating", N)
    (v_l, d_l), (v_r, d_r) = v_rows(upper, m, config), v_rows(upper, m + k, config)
    c_g = (c if m == 0 else 0) - parity * (c if m + k == 0 else 0)  # c_L - parity c_R
    d_c = c_g.denominator
    # over d_g d_l d_r d_c, f_left V_R T is -parity V_R G, T f_right V_L is
    # G V_L and diag T is -c_g G
    entry = sandwich_entry(table, v_r, v_l, -c_g.numerator * d_l * d_r, mask, get_basis(N),
                           -parity * d_l * d_c, d_r * d_c)
    worst = entry and entry_evidence(get_basis(N), *entry[:2],
                                     Fraction(entry[2], d_g * d_l * d_r * d_c))
    report.status = PASS if worst is None else FAIL
    report.evidence = {"constant": format_rational(c)}
    if worst:
        report.evidence["worst"] = worst
    return report


def second_shift_check(k: int, m: int, config: SectorConfig) -> CheckReport:
    """q^{W0/2} V^(k)_m q^{-W0/2} = V^(k-m)_m, checked entrywise as
    p^{w(row)-w(col)} V^(k)_m = V^(k-m)_m; exact on the whole window. Each
    side puts c p^{k' e} on each term c x^e of fock.v_terms, k' = k or k - m,
    so the exponents are compared term by term, a differing pair reported as
    c (p^a - p^b). At m = 0 the row and column agree, and so do k e and k' e."""
    params = {"k": k, "m": m, "s": config.s, "p": p_label(config), "N": config.N}
    report = CheckReport("second_shift", params, INSUFFICIENT)
    if abs(m) > config.N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    # the band of a shift |m| <= N always holds pairs, so the window is never empty
    mask, report.window = certified_window(config.N, band=-m)
    w0, p, w = w0_diag(config.s, config.N), config.p, get_basis(config.N).weights
    worst = None
    for i, row in v_terms(m, config.s, config.N).items():
        for j, e, c in row:
            a, b = w0[i] - w0[j] + k * e, (k - m) * e
            if a != b and mask[w[i]][w[j]] and (worst is None or (i, j) < worst[:2]):
                worst = i, j, c * (p ** a - p ** b)
    worst = worst and entry_evidence(get_basis(config.N), *worst)
    report.status = PASS if worst is None else FAIL
    if worst:
        report.evidence = {"worst": worst}
    return report
