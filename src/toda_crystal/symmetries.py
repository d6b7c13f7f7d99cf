"""Exact checks of the quantum-torus commutators and the shift symmetries.

Each check compares two operator products entry by entry on the window the
split rule certifies, and reports the earliest (canonical order) offending
entry on failure. A check writes the chain of each product it compares from
its own indices: V^(k)_m is banded(-m), G_- and G_+ RAISING and LOWERING,
and reads the residual against the one certified_window mask of the chains.
The commutator and first-shift residuals are integer numerators over one
common denominator, so each equality is an integer cross-multiplication;
the first shift multiplies only the rows the mask reads, and only a
reported entry becomes a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .algebra import format_rational
from .fock import (
    LOWERING,
    RAISING,
    SectorConfig,
    SectorOperator,
    banded,
    certified_window,
    get_basis,
    integer_form,
    transfer_pair_row,
    v_int,
    v_op,
    w0_diag,
)

PASS = "pass"
FAIL = "fail"
INSUFFICIENT = "insufficient_window"


@dataclass
class CheckReport:
    check: str
    params: dict
    status: str
    evidence: dict = field(default_factory=dict)
    window: int = 0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self) -> dict:
        evidence = dict(self.evidence)
        evidence["window"] = self.window
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "evidence": evidence,
        }


def torus_constant(j: int, p: Fraction) -> Fraction:
    """Central subtraction q^j/(1-q^j) attached to the zero-shift generators."""
    if j == 0:
        raise ValueError("the torus constant is undefined at j = 0")
    qj = Fraction(p) ** (2 * j)
    return qj / (1 - qj)


def _entry_evidence(basis_obj, i: int, j: int, value) -> dict:
    return {
        "row": basis_obj.parts[i].to_json(),
        "col": basis_obj.parts[j].to_json(),
        "value": format_rational(value),
    }


def _scan_certified_residual(residual: SectorOperator, mask, den=1) -> tuple[bool, dict | None]:
    """True plus None when every entry inside the certified_window mask
    vanishes; otherwise False and the earliest such nonzero entry over den."""
    b = residual.basis
    w = b.weights
    for i, j, v in residual.nonzero_entries_sorted():
        if mask[w[i]][w[j]]:
            return False, _entry_evidence(b, i, j, Fraction(v, den))
    return True, None


def torus_prefactor(k: int, m: int, l: int, n: int, p: Fraction) -> Fraction:
    """q^{(lm-kn)/2} - q^{(kn-lm)/2}, the coefficient of V^(k+l)_{m+n}."""
    return p ** (l * m - k * n) - p ** (k * n - l * m)


def commutator_check(k: int, m: int, l: int, n: int, config: SectorConfig) -> CheckReport:
    """[V^(k)_m, V^(l)_n] = (A1 A2 - A2 A1)/(d1 d2), on the integer forms Ai/di,
    against the quantum-torus relation by integer cross-multiplication. At
    k+l = 0 and m+n = 0 the relation degenerates to a pure central term; the
    realized sign of that constant is reported, not presumed."""
    params = {"k": k, "m": m, "l": l, "n": n, "s": config.s, "l_weight": config.l,
              "p": format_rational(config.p), "N": config.N}
    report = CheckReport("commutator", params, INSUFFICIENT)
    N = config.N
    if max(abs(m), abs(n), abs(m + n)) > N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    mask, window = certified_window(N, ((banded(-m), banded(-n)), (banded(-n), banded(-m))))
    report.window = window
    if window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    (a1, d1), (a2, d2) = v_int(k, m, config), v_int(l, n, config)
    lhs = a1 @ a2 - a2 @ a1
    ident = SectorOperator.identity(config)
    if k + l == 0 and m + n == 0:
        # degenerate central case: L must be sigma * m * d1 d2 * identity
        for sigma in (1, -1):
            ok, _ = _scan_certified_residual(lhs - ident.scale(sigma * m * d1 * d2), mask)
            if ok:
                report.status = PASS
                report.evidence = {"central_sign": sigma} if m else {}
                return report
        report.status = FAIL
        _, worst = _scan_certified_residual(lhs, mask, d1 * d2)
        report.evidence = {"worst": worst, "reason": "central term matches neither sign"}
        return report
    pref = torus_prefactor(k, m, l, n, config.p)
    c = pref * torus_constant(k + l, config.p) if m + n == 0 else Fraction(0)
    a3, d3 = v_int(k + l, m + n, config)
    den = d1 * d2 * d3 * pref.denominator * c.denominator  # of L/(d1 d2) - pref A3/d3 + c
    residual = lhs.scale(den // d1 // d2) - a3.scale(den // d3 // pref.denominator * pref.numerator)
    if c:
        residual = residual + ident.scale(c.numerator * den // c.denominator)
    ok, worst = _scan_certified_residual(residual, mask, den)
    report.status = PASS if ok else FAIL
    if worst:
        report.evidence = {"worst": worst}
    return report


@lru_cache(maxsize=None)
def _transfer_pair_rows(p: Fraction, N: int, family: str) -> tuple[dict[int, dict[int, int]], int]:
    """G_-G_+ on the sector cut at N, a pushed basis vector per row, in integer
    form over the lcm of the row denominators; entries do not depend on s."""
    pushed = [transfer_pair_row(({i: 1}, 1), p, N, family, cap=N) for i in range(len(get_basis(N)))]
    den = math.lcm(*(d for _, d in pushed))
    return {i: {j: v * (den // d) for j, v in nums.items()}
            for i, (nums, d) in enumerate(pushed)}, den


def first_shift_check(variant: str, k: int, m: int, config: SectorConfig) -> CheckReport:
    """Intertwining form of the first shift symmetry.

    Plain variant: G_-G_+ (V^(k)_m - d_{m,0} c(k)) = (-1)^k (V^(k)_{m+k} - d_{m+k,0} c(k)) G_-G_+.
    Alternating variant: same with upper index -k, no parity factor, and
    constant c(-k); c(j) = q^j/(1-q^j) throughout. The constant pattern
    c(-k) = -1/(1-q^k) is what the locked conventions realize for the
    alternating family. On the integer forms G/d_G, L/d_L and R/d_R of the
    three factors, G (L d_R) - (parity d_L R) G is taken on the readable rows.
    """
    if k < 1:
        raise ValueError("first shift symmetries need k >= 1")
    if variant not in ("G", "Gprime"):
        raise ValueError(f"unknown variant {variant!r}")
    params = {"variant": variant, "k": k, "m": m, "s": config.s,
              "p": format_rational(config.p), "N": config.N}
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
    b = get_basis(N)
    def readable_rows(rows):  # the rows whose weight the mask reads
        return SectorOperator(config, b, {i: r for i, r in rows.items() if any(mask[b.weights[i]])})
    rows, d_g = _transfer_pair_rows(config.p, N, "plain" if variant == "G" else "alternating")
    ident = SectorOperator.identity(config)
    left, d_l = integer_form(v_op(upper, m, config) - ident.scale(c if m == 0 else 0))
    right, d_r = integer_form(v_op(upper, m + k, config) - ident.scale(c if m + k == 0 else 0))
    # the integer factors scale the banded V sides, far sparser than the products
    residual = (readable_rows(rows) @ left.scale(d_r)
                - readable_rows(right.scale(parity * d_l).rows) @ SectorOperator(config, b, rows))
    ok, worst = _scan_certified_residual(residual, mask, d_g * d_l * d_r)
    report.status = PASS if ok else FAIL
    report.evidence = {"constant": format_rational(c)}
    if worst:
        report.evidence["worst"] = worst
    return report


def second_shift_check(k: int, m: int, config: SectorConfig) -> CheckReport:
    """q^{W0/2} V^(k)_m q^{-W0/2} = V^(k-m)_m, checked entrywise as
    p^{w(row)-w(col)} V^(k)_m = V^(k-m)_m; exact on the whole window."""
    params = {"k": k, "m": m, "s": config.s, "p": format_rational(config.p), "N": config.N}
    report = CheckReport("second_shift", params, INSUFFICIENT)
    if abs(m) > config.N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    w0 = w0_diag(config)
    p = config.p
    lhs = v_op(k, m, config).scale_rows(lambda i: p ** w0[i]).scale_cols(
        lambda j: p ** (-w0[j]))
    rhs = v_op(k - m, m, config)
    mask, window = certified_window(config.N, band=-m)
    report.window = window
    if window == 0:
        report.evidence = {"reason": "empty band"}
        return report
    ok, worst = _scan_certified_residual(lhs - rhs, mask)
    report.status = PASS if ok else FAIL
    if worst:
        report.evidence = {"worst": worst}
    return report
