"""Exact checks of the quantum-torus commutators and the shift symmetries.

Each check compares two operator products entry by entry on the window the
split rule certifies, and reports the earliest (canonical order) offending
entry on failure. A check writes the chain of each product it compares, the
shift classes of the factors, from its own indices: V^(k)_m is banded(-m),
and G_- and G_+ are RAISING and LOWERING. It reads every entry against the
one certified_window mask of those chains. All equalities are exact rational
identities.
"""

from __future__ import annotations

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
    transfer_pair_row,
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
        "value": format_rational(value) if isinstance(value, Fraction) else str(value),
    }


def _scan_certified_residual(residual: SectorOperator, mask) -> tuple[bool, dict | None]:
    """True plus None when every entry inside the certified_window mask
    vanishes; otherwise False and the earliest such nonzero entry."""
    b = residual.basis
    w = b.weights
    for i, j, v in residual.nonzero_entries_sorted():
        if mask[w[i]][w[j]]:
            return False, _entry_evidence(b, i, j, v)
    return True, None


def commutator_check(k: int, m: int, l: int, n: int, config: SectorConfig) -> CheckReport:
    """[V^(k)_m, V^(l)_n] against the quantum-torus relation with prefactor
    q^{(lm-kn)/2} - q^{(kn-lm)/2}. At k+l = 0 and m+n = 0 the relation
    degenerates to a pure central term; the realized sign of that constant is
    reported, not presumed."""
    params = {"k": k, "m": m, "l": l, "n": n, "s": config.s, "l_weight": config.l,
              "p": format_rational(config.p), "N": config.N}
    report = CheckReport("commutator", params, INSUFFICIENT)
    N = config.N
    if abs(m) > N or abs(n) > N or (k + l != 0 or m + n != 0) and abs(m + n) > N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    V1 = v_op(k, m, config)
    V2 = v_op(l, n, config)
    lhs = V1 @ V2 - V2 @ V1
    mask, window = certified_window(N, ((banded(-m), banded(-n)), (banded(-n), banded(-m))))
    report.window = window
    if window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    p = config.p
    pref = p ** (l * m - k * n) - p ** (k * n - l * m)
    if k + l == 0 and m + n == 0:
        # degenerate central case: residual must be sigma * m * identity
        base = lhs
        for sigma in (1, -1):
            expected = SectorOperator.identity(config).scale(Fraction(sigma * m))
            ok, _ = _scan_certified_residual(base - expected, mask)
            if ok:
                report.status = PASS
                report.evidence = {"central_sign": sigma} if m else {}
                return report
        report.status = FAIL
        _, worst = _scan_certified_residual(base, mask)
        report.evidence = {"worst": worst, "reason": "central term matches neither sign"}
        return report
    rhs = v_op(k + l, m + n, config).scale(pref)
    if m + n == 0:
        c = pref * torus_constant(k + l, p)
        rhs = rhs - SectorOperator.identity(config).scale(c)
    ok, worst = _scan_certified_residual(lhs - rhs, mask)
    report.status = PASS if ok else FAIL
    if worst:
        report.evidence = {"worst": worst}
    return report


@lru_cache(maxsize=None)
def _transfer_pair_rows(p: Fraction, N: int, family: str) -> dict[int, dict[int, Fraction]]:
    """The rows of G_-G_+ on the sector cut at N, one pushed basis vector
    each; the entries do not depend on the charge."""
    rows = {}
    for i in range(len(get_basis(N))):
        nums, den = transfer_pair_row(({i: 1}, 1), p, N, family, cap=N)
        rows[i] = {j: Fraction(v, den) for j, v in nums.items()}
    return rows


def first_shift_check(variant: str, k: int, m: int, config: SectorConfig) -> CheckReport:
    """Intertwining form of the first shift symmetry.

    Plain variant: G_-G_+ (V^(k)_m - d_{m,0} c(k)) = (-1)^k (V^(k)_{m+k} - d_{m+k,0} c(k)) G_-G_+.
    Alternating variant: same with upper index -k, no parity factor, and
    constant c(-k); c(j) = q^j/(1-q^j) throughout. The constant pattern
    c(-k) = -1/(1-q^k) is what the locked conventions realize for the
    alternating family.
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
    upper = k if variant == "G" else -k
    parity = Fraction(-1) ** k if variant == "G" else Fraction(1)
    c = torus_constant(upper, config.p)
    family = "plain" if variant == "G" else "alternating"
    gg = SectorOperator(config, get_basis(N), _transfer_pair_rows(config.p, N, family))
    ident = SectorOperator.identity(config)
    left_v = v_op(upper, m, config)
    if m == 0:
        left_v = left_v - ident.scale(c)
    right_v = v_op(upper, m + k, config)
    if m + k == 0:
        right_v = right_v - ident.scale(c)
    lhs = gg.matmul(left_v)
    # the parity scales the banded factor, far sparser than the product
    rhs = right_v.scale(parity).matmul(gg)
    mask, window = certified_window(N, ((RAISING, LOWERING, banded(-m)),
                                        (banded(-(m + k)), RAISING, LOWERING)))
    report.window = window
    if window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    ok, worst = _scan_certified_residual(lhs - rhs, mask)
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
