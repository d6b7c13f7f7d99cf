"""Exact checks of the quantum-torus commutators and the shift symmetries.

Each check compares two operator products entry by entry on the window the
split rule certifies, and reports the earliest (canonical order) offending
entry on failure. A check writes the chain of each product it compares from
its own indices: V^(k)_m is banded(-m), G_- and G_+ RAISING and LOWERING,
and reads the residual against the one certified_window mask of the chains.
The commutator and first-shift residuals are integer numerators over one
common denominator, so each equality is an integer cross-multiplication,
taken only on the rows the mask reads, and only a reported entry becomes a
Fraction. The commutator residual forms no operator at all: it is streamed
row by row from the cached integer forms of the V factors, through no
SectorOperator product or sum.
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


def _first_entry(indices, row, mask, basis_obj, den=1) -> dict | None:
    """The earliest nonzero entry, over den, inside the certified_window mask
    of the rows row(i) = {j: value}, i in indices; None when all vanish. The
    rows are formed in ascending i, and none after the one reported."""
    w = basis_obj.weights
    for i in sorted(indices):
        readable, r = mask[w[i]], row(i)
        for j in sorted(r):
            if r[j] and readable[w[j]]:
                return _entry_evidence(basis_obj, i, j, Fraction(r[j], den))
    return None


def torus_prefactor(k: int, m: int, l: int, n: int, p: Fraction) -> Fraction:
    """q^{(lm-kn)/2} - q^{(kn-lm)/2}, the coefficient of V^(k+l)_{m+n}."""
    return p ** (l * m - k * n) - p ** (k * n - l * m)


def central_term(k: int, m: int, l: int, n: int, p: Fraction, sign: int = 1) -> Fraction:
    """The identity coefficient of [V^(k)_m, V^(l)_n]: sign * m at k+l = 0 = m+n,
    for the sign the sector realizes, else -pref c(k+l) at m+n = 0, else 0."""
    if k + l == 0 and m + n == 0:
        return Fraction(sign * m)
    if m + n:
        return Fraction(0)
    return -torus_prefactor(k, m, l, n, p) * torus_constant(k + l, p)


def _commutator_entry(pair, mask, central: Fraction, third=(None, 1),
                      pref=Fraction(0)) -> dict | None:
    """The earliest certified nonzero entry of L/(d1 d2) - pref A3/d3 - central,
    with pair = ((A1, d1), (A2, d2)) and third = (A3, d3) integer forms and
    L = A1 A2 - A2 A1. Only the rows whose weight the mask reads are formed,
    in ascending order, each times one common denominator and in turn."""
    ((a1, d1), (a2, d2)), (a3, d3) = pair, third
    readable = [i for w, cols in enumerate(mask) if any(cols) for i in a1.basis.weight_range[w]]
    den = d1 * d2 * d3 * pref.denominator * central.denominator
    f, h = den // (d1 * d2), den // central.denominator * central.numerator
    g = den // (d3 * pref.denominator) * pref.numerator
    r3 = a3.rows if g else {}

    def row(i):
        acc = {}
        for left, right, c in ((a1.rows, a2.rows, f), (a2.rows, a1.rows, -f)):
            for x, v in left.get(i, {}).items():
                v *= c
                for j, u in right.get(x, {}).items():
                    acc[j] = acc[j] + v * u if j in acc else v * u
        for j, u in r3.get(i, {}).items():
            acc[j] = acc[j] - g * u if j in acc else -g * u
        if h:
            acc[i] = acc.get(i, 0) - h
        return acc
    return _first_entry(readable, row, mask, a1.basis, den)


def commutator_check(k: int, m: int, l: int, n: int, config: SectorConfig) -> CheckReport:
    """[V^(k)_m, V^(l)_n] = (A1 A2 - A2 A1)/(d1 d2), on the integer forms Ai/di,
    against pref V^(k+l)_{m+n} + central_term by integer cross-multiplication,
    streamed row by row over the rows whose weight the mask reads. At k+l = 0
    and m+n = 0 the relation degenerates to a pure central term; the realized
    sign of that constant is reported, not presumed."""
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
    pair = v_int(k, m, config), v_int(l, n, config)
    if k + l == 0 and m + n == 0:
        for sigma in (1, -1):
            central = central_term(k, m, l, n, config.p, sigma)
            if _commutator_entry(pair, mask, central) is None:
                report.status = PASS
                report.evidence = {"central_sign": sigma} if m else {}
                return report
        report.status = FAIL
        report.evidence = {"worst": _commutator_entry(pair, mask, Fraction(0)),
                           "reason": "central term matches neither sign"}
        return report
    worst = _commutator_entry(pair, mask, central_term(k, m, l, n, config.p),
                              v_int(k + l, m + n, config), torus_prefactor(k, m, l, n, config.p))
    report.status = PASS if worst is None else FAIL
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
    worst = _first_entry(residual.rows, residual.rows.get, mask, b, d_g * d_l * d_r)
    report.status = PASS if worst is None else FAIL
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
    residual = lhs - rhs
    worst = _first_entry(residual.rows, residual.rows.get, mask, rhs.basis)
    report.status = PASS if worst is None else FAIL
    if worst:
        report.evidence = {"worst": worst}
    return report
