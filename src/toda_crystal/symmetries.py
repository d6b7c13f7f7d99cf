"""Exact checks of the quantum-torus commutators and the shift symmetries.

Each check compares two operator products entry by entry on the window the
split rule certifies, and reports the earliest offending entry, by row, then
column, on failure. A check writes the chain of each product it compares from
its own indices (V^(k)_m is banded(-m), G_- and G_+ RAISING and LOWERING) and
asks certified_window for one mask. Every V is fock.v_int's, integer
numerators along v_pattern, and each residual is integer numerators over one
common denominator, so only a reported entry becomes a Fraction. The
commutator's factors are sparse: per (m, n), _commutator_tables numbers the
certified cells its terms land in as slots, in ascending (row, col), with the
two-move paths of V_m V_n and V_n V_m along them, and each check fills one
flat integer list, one numerator per slot; its first nonzero slot is the
reported entry. The first shift's G_-G_+ rows are dense, so _streamed_entry
forms each row the mask reads, in turn, and stops at the first nonzero entry.
The second shift needs no product: it compares exponents of p move by move.
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
    banded,
    certified_window,
    get_basis,
    move_table,
    transfer_pair_row,
    v_exponent,
    v_int,
    v_pattern,
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
    x, y = p.numerator ** (2 * abs(j)), p.denominator ** (2 * abs(j))  # q^|j| = x/y
    return Fraction(x, y - x) if j > 0 else Fraction(y, x - y)


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
        if not any(r.values()):
            continue  # the usual row of a passing check: cancelled to zeros
        for j in sorted(r):
            if r[j] and readable[w[j]]:
                return _entry_evidence(basis_obj, i, j, Fraction(r[j], den))
    return None


def torus_prefactor(k: int, m: int, l: int, n: int, p: Fraction) -> Fraction:
    """q^{(lm-kn)/2} - q^{(kn-lm)/2}, the coefficient of V^(k+l)_{m+n}."""
    a, b = p.numerator ** abs(l * m - k * n), p.denominator ** abs(l * m - k * n)  # p^|e| = a/b
    return Fraction(a * a - b * b, a * b) if l * m >= k * n else Fraction(b * b - a * a, a * b)


def central_term(k: int, m: int, l: int, n: int, p: Fraction, sign: int = 1) -> Fraction:
    """The identity coefficient of [V^(k)_m, V^(l)_n]: sign * m at k+l = 0 = m+n,
    for the sign the sector realizes, else -pref c(k+l) at m+n = 0, else 0."""
    if k + l == 0 and m + n == 0:
        return Fraction(sign * m)
    if m + n:
        return Fraction(0)
    return -torus_prefactor(k, m, l, n, p) * torus_constant(k + l, p)


def _streamed_entry(mask, basis, den: int, products, linear=()) -> dict | None:
    """The earliest certified nonzero entry of (sum c L R + sum c A)/den
    over the products (L, R, c) and linear terms (A, c), every factor the
    integer rows {i: {j: int}} of an integer form and every c an integer. Only
    the rows whose weight the mask reads are formed, ascending and in turn."""
    readable = [i for w, cols in enumerate(mask) if any(cols) for i in basis.weight_range[w]]

    def row(i):
        acc = {}
        for left, right, c in products:
            for x, v in left.get(i, {}).items():
                v *= c
                for j, u in right.get(x, {}).items():
                    acc[j] = acc[j] + v * u if j in acc else v * u
        for a, c in linear:
            for j, u in a.get(i, {}).items():
                acc[j] = acc[j] + c * u if j in acc else c * u
        return acc
    return _first_entry(readable, row, mask, basis, den)


@lru_cache(maxsize=None)
def _commutator_tables(m: int, n: int, s: int, N: int) -> tuple:
    """What a commutator check of (m, n) reads in the charge-s sector cut at N:
    (window, slots, forward, backward, third, diagonal), certified cells only.

    window is certified_window's for the chains of V_m V_n and V_n V_m. slots
    are the keys i*dim + j of the certified cells any term lands in,
    ascending: by row, then column. forward holds (slot, a, b) for the entries
    a = (i, x) of v_pattern(m) and b = (x, j) of v_pattern(n) with (i, j)
    certified, the paths of V_m V_n; backward those of V_n V_m; third and
    diagonal (slot, c) for the certified entries c = (i, j) of v_pattern(m + n)
    and of the diagonal v_pattern(0). (n, m) shares the table of (m, n)."""
    if m > n:
        window, slots, forward, backward, third, diagonal = _commutator_tables(n, m, s, N)
        return window, slots, backward, forward, third, diagonal
    mask, window = certified_window(N, ((banded(-m), banded(-n)), (banded(-n), banded(-m))))
    dim, w = len(get_basis(N)), get_basis(N).weights

    def paths(x, y):
        ends: dict[int, list[tuple[int, int]]] = {}
        for b, (u, j) in enumerate(v_pattern(y, s, N)):
            ends.setdefault(u, []).append((b, j))
        return [(i * dim + j, a, b) for a, (i, u) in enumerate(v_pattern(x, s, N))
                for b, j in ends.get(u, ()) if mask[w[i]][w[j]]]

    def cells(pattern):
        return [(i * dim + j, c) for c, (i, j) in enumerate(pattern) if mask[w[i]][w[j]]]
    terms = (paths(m, n), paths(n, m), cells(v_pattern(m + n, s, N)), cells(v_pattern(0, s, N)))
    slots = sorted({term[0] for ts in terms for term in ts})
    at = {key: t for t, key in enumerate(slots)}
    return (window, tuple(slots), *(tuple((at[key], *rest) for key, *rest in ts) for ts in terms))


def _product_part(k: int, m: int, l: int, n: int, config: SectorConfig) -> tuple[list, int]:
    """V1 V2 - V2 V1, V1 = V^(k)_m and V2 = V^(l)_n, as integer numerators over
    d1 d2, one per slot of _commutator_tables(m, n), summed along its paths."""
    (v1, d1), (v2, d2) = v_int(k, m, config), v_int(l, n, config)
    _, slots, forward, backward, _, _ = _commutator_tables(m, n, config.s, config.N)
    acc = [0] * len(slots)
    for t, a, b in forward:
        acc[t] += v1[a] * v2[b]
    for t, a, b in backward:
        acc[t] -= v2[a] * v1[b]
    return acc, d1 * d2


def _commutator_entry(product, tables, basis, central: Fraction, third=((), 1),
                      pref=Fraction(0)) -> dict | None:
    """The earliest certified nonzero entry of L/d - pref A3/d3 - central, with
    product = (L, d) from _product_part, tables from _commutator_tables and
    third = (A3, d3) the numerators of V^(k+l)_{m+n} from v_int, over one
    common denominator: the first nonzero slot."""
    (acc, d), (a3, d3), (_, slots, _, _, third_slots, diagonal) = product, third, tables
    den = d * d3 * pref.denominator * central.denominator
    f, h = den // d, den // central.denominator * central.numerator
    g = den // (d3 * pref.denominator) * pref.numerator
    res = [f * v for v in acc]
    if g:
        for t, c in third_slots:
            res[t] -= g * a3[c]
    if h:
        for t, _ in diagonal:
            res[t] -= h
    if not any(res):
        return None
    t = next(t for t, v in enumerate(res) if v)
    return _entry_evidence(basis, *divmod(slots[t], len(basis)), Fraction(res[t], den))


def commutator_check(k: int, m: int, l: int, n: int, config: SectorConfig) -> CheckReport:
    """[V^(k)_m, V^(l)_n] = (A1 A2 - A2 A1)/(d1 d2), on the integer forms Ai/di,
    against pref V^(k+l)_{m+n} + central_term by integer cross-multiplication,
    read on the certified window. At k+l = 0 and m+n = 0 the relation
    degenerates to a pure central term, tried with both signs on one product;
    the realized sign of that constant is reported, not presumed."""
    params = {"k": k, "m": m, "l": l, "n": n, "s": config.s, "l_weight": config.l,
              "p": format_rational(config.p), "N": config.N}
    report = CheckReport("commutator", params, INSUFFICIENT)
    N = config.N
    if max(abs(m), abs(n), abs(m + n)) > N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    tables = _commutator_tables(m, n, config.s, N)
    report.window = tables[0]
    if report.window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    product, b = _product_part(k, m, l, n, config), get_basis(N)
    if k + l == 0 and m + n == 0:
        for sigma in (1, -1):
            central = central_term(k, m, l, n, config.p, sigma)
            if _commutator_entry(product, tables, b, central) is None:
                report.status = PASS
                report.evidence = {"central_sign": sigma} if m else {}
                return report
        report.status = FAIL
        report.evidence = {"worst": _commutator_entry(product, tables, b, Fraction(0)),
                           "reason": "central term matches neither sign"}
        return report
    worst = _commutator_entry(product, tables, b, central_term(k, m, l, n, config.p),
                              v_int(k + l, m + n, config),
                              torus_prefactor(k, m, l, n, config.p))
    report.status = PASS if worst is None else FAIL
    if worst:
        report.evidence = {"worst": worst}
    return report


@lru_cache(maxsize=None)
def _v_rows(k: int, m: int, config: SectorConfig) -> tuple[dict[int, dict[int, int]], int]:
    """v_int(k, m, config) laid out as integer rows {i: {j: value}}, and its den."""
    values, den = v_int(k, m, config)
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in zip(v_pattern(m, config.s, config.N), values):
        rows.setdefault(i, {})[j] = v
    return rows, den


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
    alternating family. The residual G V_L - parity V_R G - (c_L - parity c_R) G,
    with c_L = c(upper) at m = 0 and c_R = c(upper) at m + k = 0 (at most one
    of them is nonzero), is streamed over one denominator from the integer
    rows of G_-G_+ and of the two V factors.
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
    g, d_g = _transfer_pair_rows(config.p, N, "plain" if variant == "G" else "alternating")
    (left, d_l), (right, d_r) = _v_rows(upper, m, config), _v_rows(upper, m + k, config)
    c_g = (c if m == 0 else 0) - parity * (c if m + k == 0 else 0)  # c_L - parity c_R
    den = d_g * d_l * d_r * c_g.denominator
    products = ((g, left, den // (d_g * d_l)), (right, g, -parity * (den // (d_r * d_g))))
    linear = ((g, -c_g.numerator * (den // (d_g * c_g.denominator))),) if c_g else ()
    worst = _streamed_entry(mask, get_basis(N), den, products, linear)
    report.status = PASS if worst is None else FAIL
    report.evidence = {"constant": format_rational(c)}
    if worst:
        report.evidence["worst"] = worst
    return report


def second_shift_check(k: int, m: int, config: SectorConfig) -> CheckReport:
    """q^{W0/2} V^(k)_m q^{-W0/2} = V^(k-m)_m, checked entrywise as
    p^{w(row)-w(col)} V^(k)_m = V^(k-m)_m; exact on the whole window. Each
    side puts sign p^e on each move of move_table, so the exponents are
    compared move by move, a differing pair reported as sign (p^a - p^b).
    The m = 0 member is diagonal and has no moves."""
    params = {"k": k, "m": m, "s": config.s, "p": format_rational(config.p), "N": config.N}
    report = CheckReport("second_shift", params, INSUFFICIENT)
    if abs(m) > config.N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    # the band of a shift |m| <= N always holds pairs, so the window is never empty
    mask, report.window = certified_window(config.N, band=-m)
    w0, p = w0_diag(config.s, config.N), config.p
    residual: dict[int, dict[int, Fraction]] = {}
    for i, j, sign, src in move_table(m, config.s, config.N) if m else ():
        a, b = w0[i] - w0[j] + v_exponent(k, m, src), v_exponent(k - m, m, src)
        if a != b:
            residual.setdefault(i, {})[j] = sign * (p ** a - p ** b)
    worst = _first_entry(residual, residual.get, mask, get_basis(config.N))
    report.status = PASS if worst is None else FAIL
    if worst:
        report.evidence = {"worst": worst}
    return report
