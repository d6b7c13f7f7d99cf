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
reported entry. The first shift's G_-G_+ is the dense integer fock.pair_table;
_sandwich_entry, the kernel toda's intertwining check shares, forms
c T + f L T + T f' R on it, row by row, and stops at the first nonzero entry.
The second shift compares exponents of p move by move.
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
    banded,
    certified_window,
    get_basis,
    move_table,
    pair_table,
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


_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _p_label(config: SectorConfig) -> str:
    """The p of a report's params, formatted once per config."""
    return format_rational(config.p)


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
        return _ZERO
    return -torus_prefactor(k, m, l, n, p) * torus_constant(k + l, p)


def _sandwich_entry(table, left, right, diag: int, mask, basis, f_left: int = 1,
                    f_right: int = 1) -> tuple[int, int, int] | None:
    """The earliest nonzero entry (i, j, v) of diag T + f_left L T + T f_right R
    inside the certified_window mask, by row, then column, or None: T a dense
    integer matrix (a list of rows), L and R integer rows {i: {j: value}},
    diag, the scales and so v integers, over the caller's denominator. Only the
    rows the mask reads are formed, in turn, each up to its last live column."""
    w, ranges = basis.weights, basis.weight_range
    cut: dict[int, list] = {}  # by stop, the entries (x, j, u) of R with j < stop
    for i, row in enumerate(table):
        live = mask[w[i]]
        if not any(live):
            continue
        stop = ranges[max(n for n, x in enumerate(live) if x)].stop
        if stop not in cut:
            cut[stop] = [(x, j, f_right * u) for x, r in right.items() for j, u in r.items()
                         if j < stop]
        acc = [diag * t for t in row[:stop]] if diag else [0] * stop
        for x, u in left.get(i, {}).items():
            u *= f_left
            acc = [a + u * t for a, t in zip(acc, table[x])]
        for x, j, u in cut[stop]:
            acc[j] += row[x] * u
        j = next((j for j, v in enumerate(acc) if v and live[w[j]]), None)
        if j is not None:
            return i, j, acc[j]
    return None


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
              "p": _p_label(config), "N": config.N}
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
    """V^(k)_m as integer rows {i: {j: numerator}} and v_int's denominator,
    laid out along v_pattern."""
    values, den = v_int(k, m, config)
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in zip(v_pattern(m, config.s, config.N), values):
        rows.setdefault(i, {})[j] = v
    return rows, den


def first_shift_check(variant: str, k: int, m: int, config: SectorConfig) -> CheckReport:
    """Intertwining form of the first shift symmetry.

    Plain variant: G_-G_+ (V^(k)_m - d_{m,0} c(k)) = (-1)^k (V^(k)_{m+k} - d_{m+k,0} c(k)) G_-G_+.
    Alternating variant: same with upper index -k, no parity factor, and
    constant c(-k); c(j) = q^j/(1-q^j) throughout. The constant pattern
    c(-k) = -1/(1-q^k) is what the locked conventions realize for the
    alternating family. The residual G V_L - parity V_R G - (c_L - parity c_R) G,
    with c_L = c(upper) at m = 0 and c_R = c(upper) at m + k = 0 (at most one
    of them is nonzero), is read by _sandwich_entry over one denominator from
    the integer table of G_-G_+ and the integer rows of the two V factors.
    """
    if k < 1:
        raise ValueError("first shift symmetries need k >= 1")
    if variant not in ("G", "Gprime"):
        raise ValueError(f"unknown variant {variant!r}")
    params = {"variant": variant, "k": k, "m": m, "s": config.s,
              "p": _p_label(config), "N": config.N}
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
    (v_l, d_l), (v_r, d_r) = _v_rows(upper, m, config), _v_rows(upper, m + k, config)
    c_g = (c if m == 0 else 0) - parity * (c if m + k == 0 else 0)  # c_L - parity c_R
    d_c = c_g.denominator
    # over d_g d_l d_r d_c, f_left V_R T is -parity V_R G, T f_right V_L is
    # G V_L and diag T is -c_g G
    entry = _sandwich_entry(table, v_r, v_l, -c_g.numerator * d_l * d_r, mask, get_basis(N),
                            -parity * d_l * d_c, d_r * d_c)
    worst = entry and _entry_evidence(get_basis(N), *entry[:2],
                                      Fraction(entry[2], d_g * d_l * d_r * d_c))
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
    params = {"k": k, "m": m, "s": config.s, "p": _p_label(config), "N": config.N}
    report = CheckReport("second_shift", params, INSUFFICIENT)
    if abs(m) > config.N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    # the band of a shift |m| <= N always holds pairs, so the window is never empty
    mask, report.window = certified_window(config.N, band=-m)
    w0, p, w = w0_diag(config.s, config.N), config.p, get_basis(config.N).weights
    worst = None
    for i, j, sign, src in move_table(m, config.s, config.N) if m else ():
        a, b = w0[i] - w0[j] + v_exponent(k, m, src), v_exponent(k - m, m, src)
        if a != b and mask[w[i]][w[j]] and (worst is None or (i, j) < worst[:2]):
            worst = i, j, sign * (p ** a - p ** b)
    worst = worst and _entry_evidence(get_basis(config.N), *worst)
    report.status = PASS if worst is None else FAIL
    if worst:
        report.evidence = {"worst": worst}
    return report
