"""Exact checks of the quantum-torus commutators and the shift symmetries.

Each check compares two operator products entry by entry on the window the
split rule certifies, and reports the earliest offending entry, by row, then
column, on failure. A check writes the chain of each product it compares from
its own indices (V^(k)_m is banded(-m), G_- and G_+ RAISING and LOWERING) and
asks certified_window for one mask. Each residual is integer numerators over
one common denominator, so only a reported entry becomes a Fraction. The
commutators are proved once per (m, n), for every p, k and l: an entry of
V^(k)_m is a Laurent polynomial in x = p^k, and _certificate checks
[V_m(x), V_n(y)] = P V_{m+n}(xy) + G on every certified cell as integer
Laurent polynomials, so a check only compares its two relation values with P
and G at its point; if they differ, or the certificate fails, it evaluates
the cells there and reports the first nonzero one; the certificate reads the
p-free terms of fock.v_terms. The first shift's G_-G_+ is the dense integer
fock.pair_table and its V's are the integer fock.v_rows; _sandwich_entry, the
kernel the intertwining check of identities shares, forms c T + f L T + T f' R
on it, row by row, and stops at the first nonzero entry. The second shift
compares the exponents of fock.v_terms term by term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import format_rational
from .fock import (LOWERING, RAISING, SectorConfig, banded, certified_window, get_basis,
                   pair_table, v_rows, v_terms, w0_diag)

PASS = "pass"
FAIL = "fail"
INSUFFICIENT = "insufficient_window"


class CheckReport:
    """One report line's content, filled in as a check runs."""

    __slots__ = ("check", "params", "status", "evidence", "window")

    def __init__(self, check: str, params: dict, status: str, evidence=None, window=0):
        self.check, self.params, self.status, self.window = check, params, status, window
        self.evidence = {} if evidence is None else evidence

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self) -> dict:
        return {"check": self.check, "params": self.params, "status": self.status,
                "evidence": {**self.evidence, "window": self.window}}


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


def central_term(k: int, m: int, l: int, n: int, p: Fraction) -> Fraction:
    """The identity coefficient of [V^(k)_m, V^(l)_n]: m at k+l = 0 = m+n, the
    certificate's G at xy = 1, else -pref c(k+l) at m+n = 0, else 0."""
    if k + l == 0 and m + n == 0:
        return Fraction(m)
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
def _relation(m: int, n: int) -> tuple:
    """The terms ((t, a, b), c) of c x^a y^b of [V_m(x), V_n(y)] = P V_{m+n}(xy)
    + G: t = 0 for P = y^m x^-n - x^n y^-m, t = 1 for G, which is 0 unless
    m + n = 0, where -P q^j/(1 - q^j) with q^j = (xy)^2 is the geometric sum
    sign(m) sum_{i<|m|} (xy)^(2-|m|+2i)."""
    return (((0, -n, m), 1), ((0, n, -m), -1), *(
        ((1, e, e), (m > 0) - (m < 0)) for e in range(2 - abs(m), abs(m) + 1, 2) if m + n == 0))


def _at(terms: tuple | list, k: int, l: int, p: Fraction) -> tuple[dict[int, int], int]:
    """The terms ((t, a, b), c) of c x^a y^b at x = p^k and y = p^l, summed by
    t, as integer numerators over (uv)^h, p = u/v and h the largest |ka + lb|."""
    u, v = p.numerator, p.denominator
    h = max((abs(k * a + l * b) for (_, a, b), _ in terms), default=0)
    sums: dict[int, int] = {}
    for (t, a, b), c in terms:
        sums[t] = sums.get(t, 0) + c * u ** (h + k * a + l * b) * v ** (h - k * a - l * b)
    return sums, (u * v) ** h


def _commutator_tables(m: int, n: int, s: int, N: int) -> tuple[int, dict, dict, dict]:
    """(window, product, third, ones) of a commutator check of (m, n), for
    every p, k and l: certified_window's window for V_m V_n and V_n V_m, and
    the terms {(slot, a, b): c} of c x^a y^b on its cells (i, j), slot =
    i*dim + j, of V_m(x) V_n(y) - V_n(y) V_m(x), V_{m+n}(xy) and 1."""
    mask, window = certified_window(N, ((banded(-m), banded(-n)), (banded(-n), banded(-m))))
    dim, w = len(get_basis(N)), get_basis(N).weights
    product: dict[tuple[int, int, int], int] = {}
    for left, right, sign in ((m, n, 1), (n, m, -1)):
        right_rows = v_terms(right, s, N)
        for i, row in v_terms(left, s, N).items():
            for u, a, c in row:
                for j, b, d in right_rows.get(u, ()):
                    if mask[w[i]][w[j]]:
                        key = (i * dim + j, a, b) if sign > 0 else (i * dim + j, b, a)
                        product[key] = product.get(key, 0) + sign * c * d
    third = {(i * dim + j, e, e): c for i, row in v_terms(m + n, s, N).items()
             for j, e, c in row if mask[w[i]][w[j]]}
    ones = {(i * (dim + 1), 0, 0): 1 for i in range(dim) if mask[w[i]][w[i]]}
    return window, product, third, ones


@lru_cache(maxsize=None)
def _certificate(m: int, n: int, s: int, N: int) -> tuple[int, bool]:
    """The window of the commutator checks of (m, n) and (n, m), m <= n, and
    whether product = P third + G ones holds in _commutator_tables as Laurent
    polynomials; that of (n, m) at (x, y) is minus that of (m, n) at (y, x)."""
    window, product, third, ones = _commutator_tables(m, n, s, N)
    residual = dict(product)
    for (t, a, b), c in _relation(m, n):
        for (slot, e, f), d in (ones if t else third).items():
            residual[slot, a + e, b + f] = residual.get((slot, a + e, b + f), 0) - c * d
    return window, not any(residual.values())


def _residual_entry(k: int, m: int, l: int, n: int, config: SectorConfig, pref: Fraction,
                    central: Fraction) -> dict | None:
    """The least certified nonzero entry of [V^(k)_m, V^(l)_n] - pref V^(k+l)_{m+n}
    - central 1, or None: at once if the certificate holds and pref and central
    are P and G at x = p^k, y = p^l, else off the tables, over one denominator."""
    s, N, p = config.s, config.N, config.p
    at, den = _at(_relation(m, n), k, l, p)
    agree = all(f.numerator * den == at.get(t, 0) * f.denominator
                for t, f in ((0, pref), (1, central)))
    if agree and _certificate(min(m, n), max(m, n), s, N)[1]:
        return None
    _, *tables = _commutator_tables(m, n, s, N)
    (a, b), (c, e) = (pref.numerator, pref.denominator), (central.numerator, central.denominator)
    residual, d = _at([(key, f * v) for table, f in zip(tables, (b * e, -a * e, -c * b))
                       for key, v in table.items()], k, l, p)  # over d b e
    t = min((t for t, v in residual.items() if v), default=None)
    return None if t is None else _entry_evidence(
        get_basis(N), *divmod(t, len(get_basis(N))), Fraction(residual[t], d * b * e))


def commutator_check(k: int, m: int, l: int, n: int, config: SectorConfig) -> CheckReport:
    """[V^(k)_m, V^(l)_n] = torus_prefactor V^(k+l)_{m+n} + central_term on
    the certified window. At k+l = 0 and m+n = 0 the prefactor vanishes and
    the relation degenerates to the central term m, whose sign the certificate
    fixes; a pass with m != 0 reports that sign, central_sign 1."""
    params = {"k": k, "m": m, "l": l, "n": n, "s": config.s, "l_weight": config.l,
              "p": _p_label(config), "N": config.N}
    report = CheckReport("commutator", params, INSUFFICIENT)
    N, p = config.N, config.p
    if max(abs(m), abs(n), abs(m + n)) > N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    report.window = _certificate(min(m, n), max(m, n), config.s, N)[0]
    if report.window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    worst = _residual_entry(k, m, l, n, config, torus_prefactor(k, m, l, n, p),
                            central_term(k, m, l, n, p))
    report.status = PASS if worst is None else FAIL
    if worst:
        report.evidence = {"worst": worst}
    elif m and k + l == 0 and m + n == 0:
        report.evidence = {"central_sign": 1}
    return report


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
    (v_l, d_l), (v_r, d_r) = v_rows(upper, m, config), v_rows(upper, m + k, config)
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
    side puts c p^{k' e} on each term c x^e of fock.v_terms, k' = k or k - m,
    so the exponents are compared term by term, a differing pair reported as
    c (p^a - p^b). At m = 0 the row and column agree, and so do k e and k' e."""
    params = {"k": k, "m": m, "s": config.s, "p": _p_label(config), "N": config.N}
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
    worst = worst and _entry_evidence(get_basis(config.N), *worst)
    report.status = PASS if worst is None else FAIL
    if worst:
        report.evidence = {"worst": worst}
    return report
