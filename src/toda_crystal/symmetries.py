"""Exact checks of the quantum-torus commutators.

A check compares V^(k)_m V^(l)_n - V^(l)_n V^(k)_m with the relation entry by
entry on the window the split rule certifies, and reports the earliest
offending entry, by row, then column, on failure. It writes the chains of the
two products from its own indices (V^(k)_m is banded(-m)) and asks
checks.certified_window for one mask.

A commutator check is its certificate. An entry of V^(k)_m is a Laurent
polynomial in x = p^k, read off the p-free terms of fock.v_terms, and
_relation(m, n) is the package's one statement of [V_m(x), V_n(y)] =
P V_{m+n}(xy) + G. _certificate forms product - P third - G ones on every
certified cell as integer Laurent polynomials, once per (m, n) with m <= n,
for every p, k and l. An empty residual is a pass, with nothing evaluated at
the point; otherwise the check evaluates the cached residual at x = p^k,
y = p^l and reports its least nonzero cell. A check with m > n reads the
(n, m) certificate at (p^l, p^k), negated, since the commutator and P and G
all change sign under the swap. The closed forms of P and G in Fraction are
the test reference, in tests/oracles.py.

Only the commutator suite imports this module. It reads the report records
and the split rule from `checks` and the terms from `fock`, and nothing of
the transfer exponentials or of the shift checks (`transfer`, `shifts`), so
`verify commutators` compiles neither.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .checks import (FAIL, INSUFFICIENT, PASS, CheckReport, banded, certified_window,
                     entry_evidence, p_label)
from .fock import SectorConfig, get_basis, v_terms


@lru_cache(maxsize=None)
def _relation(m: int, n: int) -> tuple:
    """The terms ((t, a, b), c) of c x^a y^b of [V_m(x), V_n(y)] = P V_{m+n}(xy)
    + G: t = 0 for P = y^m x^-n - x^n y^-m, t = 1 for G, which is 0 unless
    m + n = 0, where -P q^j/(1 - q^j) with q^j = (xy)^2 is the geometric sum
    sign(m) sum_{i<|m|} (xy)^(2-|m|+2i), m at xy = 1. The checks only ever
    ask it for m <= n."""
    return (((0, -n, m), 1), ((0, n, -m), -1), *(
        ((1, e, e), (m > 0) - (m < 0)) for e in range(2 - abs(m), abs(m) + 1, 2) if m + n == 0))


def _at(terms, k: int, l: int, p: Fraction) -> tuple[dict[int, int], int]:
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
def _certificate(m: int, n: int, s: int, N: int, relation: tuple) -> tuple[int, dict]:
    """The window of the commutator checks of (m, n) and (n, m), m <= n, and
    the nonzero terms {(slot, a, b): c} of product - P third - G ones in
    _commutator_tables, with P and G the terms of relation: empty when the
    relation holds on every certified cell as Laurent polynomials."""
    window, product, third, ones = _commutator_tables(m, n, s, N)
    residual = dict(product)
    for (t, a, b), c in relation:
        for (slot, e, f), d in (ones if t else third).items():
            residual[slot, a + e, b + f] = residual.get((slot, a + e, b + f), 0) - c * d
    return window, {key: c for key, c in residual.items() if c}


def commutator_check(k: int, m: int, l: int, n: int, config: SectorConfig) -> CheckReport:
    """[V^(k)_m, V^(l)_n] = P V^(k+l)_{m+n} + G on the certified window, with
    P and G from _relation: the check is the certificate of (min(m, n),
    max(m, n)), read at (p^k, p^l), or swapped at (p^l, p^k) and negated for
    m > n. A pass reads the cached certificate alone; a failure evaluates its
    residual at the point and reports the least nonzero cell. At k+l = 0 and
    m+n = 0 the prefactor vanishes and the relation degenerates to the central
    term m, whose sign the certificate fixes; a pass with m != 0 reports that
    sign, central_sign 1."""
    params = {"k": k, "m": m, "l": l, "n": n, "s": config.s, "l_weight": config.l,
              "p": p_label(config), "N": config.N}
    report = CheckReport("commutator", params, INSUFFICIENT)
    N = config.N
    if max(abs(m), abs(n), abs(m + n)) > N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    (lo, x), (hi, y), sign = ((m, k), (n, l), 1) if m <= n else ((n, l), (m, k), -1)
    report.window, residual = _certificate(lo, hi, config.s, N, _relation(lo, hi))
    if report.window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    values, den = _at(residual.items(), x, y, config.p) if residual else ({}, 1)
    slot = min((t for t, v in values.items() if v), default=None)
    worst = None if slot is None else entry_evidence(
        get_basis(N), *divmod(slot, len(get_basis(N))), Fraction(sign * values[slot], den))
    report.status = PASS if worst is None else FAIL
    if worst:
        report.evidence = {"worst": worst}
    elif m and k + l == 0 and m + n == 0:
        report.evidence = {"central_sign": 1}
    return report
