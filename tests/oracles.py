"""Independent reference computations used to pin expected test values.

Each oracle recomputes its target through a different formula or route than
the implementation under test. The closed-form oracles use nothing of the
package beyond partitions and series. fraction_json_dict is the export form
as the package wrote it before truncated.export_dict, a label per coefficient
(monomial_label) and the str of each Fraction, in an order sorted by key:
the reference for that formatter, and series_from_json_dict reads an export
back into a TruncatedSeries, for the fixture tests. FractionSeries is
TruncatedSeries with the Fraction ring arithmetic, and series_exp, series_partial, the sign flips
alternate_t_signs and negate_hatted, substitute_difference, merge_into_t,
first_difference, first_nonzero and linear_form act on it: the series
arithmetic the package replaced with the integer GradedSeries of its tau
side; main_identity_rhs, prev_identity_rhs and bilinear_residual are the
series checks' right-hand sides and residual on it. v_op and j_op view
shifts.v_rows as SectorOperators, and identity, get, add, sub, scale, matmul, transpose,
scale_rows and scale_cols are the Fraction operator arithmetic that the
package replaced with integer numerators formed inside its checks. The
Maya-diagram primitives occupied, count_above and move_particle work on lists
of levels, where the package works on bit masks; move_table_by_moves is
fock.move_table, at one charge, built from them. The fermion-move oracles build operators one
psi_a psi*_b move at a time from the same primitives: bilinear_diagonal the
diagonal ones, v_op_by_bilinears every V^(k)_m. transfer_weights are the
Fraction couplings of the transfer exponentials and integer_rows puts
rational rows in integer form, together the reference for the integer rows of
transfer._y_rows (the couplings times k). dense_exp is the transfer
exponential as a dense Fraction matrix, its exponent summed here from j_op and its series taken
by matrix products; dense_transfer and dense_pair give G+- and G_-G_+ from it,
the reference for the rows of transfer.minus_rows, the pushes of
transfer.transfer_row and the dots of transfer.pair_dots, all three of
which the package forms by the weight recurrence, with no power series, and
for the alternating family, which the package reads off the plain one
relabelled by conjugate partitions: conjugation_by_cells is that relabelling
built from the diagram cells, and relabelled applies it to a matrix.
fermionic_expectation is the partition function as a
vacuum expectation value of those dense exponentials, the fermionic route that
the closed-form partition sum of models must match, and
fraction_partition_sum is that partition sum with every monomial of each
exp(linear form) a Fraction, the reference for the integer walk that the
package replaced it with. DenseGraded keeps the dense route to the tau
vectors, which the package pushes, and to the graded blocks g_n, which the
package reads off its integer pair tables; fraction_residual_entry is the
intertwining scan by grade dots of Fraction vectors, and
fraction_intertwining_residual the check on it, which the package replaced
with its sandwich kernel on the integer blocks;
torus_prefactor and central_term the closed forms of the commutator's
prefactor and central term, the reference that symmetries._relation, the
package's one statement of the relation, is tested against, and
relation_values that relation read in Fraction as the package's checks read
it, the (n, m) terms swapped and negated for m > n;
fraction_commutator_check and fraction_first_shift_check the two operator
checks on Fraction entries (the former with relation_values, the latter with
the dense pair) that the package replaced with its certificate and with
integer residuals, fraction_second_shift_check the conjugation
by Fraction powers of p that the package replaced with exponents,
window_size_by_pairs the weight-pair count that checks.certified_window
replaced, and split_certified and window_by_pairs the split rule applied to one weight
pair at a time, which certified_window replaced with bounds walked once per
weight.
_scan_certified_residual reads an operator residual against a mask by the
least certified nonzero (row, col), apart from the package's row-by-row scan.
Masks are asked of certified_window with the chains of the products compared,
written here from the indices as the checks write them: residual_mask gives
J_k g_n and g_n J_{right_k} the chains (banded(-k), FULL) and
(FULL, banded(-right_k)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial

from itertools import product
from typing import Mapping

from toda_crystal import Partition, SeriesContext, TruncatedSeries, enumerate_partitions
from toda_crystal import identities, shifts, symmetries
from toda_crystal.algebra import format_rational, parse_rational
from toda_crystal.checks import (
    FAIL,
    FULL,
    INSUFFICIENT,
    LOWERING,
    PASS,
    RAISING,
    CheckReport,
    banded,
    certified_window,
    entry_evidence,
)
from toda_crystal.fock import Basis, SectorConfig, apply_row, get_basis, w0_diag
from toda_crystal.models import (
    charge_offset,
    l0_eigenvalue,
    phi_potential,
    schur_qrho,
    w0_eigenvalue,
)
from toda_crystal.shifts import v_rows
from toda_crystal.toda import GradedOperator, _time_rows
from toda_crystal.truncated import parse_monomial_label


def _label(names: tuple[str, ...], key: tuple[int, ...]) -> str:
    toks = [f"{names[i]}^{e}" for i, e in enumerate(key) if e]
    return " ".join(toks) if toks else "1"


def canonical_keys(coeffs: Mapping[tuple[int, ...], Fraction]):
    return sorted(coeffs, key=lambda t: (sum(t), t))


def monomial_label(ctx: SeriesContext, key: tuple[int, ...]) -> str:
    return _label(ctx.var_names(), key)


def fraction_json_dict(f: TruncatedSeries) -> dict:
    """The export form of f as the package wrote it before truncated.export_dict:
    the keys in canonical order by a keyed sort, a label built for each, and
    each value the str of its Fraction."""
    names, coeffs = f.ctx.var_names(), f.coeffs
    return {
        "context": {"K": f.ctx.K, "D": f.ctx.D, "NQ": f.ctx.NQ},
        "coefficients": {_label(names, key): str(coeffs[key]) for key in canonical_keys(coeffs)},
    }


def series_from_json_dict(data: dict) -> TruncatedSeries:
    c = data["context"]
    ctx = SeriesContext(int(c["K"]), int(c["D"]), int(c["NQ"]))
    coeffs = {
        parse_monomial_label(ctx, label): parse_rational(val)
        for label, val in data["coefficients"].items()
    }
    return TruncatedSeries(ctx, coeffs)


class FractionSeries(TruncatedSeries):
    """TruncatedSeries with the Fraction ring arithmetic the package computed
    with before its tau side moved to the integer GradedSeries: the reference
    for that form. An operand may be a plain TruncatedSeries, an int or a
    Fraction; results are FractionSeries, on the meet of the contexts."""

    __slots__ = ()

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def constant(cls, ctx, value):
        return cls(ctx, {ctx.zero_key(): Fraction(value)})

    @classmethod
    def one(cls, ctx):
        return cls.constant(ctx, 1)

    @classmethod
    def monomial(cls, ctx, key, value=1):
        return cls(ctx, {tuple(key): Fraction(value)})

    @classmethod
    def variable(cls, ctx, name: str):
        key = [0] * ctx.nvars
        key[ctx.var_index(name)] = 1
        return cls(ctx, {tuple(key): Fraction(1)})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self == FractionSeries.constant(self.ctx, other)
        return super().__eq__(other)

    __hash__ = None

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs.get(self.ctx.zero_key(), Fraction(0))

    def truncate_to(self, ctx: SeriesContext) -> "FractionSeries":
        return FractionSeries(ctx, self.coeffs)

    def _pair(self, other):
        if isinstance(other, TruncatedSeries):
            tgt = self.ctx.meet(other.ctx)
            return self.truncate_to(tgt), FractionSeries(tgt, other.coeffs)
        if isinstance(other, (int, Fraction)):
            return self, FractionSeries.constant(self.ctx, other)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        out = dict(a.coeffs)
        for key, val in b.coeffs.items():
            new = out.get(key, Fraction(0)) + val
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return FractionSeries(a.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return FractionSeries(self.ctx, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return FractionSeries(self.ctx, {k: v * c for k, v in self.coeffs.items()} if c else {})
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        ctx = a.ctx
        terms_b = [(k, v, k[0], sum(k[1:])) for k, v in b.coeffs.items()]
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, v1 in a.coeffs.items():
            q1, d1 = k1[0], sum(k1[1:])
            for k2, v2, q2, d2 in terms_b:
                if q1 + q2 > ctx.NQ or d1 + d2 > ctx.D:
                    continue
                key = tuple(x + y for x, y in zip(k1, k2))
                new = out.get(key, Fraction(0)) + v1 * v2
                if new:
                    out[key] = new
                else:
                    del out[key]
        return FractionSeries(ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined for truncated series")
        out = FractionSeries.one(self.ctx)
        for _ in range(n):
            out = out * self
        return out


def fraction_series(f: TruncatedSeries) -> FractionSeries:
    """f with the oracle arithmetic, sharing its coefficients."""
    return FractionSeries.trusted(f.ctx, f.coeffs)


def series_exp(f: TruncatedSeries) -> FractionSeries:
    """exp(f) as a terminating sum; requires a vanishing constant term."""
    f = fraction_series(f)
    if f.constant_term:
        raise ValueError("series_exp needs a zero constant term")
    acc = term = FractionSeries.one(f.ctx)
    # every monomial of f has positive combined degree, so f^n dies at
    # n > D + NQ
    for n in range(1, f.ctx.D + f.ctx.NQ + 2):
        term = term * f * Fraction(1, n)
        if not term:
            break
        acc = acc + term
    return acc


def series_partial(f: TruncatedSeries, var: str) -> FractionSeries:
    """Formal partial derivative; the result context has the relevant cap
    lowered by one."""
    idx = f.ctx.var_index(var)
    if idx == 0:
        new_ctx = SeriesContext(f.ctx.K, f.ctx.D, max(f.ctx.NQ - 1, 0))
    else:
        new_ctx = SeriesContext(f.ctx.K, max(f.ctx.D - 1, 0), f.ctx.NQ)
    out = {}
    for key, val in f.coeffs.items():
        e = key[idx]
        if e:
            nk = list(key)
            nk[idx] = e - 1
            out[tuple(nk)] = val * e
    return FractionSeries(new_ctx, out)


def _flip_signs(f: TruncatedSeries, indices: range) -> FractionSeries:
    """Substitute var -> -var for the variables at the key positions in
    indices: a coefficient changes sign when their exponents sum to an odd
    number."""
    return FractionSeries.trusted(f.ctx, {
        key: -val if sum(key[i] for i in indices) % 2 else val
        for key, val in f.coeffs.items()})


def alternate_t_signs(f: TruncatedSeries) -> FractionSeries:
    """t_k -> (-1)^k t_k, i.e. the substitution (-t_1, t_2, -t_3, ...)."""
    return _flip_signs(f, range(1, f.ctx.K + 1, 2))


def negate_hatted(f: TruncatedSeries) -> FractionSeries:
    """th_k -> -th_k for every k."""
    return _flip_signs(f, range(f.ctx.K + 1, 2 * f.ctx.K + 1))


def substitute_difference(f: TruncatedSeries) -> FractionSeries:
    """Substitute t_k -> t_k - th_k, monomial by monomial: t^a expands
    binomially to prod_k sum_j C(a_k, j) (-1)^j t_k^(a_k - j) th_k^j."""
    K = f.ctx.K
    out = {}
    for key, val in f.coeffs.items():
        if any(key[K + 1:]):
            raise ValueError("substitute_difference expects a series in the t family only")
        a = key[1:K + 1]
        for j in product(*(range(e + 1) for e in a)):
            c = val * math.prod(math.comb(e, i) for e, i in zip(a, j))
            out[(key[0], *(e - i for e, i in zip(a, j)), *j)] = -c if sum(j) % 2 else c
    return FractionSeries(f.ctx, out)


def first_difference(f: TruncatedSeries, g: TruncatedSeries):
    """Earliest monomial (canonical order) where two series differ, as
    (label, f_value, g_value); None when they agree on the common context."""
    ctx = f.ctx.meet(g.ctx)
    fa, ga = FractionSeries(ctx, f.coeffs), FractionSeries(ctx, g.coeffs)
    for key in canonical_keys(set(fa.coeffs) | set(ga.coeffs)):
        va = fa.coeffs.get(key, Fraction(0))
        vb = ga.coeffs.get(key, Fraction(0))
        if va != vb:
            return monomial_label(ctx, key), va, vb
    return None


def linear_form(ctx: SeriesContext, t_coeffs: Mapping[int, Fraction] | None = None,
                th_coeffs: Mapping[int, Fraction] | None = None) -> FractionSeries:
    """sum_k a_k t_k + sum_k b_k th_k for k = 1..K."""
    out = {}
    for family, coeffs in (("t", t_coeffs), ("th", th_coeffs)):
        for k, c in (coeffs or {}).items():
            key = [0] * ctx.nvars
            key[ctx.var_index(f"{family}{k}")] = 1
            out[tuple(key)] = Fraction(c)
    return FractionSeries(ctx, out)


def first_nonzero(f: TruncatedSeries):
    """Earliest nonzero monomial (canonical order) as (label, value); None for zero."""
    if not f.coeffs:
        return None
    key = min(f.coeffs, key=lambda t: (sum(t), t))
    return monomial_label(f.ctx, key), f.coeffs[key]


def merge_into_t(f: TruncatedSeries, c) -> FractionSeries:
    """Substitute t_k -> c t_k and th_k -> c t_k: the monomial (Q, a, b) goes
    to (Q, a + b, 0) with the factor c^{|a| + |b|}."""
    K = f.ctx.K
    out: dict[tuple[int, ...], Fraction] = {}
    for key, val in f.coeffs.items():
        a, b = key[1:K + 1], key[K + 1:]
        nk = (key[0],) + tuple(x + y for x, y in zip(a, b)) + (0,) * K
        out[nk] = out.get(nk, Fraction(0)) + val * Fraction(c) ** (sum(a) + sum(b))
    return FractionSeries(f.ctx, out)


def main_identity_rhs(params, tau: TruncatedSeries) -> FractionSeries:
    """exp(sum_k c(k) t_k + c(-k) th_k) tau'(-t_1, t_2, ..., -th_1, -th_2, ...),
    c(j) = q^j/(1-q^j), by the Fraction arithmetic."""
    K, p = params.ctx.K, params.p
    pref = series_exp(linear_form(params.out_ctx,
                                  {k: shifts.torus_constant(k, p) for k in range(1, K + 1)},
                                  {k: shifts.torus_constant(-k, p) for k in range(1, K + 1)}))
    return pref * negate_hatted(alternate_t_signs(tau))


def prev_identity_rhs(params, tau: TruncatedSeries) -> FractionSeries:
    """exp(sum_k c(k) t_k) q^{-s(s+1)(2s+1)/6} tau(-t_1, t_2, ...) by the Fraction
    arithmetic, for the 'left' form of the previous-model tau."""
    K, p, s = params.ctx.K, params.p, params.s
    pref = series_exp(linear_form(params.out_ctx,
                                  {k: shifts.torus_constant(k, p) for k in range(1, K + 1)}))
    return pref * alternate_t_signs(tau) * p ** (-(s * (s + 1) * (2 * s + 1)) // 3)


def bilinear_residual(center, up, down, c) -> FractionSeries:
    """tau tau_{t1 th1} - tau_{t1} tau_{th1} - c tau_+ tau_- by the Fraction arithmetic."""
    d1 = series_partial(center, "t1")
    return (fraction_series(center) * series_partial(d1, "th1")
            - d1 * series_partial(center, "th1") - fraction_series(up) * down * c)


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the Euler pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def kappa_by_cells(mu: Partition) -> int:
    """kappa as twice the total content sum over diagram cells."""
    return 2 * sum(j - i for i, j in mu.cells())


def hooks_by_grid(mu: Partition) -> tuple[int, ...]:
    """Hook lengths from an explicit boolean Young diagram."""
    rows = list(mu.parts)
    hooks = []
    for i, m in enumerate(rows):
        for j in range(m):
            arm = m - j - 1
            leg = sum(1 for r in rows[i + 1:] if r > j)
            hooks.append(arm + leg + 1)
    return tuple(sorted(hooks, reverse=True))


def exact_det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction Gaussian elimination with row swaps."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def h_principal(n: int, p: Fraction) -> Fraction:
    """Complete homogeneous h_n at the alphabet (p, p^3, p^5, ...):
    geometric tails sum to p^n / prod_{j<=n} (1 - p^{2j})."""
    if n < 0:
        return Fraction(0)
    out = Fraction(p) ** n
    for j in range(1, n + 1):
        out /= 1 - Fraction(p) ** (2 * j)
    return out


def schur_jacobi_trudi(mu: Partition, p: Fraction) -> Fraction:
    """Principal specialization via det(h_{mu_i - i + j})."""
    ell = len(mu.parts)
    if ell == 0:
        return Fraction(1)
    mat = [[h_principal(mu.parts[i] - (i + 1) + (j + 1), p) for j in range(ell)]
           for i in range(ell)]
    return exact_det(mat)


@dataclass
class SectorOperator:
    """Sparse charge-preserving Fraction operator, rows[i][j] = <lambda_i, s| O |mu_j, s>,
    with no zero entry and no empty row; operators may share rows."""

    config: SectorConfig
    basis: Basis
    rows: dict


@lru_cache(maxsize=None)
def v_op(k: int, m: int, config) -> SectorOperator:
    """shifts.v_rows as a Fraction operator."""
    rows, den = v_rows(k, m, config)
    return SectorOperator(config, get_basis(config.N), {
        i: {j: Fraction(v, den) for j, v in row.items()} for i, row in rows.items()})


j_op = partial(v_op, 0)  # the current mode J_k = V^(0)_k


def identity(config) -> SectorOperator:
    b = get_basis(config.N)
    return SectorOperator(config, b, {i: {i: 1} for i in range(len(b))})


def get(op: SectorOperator, i: int, j: int):
    return op.rows.get(i, {}).get(j, Fraction(0))


def _check_compatible(a: SectorOperator, b: SectorOperator):
    if a.config != b.config:
        raise ValueError(f"incompatible configs {a.config} vs {b.config}")


def _combine(a: SectorOperator, b: SectorOperator, sign: int) -> SectorOperator:
    """a + sign * b, with the entries that cancel dropped."""
    _check_compatible(a, b)
    rows = {i: dict(row) for i, row in a.rows.items()}
    for i, row in b.rows.items():
        tgt = rows.setdefault(i, {})
        for j, v in row.items():
            tgt[j] = tgt.get(j, 0) + sign * v
            if not tgt[j]:
                del tgt[j]
        if not tgt:
            del rows[i]
    return SectorOperator(a.config, a.basis, rows)


add, sub = partial(_combine, sign=1), partial(_combine, sign=-1)


def scale(op: SectorOperator, c) -> SectorOperator:
    return SectorOperator(op.config, op.basis, {i: {j: c * v for j, v in row.items()}
                                                for i, row in op.rows.items()} if c else {})


def matmul(a: SectorOperator, b: SectorOperator) -> SectorOperator:
    _check_compatible(a, b)
    out = {}
    for i, arow in a.rows.items():
        acc = {}
        for k, av in arow.items():
            for j, bv in b.rows.get(k, {}).items():
                acc[j] = acc.get(j, 0) + av * bv
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return SectorOperator(a.config, a.basis, out)


def transpose(op: SectorOperator) -> SectorOperator:
    out: dict[int, dict] = {}
    for i, row in op.rows.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return SectorOperator(op.config, op.basis, out)


def scale_rows(op: SectorOperator, fn) -> SectorOperator:
    """Left multiplication by the diagonal with entries fn(row index)."""
    return SectorOperator(op.config, op.basis, {i: {j: f * v for j, v in row.items()}
                                                for i, row in op.rows.items() if (f := fn(i))})


def scale_cols(op: SectorOperator, fn) -> SectorOperator:
    """Right multiplication by the diagonal with nonzero entries fn(col index)."""
    return SectorOperator(op.config, op.basis, {i: {j: v * fn(j) for j, v in row.items()}
                                                for i, row in op.rows.items()})


def _scan_certified_residual(residual: SectorOperator, mask, den=1) -> tuple[bool, dict | None]:
    """True plus None when every entry of an operator inside the
    certified_window mask vanishes; otherwise False and the least (row, col)
    of such a nonzero entry, with its value over den."""
    w = residual.basis.weights
    certified = [(i, j) for i, row in residual.rows.items() for j, v in row.items()
                 if v and mask[w[i]][w[j]]]
    if not certified:
        return True, None
    i, j = min(certified)
    return False, entry_evidence(residual.basis, i, j, Fraction(residual.rows[i][j], den))


def apply_col(op: SectorOperator, vec: dict) -> dict:
    """Matrix times column vector."""
    return apply_row(vec, transpose(op).rows)


def conjugation_by_cells(N: int) -> tuple[int, ...]:
    """transfer.conjugation from the diagram cells: the basis index of the
    partition whose cells are the transposed cells (j, i) of each basis
    partition, its parts the row counts of the transposed diagram."""
    b = get_basis(N)
    out = []
    for mu in b.parts:
        rows: dict[int, int] = {}
        for i, j in mu.cells():
            rows[j] = rows.get(j, 0) + 1
        out.append(b.index[Partition([rows[r] for r in sorted(rows)])])
    return tuple(out)


def relabelled(rows: Mapping[int, Mapping], omega) -> dict[int, dict]:
    """The matrix with rows {i: {j: v}} conjugated by the permutation matrix of
    an involution omega: entry (omega i, omega j) is entry (i, j)."""
    return {omega[i]: {omega[j]: v for j, v in row.items()} for i, row in rows.items()}


def transfer_weights(p: Fraction, N: int, alternating: bool) -> dict[int, Fraction]:
    """Coupling of J_{+-k} inside the transfer exponentials:
    q^{k/2}/(k(1-q^k)), with an extra (-1)^(k+1) for the alternating family."""
    out = {}
    for k in range(1, N + 1):
        c = p ** k / (k * (1 - p ** (2 * k)))
        if alternating and k % 2 == 0:
            c = -c
        out[k] = c
    return out


def integer_rows(rows) -> tuple[dict, int]:
    """Rational rows {i: {j: Fraction}} as (M, den): integer rows M with
    M/den = rows, over the least common denominator of the entries, so in
    lowest terms."""
    den = math.lcm(*(v.denominator for row in rows.values() for v in row.values()))
    return {i: {j: v.numerator * (den // v.denominator) for j, v in row.items()}
            for i, row in rows.items()}, den


def dense_exp(coeffs, direction: str, config) -> SectorOperator:
    """exp(sum_k c_k J_{+k}) (lowering) or exp(sum_k c_k J_{-k}) (raising) as a
    dense Fraction matrix: the exponent is summed from j_op, and the
    terminating series is a sum of matrix products. coeffs must cover every
    1 <= k <= N; modes beyond N cannot move states inside the window."""
    missing = [k for k in range(1, config.N + 1) if k not in coeffs]
    if missing:
        raise ValueError(f"missing transfer coefficients for k = {missing}")
    sgn = -1 if direction == "raising" else 1
    gen = SectorOperator(config, get_basis(config.N), {})
    for k in range(1, config.N + 1):
        gen = add(gen, scale(j_op(sgn * k, config), coeffs[k]))
    acc = term = identity(config)
    for n in range(1, config.N + 1):
        term = scale(matmul(term, gen), Fraction(1, n))
        if not term.rows:
            break
        acc = add(acc, term)
    return acc


@lru_cache(maxsize=None)
def dense_transfer(config, family: str, direction: str) -> SectorOperator:
    """G_- (raising) or G_+ (lowering) of the transfer family as a dense matrix."""
    return dense_exp(transfer_weights(config.p, config.N, family == "alternating"),
                     direction, config)


@lru_cache(maxsize=None)
def dense_pair(config, family: str) -> SectorOperator:
    """G_- G_+ as a dense matrix."""
    return matmul(dense_transfer(config, family, "raising"),
                  dense_transfer(config, family, "lowering"))


def fermionic_expectation(params, which: str) -> TruncatedSeries:
    """<s| G_+ q^{l W0/2} Q^{L0} e^{H} G"_- |s> evaluated with the dense
    transfer exponentials and the fock operator eigenvalues, graded in Q;
    G"_- is the alternating transfer for the modified model ('Zprime') and
    the plain one for the previous model ('Z'). Nothing on this route uses
    the closed forms of models.zprime_series."""
    if which not in ("Z", "Zprime"):
        raise ValueError(f"unknown model selector {which!r}")
    cfg, ctx, K = params.config, params.out_ctx, params.ctx.K
    family = "alternating" if which == "Zprime" else "plain"
    bra = apply_row({0: Fraction(1)}, dense_transfer(cfg, "plain", "lowering").rows)
    ket = apply_col(dense_transfer(cfg, family, "raising"), {0: Fraction(1)})
    w0 = w0_diag(cfg.s, cfg.N)
    phis = {k: v_op(k, 0, cfg) for k in range(-K, K + 1) if k > 0 or k and which == "Zprime"}
    acc = FractionSeries.zero(ctx)
    for n in range(params.ctx.NQ + 1):
        for i in get_basis(cfg.N).weight_range[n]:
            coeff = bra.get(i, 0) * ket.get(i, 0) * cfg.p ** (cfg.l * w0[i])
            if not coeff:
                continue
            lin = linear_form(ctx, {k: get(phis[k], i, i) for k in range(1, K + 1)},
                              {k: get(phis[-k], i, i) for k in range(1, K + 1) if -k in phis})
            key = (n + charge_offset(params.s),) + (0,) * (2 * K)
            acc = acc + FractionSeries.monomial(ctx, key, coeff) * series_exp(lin)
    return acc


def _fraction_weighted_exp(acc: dict, q_exp: int, weight: Fraction,
                           a: list[Fraction], D: int) -> None:
    """Add weight Q^q_exp exp(sum_j a_j x_j) up to x-degree D into acc, keyed by
    (q_exp, e_1..e_n), each monomial its predecessor times the Fraction
    a_j / e_j, j the last variable raised."""
    live = [j for j, c in enumerate(a) if c]
    steps = {j: [None] + [a[j] / m for m in range(1, D + 1)] for j in live}
    stack = [((0,) * len(a), weight, 0, 0)]
    while stack:
        e, c, first, d = stack.pop()
        key = (q_exp, *e)
        acc[key] = acc.get(key, 0) + c
        if d < D:
            for pos, j in enumerate(live[first:], first):
                m = e[j] + 1
                stack.append((e[:j] + (m,) + e[j + 1:], c * steps[j][m], pos, d + 1))


def fraction_partition_sum(params, which: str) -> TruncatedSeries:
    """The partition sum of models._partition_sum with every monomial a
    Fraction: sum_mu w(mu) q^{l W0/2} Q^{L0} exp(sum t_k Phi_k [+ sum th_k Phi_{-k}]),
    w(mu) = s_mu s_{t(mu)} for 'Zprime' and s_mu^2 (t family alone) for 'Z'."""
    s, p, K = params.s, params.p, params.ctx.K
    acc: dict = {}
    for mu in enumerate_partitions(params.ctx.NQ):
        a = [phi_potential(k, mu, s, p) for k in range(1, K + 1)]
        if which == "Zprime":
            weight = schur_qrho(mu, p) * schur_qrho(mu.conjugate(), p)
            a += [phi_potential(-k, mu, s, p) for k in range(1, K + 1)]
        else:
            weight = schur_qrho(mu, p) ** 2
            a += [Fraction(0)] * K
        weight *= p ** (params.l * w0_eigenvalue(mu, s))
        _fraction_weighted_exp(acc, l0_eigenvalue(mu, s), weight, a, params.ctx.D)
    return TruncatedSeries(params.out_ctx, acc)


def as_fractions(vec) -> dict[int, Fraction]:
    """An integer-form vector (nums, den) as {index: Fraction}."""
    nums, den = vec
    return {i: Fraction(v, den) for i, v in nums.items()}


def integer_form(vec) -> tuple[dict[int, int], int]:
    """{index: Fraction} as an integer-form vector over the least common
    denominator of its entries."""
    den = math.lcm(*(v.denominator for v in vec.values()))
    return {i: int(v * den) for i, v in vec.items()}, den


class DenseGraded(GradedOperator):
    """A graded operator whose row and column actions multiply by the
    materialised A = p^{W0} G_-G_+ p^{l W0} and B = G"_-G"_+ p^{+-W0}, with the
    dense transfer pairs from dense_pair. fraction_row and fraction_col act
    on {index: Fraction} vectors; row and col wrap them for the integer-form
    vectors of GradedOperator, and time_vectors pushes each time row through
    row and col, the reference for the package's shared pushes and their
    mirror. The vectors keep every weight up to the cutoff; the graded
    pairing reads the weights <= NQ. identity_transfers replaces both dense
    pairs by the identity in row, col and block; gram still reads the
    package's pair tables."""

    def __init__(self, params, family: str, identity_transfers: bool = False):
        super().__init__(params, family)
        cfg = params.config
        p, l = cfg.p, cfg.l
        w0 = w0_diag(cfg.s, cfg.N)
        sign = {"plain": 1, "alternating": -1}[family]
        left, right = ((identity(cfg), identity(cfg)) if identity_transfers
                       else (dense_pair(cfg, "plain"), dense_pair(cfg, family)))
        self.dense_A = scale_cols(scale_rows(left, lambda i: p ** w0[i]),
                                  lambda j: p ** (l * w0[j]))
        self.dense_B = scale_cols(right, lambda j: p ** (sign * w0[j]))

    def fraction_row(self, vec: dict) -> dict[int, Fraction]:
        return apply_row(vec, self.dense_A.rows)

    def fraction_col(self, vec: dict) -> dict[int, Fraction]:
        return apply_col(self.dense_B, vec)

    def row(self, vec):
        return integer_form(self.fraction_row(as_fractions(vec)))

    def col(self, vec):
        return integer_form(self.fraction_col(as_fractions(vec)))

    @cached_property
    def time_vectors(self):
        rows = _time_rows(self.config.N, self.params.ctx.K, self.params.ctx.D)
        return ({a: self.row((r, 1)) for a, r in rows.items()},
                {b: self.col((r, 1)) for b, r in rows.items()})

    def block(self, n: int) -> SectorOperator:
        """g_n = A . Pi_n . B, with Pi_n the projector on weight n."""
        proj = SectorOperator(self.config, self.basis,
                              {i: {i: Fraction(1)} for i in self.basis.weight_range[n]})
        return matmul(matmul(self.dense_A, proj), self.dense_B)


def residual_mask(k: int, right_k: int, params) -> tuple:
    """The certified window of J_k g_n - g_n J_{right_k}: only the J factors
    can leave the cutoff."""
    return certified_window(params.N, ((banded(-k), FULL), (FULL, banded(-right_k))))[0]


def dense_residual_entry(family: str, k: int, right_k: int, params,
                         mask=None, j=j_op) -> dict | None:
    """The earliest nonzero entry of J_k g_n - g_n J_{right_k} inside a
    weight-pair mask, by grade, then row, then column, from the dense blocks
    of DenseGraded with the given right family and the current modes j(k,
    config). The mask defaults to the certified window. None when every entry
    vanishes."""
    cfg = params.config
    g = DenseGraded(params, family)
    jl, jr = j(k, cfg), j(right_k, cfg)
    if mask is None:
        mask = residual_mask(k, right_k, params)
    for n in range(params.ctx.NQ + 1):
        gn = g.block(n)
        ok, entry = _scan_certified_residual(sub(matmul(jl, gn), matmul(gn, jr)), mask)
        if not ok:
            return {"grade": n, **entry}
    return None


def _fraction_grade_dot(u, w, grade: range) -> Fraction:
    """<u, w>_n = sum_{|nu| = n} u_nu w_nu, with grade the indices of weight n."""
    return sum((u[i] * w[i] for i in grade if i in u and i in w), Fraction(0))


def _fraction_combination(vector, coeffs) -> dict[int, Fraction]:
    """sum_i coeffs[i] vector(i)."""
    out: dict[int, Fraction] = {}
    for i, c in coeffs.items():
        for j, v in vector(i).items():
            out[j] = out[j] + c * v if j in out else c * v
    return out


def fraction_residual_entry(g: GradedOperator, k: int, right_k: int, mask) -> dict | None:
    """The earliest nonzero entry of J_k g_n - g_n J_{right_k} inside the mask,
    by grade, then row, then column, on Fraction vectors and with no block of
    g: each entry is a difference of grade dots of J-dressed row and column
    vectors, by linearity in the J factors, with the row and column vectors
    of g taken from the dense pairs of DenseGraded and the columns of
    J_{right_k} from its transpose."""
    dense = DenseGraded(g.params, g.family)
    b = g.basis
    w = b.weights
    row = cache(lambda i: dense.fraction_row({i: Fraction(1)}))
    col = cache(lambda i: dense.fraction_col({i: Fraction(1)}))
    jl, jr_cols = j_op(k, g.config).rows, transpose(j_op(right_k, g.config)).rows
    dressed_row = cache(lambda lam: _fraction_combination(row, jl.get(lam, {})))
    dressed_col = cache(lambda mu: _fraction_combination(col, jr_cols.get(mu, {})))
    for n in range(g.params.ctx.NQ + 1):
        grade = b.weight_range[n]
        for lam in range(len(b)):
            certified = mask[w[lam]]
            for mu in range(len(b)):
                if not certified[w[mu]]:
                    continue
                v = (_fraction_grade_dot(dressed_row(lam), col(mu), grade)
                     - _fraction_grade_dot(row(lam), dressed_col(mu), grade))
                if v:
                    return {"grade": n, **entry_evidence(b, lam, mu, v)}
    return None


def fraction_intertwining_residual(which: str, k: int, params) -> CheckReport:
    """identities.intertwining_residual with its entry from fraction_residual_entry,
    for g ('g_true', the plain family) or g' ('gprime_fake', the alternating
    family) on the model point params."""
    if which not in ("g_true", "gprime_fake"):
        raise ValueError(f"unknown selector {which!r}")
    N = params.N
    report = CheckReport("intertwining", identities._params_dict(params, k=k, which=which), INSUFFICIENT)
    if abs(k) > N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    right_k = -k if which == "g_true" else k
    mask, window = certified_window(N, ((banded(-k), FULL), (FULL, banded(-right_k))))
    report.window = window * (params.ctx.NQ + 1)
    if window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    g = GradedOperator(params, "plain" if which == "g_true" else "alternating")
    entry = fraction_residual_entry(g, k, right_k, mask)
    if which == "g_true":
        report.status = PASS if entry is None else FAIL
        report.evidence = {"worst": entry} if entry else {}
    else:
        report.status = PASS if entry is not None else FAIL
        report.evidence = ({"nonzero_entry": entry} if entry
                           else {"reason": "fake intertwining relation unexpectedly holds"})
    return report


def torus_prefactor(k: int, m: int, l: int, n: int, p: Fraction) -> Fraction:
    """q^{(lm-kn)/2} - q^{(kn-lm)/2}, the coefficient of V^(k+l)_{m+n}."""
    a, b = p.numerator ** abs(l * m - k * n), p.denominator ** abs(l * m - k * n)  # p^|e| = a/b
    return Fraction(a * a - b * b, a * b) if l * m >= k * n else Fraction(b * b - a * a, a * b)


def central_term(k: int, m: int, l: int, n: int, p: Fraction) -> Fraction:
    """The identity coefficient of [V^(k)_m, V^(l)_n]: m at k+l = 0 = m+n, the
    certificate's G at xy = 1, else -pref c(k+l) at m+n = 0, else 0; c is
    read from shifts at call time."""
    if k + l == 0 and m + n == 0:
        return Fraction(m)
    if m + n:
        return Fraction(0)
    return -torus_prefactor(k, m, l, n, p) * shifts.torus_constant(k + l, p)


def relation_values(k: int, m: int, l: int, n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """(P, G) of [V^(k)_m, V^(l)_n] = P V^(k+l)_{m+n} + G as the package reads
    them, in Fraction powers of p: the terms of symmetries._relation(min(m, n),
    max(m, n)), looked up at call time, at (p^k, p^l), or for m > n at
    (p^l, p^k) and negated."""
    (lo, x), (hi, y), sign = ((m, k), (n, l), 1) if m <= n else ((n, l), (m, k), -1)
    values = [Fraction(0), Fraction(0)]
    for (t, a, b), c in symmetries._relation(lo, hi):
        values[t] += sign * c * p ** (x * a + y * b)
    return values[0], values[1]


def fraction_commutator_check(k: int, m: int, l: int, n: int, config) -> CheckReport:
    """symmetries.commutator_check on Fraction entries: V1 V2 - V2 V1 from
    v_op by SectorOperator products, minus the relation as a Fraction
    operator, its prefactor and central term from relation_values."""
    params = {"k": k, "m": m, "l": l, "n": n, "s": config.s, "l_weight": config.l,
              "p": format_rational(config.p), "N": config.N}
    report = CheckReport("commutator", params, INSUFFICIENT)
    N = config.N
    if abs(m) > N or abs(n) > N or (k + l != 0 or m + n != 0) and abs(m + n) > N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    V1 = v_op(k, m, config)
    V2 = v_op(l, n, config)
    lhs = sub(matmul(V1, V2), matmul(V2, V1))
    mask, window = certified_window(N, ((banded(-m), banded(-n)), (banded(-n), banded(-m))))
    report.window = window
    if window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    pref, central = relation_values(k, m, l, n, config.p)
    rhs = add(scale(v_op(k + l, m + n, config), pref), scale(identity(config), central))
    ok, worst = _scan_certified_residual(sub(lhs, rhs), mask)
    report.status = PASS if ok else FAIL
    if worst:
        report.evidence = {"worst": worst}
    elif m and k + l == 0 and m + n == 0:
        report.evidence = {"central_sign": 1}
    return report


def fraction_first_shift_check(variant: str, k: int, m: int, config) -> CheckReport:
    """shifts.first_shift_check on Fraction entries: both products in
    full, with the dense pair of dense_pair, and the torus constant read
    from shifts at call time."""
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
    c = shifts.torus_constant(upper, config.p)
    family = "plain" if variant == "G" else "alternating"
    gg = SectorOperator(config, get_basis(N), dense_pair(SectorConfig(0, N, config.p), family).rows)
    left_v, right_v = (sub(v_op(upper, x, config), scale(identity(config), c if x == 0 else 0))
                       for x in (m, m + k))
    lhs = matmul(gg, left_v)
    rhs = matmul(scale(right_v, parity), gg)
    mask, window = certified_window(N, ((RAISING, LOWERING, banded(-m)),
                                        (banded(-(m + k)), RAISING, LOWERING)))
    report.window = window
    if window == 0:
        report.evidence = {"reason": "empty certified window"}
        return report
    ok, worst = _scan_certified_residual(sub(lhs, rhs), mask)
    report.status = PASS if ok else FAIL
    report.evidence = {"constant": format_rational(c)}
    if worst:
        report.evidence["worst"] = worst
    return report


def fraction_second_shift_check(k: int, m: int, config) -> CheckReport:
    """shifts.second_shift_check on Fraction entries: V^(k)_m scaled by
    the Fraction powers p^{w0(row)} and p^{-w0(col)}, minus V^(k-m)_m, with
    W0 read from this module's w0_diag at call time."""
    params = {"k": k, "m": m, "s": config.s, "p": format_rational(config.p), "N": config.N}
    report = CheckReport("second_shift", params, INSUFFICIENT)
    if abs(m) > config.N:
        report.evidence = {"reason": "shift exceeds the cutoff"}
        return report
    w0, p = w0_diag(config.s, config.N), config.p
    lhs = scale_cols(scale_rows(v_op(k, m, config), lambda i: p ** w0[i]), lambda j: p ** -w0[j])
    mask, report.window = certified_window(config.N, band=-m)
    ok, worst = _scan_certified_residual(sub(lhs, v_op(k - m, m, config)), mask)
    report.status = PASS if ok else FAIL
    if worst:
        report.evidence = {"worst": worst}
    return report


# ---------------------------------------------------------------------------
# Maya diagrams as level lists: the move-by-move reference for fock.move_table

def _levels(parts: tuple[int, ...], s: int) -> list[int]:
    """Occupied levels above the filled tail, strictly decreasing.
    The tail occupies every level <= s - len(parts)."""
    return [s + m - i for i, m in enumerate(parts)]


def occupied(parts: tuple[int, ...], s: int, x: int) -> bool:
    if x <= s - len(parts):
        return True
    return any(s + m - i == x for i, m in enumerate(parts))


def count_above(parts: tuple[int, ...], s: int, x: int) -> int:
    """Number of occupied levels strictly above x; finite by cofinality."""
    c = 0
    for i, m in enumerate(parts):
        if s + m - i > x:
            c += 1
        else:
            break
    tail_top = s - len(parts)
    if tail_top > x:
        c += tail_top - x
    return c


def move_particle(parts: tuple[int, ...], s: int, src: int, dst: int):
    """Move one particle from level src to level dst.

    Returns (sign, new_parts) or None when the move is Pauli-blocked.
    """
    if not occupied(parts, s, src):
        return None
    if dst == src:
        return (1, parts)
    if occupied(parts, s, dst):
        return None
    sign_exp = count_above(parts, s, src) + count_above(parts, s, dst)
    if src > dst:
        # removing src lowers the count above dst by one
        sign_exp -= 1
    tail_top = s - len(parts)
    excited = _levels(parts, s)
    if src <= tail_top:
        excited += list(range(tail_top, src - 1, -1))
        tail_top = src - 1
    excited.remove(src)
    excited.append(dst)
    excited.sort(reverse=True)
    new_parts = []
    for i, x in enumerate(excited, start=1):
        part = x - s + i - 1
        if part < 0:
            raise AssertionError("charge changed during a move")
        new_parts.append(part)
    while new_parts and new_parts[-1] == 0:
        new_parts.pop()
    return ((-1) ** sign_exp, tuple(new_parts))


def _move_sources(parts: tuple[int, ...], s: int, m: int) -> list[int]:
    """Occupied levels from which a shift by -m can leave the filled tail."""
    tail_top = s - len(parts)
    cands = _levels(parts, s)
    cands.extend(range(tail_top, tail_top - abs(m) - 1, -1))
    return cands


def move_table_by_moves(m: int, s: int, N: int) -> tuple[tuple[int, int, int, int], ...]:
    """fock.move_table with each source level src shifted to the charge-s level
    src + s, built one move_particle at a time from the level lists of the
    charge-s sector, each result looked up as a Partition."""
    b = get_basis(N)
    moves = []
    for j, mu in enumerate(b.parts):
        if not 0 <= mu.weight - m <= N:
            continue
        for src in _move_sources(mu.parts, s, m):
            res = move_particle(mu.parts, s, src, src - m)
            if res is not None:
                moves.append((b.index[Partition(res[1])], j, res[0], src))
    return tuple(moves)


@dataclass(frozen=True)
class FockState:
    charge: int
    shape: Partition


def apply_bilinear(a: int, b: int, state: FockState, normal_ordered: bool = True):
    """Action of psi_a psi*_b (normal ordered against the charge-0 vacuum
    when requested) on a basis state: None for zero, else (coeff, FockState)."""
    parts, s = state.shape.parts, state.charge
    if a + b == 0:
        occ = 1 if occupied(parts, s, b) else 0
        coeff = occ - (1 if normal_ordered and b <= 0 else 0)
        return (coeff, state) if coeff else None
    res = move_particle(parts, s, b, -a)
    if res is None:
        return None
    sign, new_parts = res
    return (sign, FockState(s, Partition(new_parts)))


def bilinear_diagonal(config, f) -> SectorOperator:
    """sum_n f(n) :psi_{-n} psi*_n: assembled move by move through
    apply_bilinear; the slow reference route for the diagonal operators."""
    b = get_basis(config.N)
    span = config.N + abs(config.s) + 2
    vals = [Fraction(0)] * len(b)
    for idx, mu in enumerate(b.parts):
        state = FockState(config.s, mu)
        for n in range(-span, span + 1):
            res = apply_bilinear(-n, n, state, normal_ordered=True)
            if res is None:
                continue
            coeff, out_state = res
            assert out_state == state
            vals[idx] += coeff * f(n)
    return SectorOperator(config, b, {i: {i: v} for i, v in enumerate(vals) if v})


def v_op_by_bilinears(k: int, m: int, config) -> SectorOperator:
    """p^{-km} sum_n p^{2kn} psi_{m-n} psi*_n, normal ordered at m = 0,
    assembled move by move through apply_bilinear; the slow reference route
    for fock.v_op. A move that leaves the sector cut at N is dropped."""
    b = get_basis(config.N)
    p = config.p
    span = config.N + abs(config.s) + abs(m) + 2
    rows: dict[int, dict[int, Fraction]] = {}
    for j, mu in enumerate(b.parts):
        state = FockState(config.s, mu)
        for n in range(-span, span + 1):
            res = apply_bilinear(m - n, n, state, normal_ordered=True)
            if res is None or res[1].shape.weight > config.N:
                continue
            coeff, out_state = res
            row = rows.setdefault(b.index[out_state.shape], {})
            row[j] = row.get(j, Fraction(0)) + coeff * p ** (2 * k * n - k * m)
    rows = {i: {j: v for j, v in row.items() if v} for i, row in rows.items()}
    return SectorOperator(config, b, {i: row for i, row in rows.items() if row})


def merge_hatted_into_t(f: TruncatedSeries) -> TruncatedSeries:
    """Substitute th_k -> t_k."""
    ctx = f.ctx
    out: dict[tuple[int, ...], Fraction] = {}
    for key, val in f.coeffs.items():
        nk = tuple([key[0]] + [key[k] + key[ctx.K + k] for k in range(1, ctx.K + 1)]
                   + [0] * ctx.K)
        out[nk] = out.get(nk, Fraction(0)) + val
    return TruncatedSeries(ctx, out)


def substitute_difference_by_products(f: TruncatedSeries) -> TruncatedSeries:
    """t_k -> t_k - th_k by series arithmetic: each monomial times the powers
    (t_k - th_k)^{a_k}, summed term by term."""
    ctx = f.ctx
    out = FractionSeries.zero(ctx)
    for key, val in f.coeffs.items():
        term = FractionSeries.monomial(ctx, (key[0],) + (0,) * (2 * ctx.K), val)
        for k in range(1, ctx.K + 1):
            if key[ctx.K + k]:
                raise ValueError("expects a series in the t family only")
            tk = FractionSeries.variable(ctx, f"t{k}")
            term = term * (tk - FractionSeries.variable(ctx, f"th{k}")) ** key[k]
        out = out + term
    return out


def zprime_special(l: int, p: Fraction, NQ: int) -> TruncatedSeries:
    """Couplings off, s = 0: sum_mu s_mu s_{t(mu)} q^{l kappa/2} (q^{l/2} Q)^{|mu|},
    with the Schur values from Jacobi-Trudi."""
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for mu in enumerate_partitions(NQ):
        key = (mu.weight, 0, 0)
        coeffs[key] = coeffs.get(key, Fraction(0)) + (
            schur_jacobi_trudi(mu, p) * schur_jacobi_trudi(mu.conjugate(), p)
            * Fraction(p) ** (l * (mu.kappa() + mu.weight)))
    return TruncatedSeries(SeriesContext(1, 0, NQ), coeffs)


def split_certified(chain, N: int, row_w: int, col_w: int) -> bool:
    """Split rule on one weight pair: the product entry (row, col) is exact in
    the sector cut at N when at every split point min(row-side bound,
    col-side bound) <= N. The bounds accumulate max(0, -delta) walking right
    from the row weight (RAISING transparent, anything else unbounded) and
    max(0, delta) walking left from the col weight (LOWERING transparent,
    anything else unbounded)."""
    def bounds(w, factors, sign, transparent):
        out = []
        for f in factors:
            if f.kind == "banded":
                w += max(0, sign * f.delta)
            elif f.kind != transparent:
                w = math.inf
            out.append(w)
        return out

    left = bounds(row_w, chain[:-1], -1, "raising")
    right = bounds(col_w, chain[:0:-1], 1, "lowering")[::-1]
    return all(min(lb, rb) <= N for lb, rb in zip(left, right))


def window_by_pairs(N: int, chains=(), band=None) -> tuple:
    """certified_window's mask and window size, the split rule applied to
    every weight pair and every chain in turn."""
    mask = tuple(tuple((band is None or w1 == w2 + band)
                       and all(split_certified(c, N, w1, w2) for c in chains)
                       for w2 in range(N + 1)) for w1 in range(N + 1))
    return mask, window_size_by_pairs(N, lambda w1, w2: mask[w1][w2])


def window_size_by_pairs(N: int, certified) -> int:
    """Basis pairs whose (row weight, col weight) satisfies a predicate,
    counted over every pair of weights."""
    b = get_basis(N)
    sizes = {n: len(b.weight_range[n]) for n in range(N + 1)}
    return sum(c1 * c2 for w1, c1 in sizes.items() for w2, c2 in sizes.items()
               if certified(w1, w2))
