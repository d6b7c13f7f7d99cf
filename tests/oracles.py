"""Independent reference computations used to pin expected test values.

Each oracle recomputes its target through a different formula or route than
the implementation under test. The closed-form oracles use nothing of the
package beyond partitions and series. The fermion-move oracles build operators
one psi_a psi*_b move at a time from the Maya-diagram primitives.
DenseGraded keeps the dense route to the tau vectors and the graded blocks
that the package replaced with pushed vectors, and window_size_by_pairs the
weight-pair count that certified_window replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from toda_crystal import Partition, SeriesContext, TruncatedSeries, enumerate_partitions
from toda_crystal.fock import (
    BANDED0,
    FULL,
    ExactnessCertificate,
    SectorOperator,
    apply_col,
    apply_row,
    certified_window,
    get_basis,
    j_op,
    move_particle,
    occupied,
    transfer_pair,
    w0_diag,
    with_config,
)
from toda_crystal.symmetries import _scan_certified_residual
from toda_crystal.toda import GradedOperator


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


class DenseGraded(GradedOperator):
    """A graded operator whose row and column actions multiply by the
    materialised A = p^{W0} G_-G_+ p^{l W0} and B = G"_-G"_+ p^{+-W0}, with the
    dense transfer pairs from fock.transfer_pair. The vectors keep every
    weight up to the cutoff; the graded pairing reads the weights <= NQ."""

    def __init__(self, params, family: str, identity_transfers: bool = False):
        super().__init__(params, family, identity_transfers)
        cfg = params.config
        p, N, l = cfg.p, cfg.N, cfg.l
        w0 = w0_diag(cfg)
        sign = {"plain": 1, "alternating": -1}[family]
        if identity_transfers:
            left = right = SectorOperator.identity(cfg)
        else:
            left = with_config(transfer_pair(p, N, "plain"), cfg)
            right = with_config(transfer_pair(p, N, family), cfg)
        self.dense_A = left.scale_rows(lambda i: p ** w0[i]).scale_cols(
            lambda j: p ** (l * w0[j]))
        self.dense_B = right.scale_cols(lambda j: p ** (sign * w0[j]))

    def row(self, vec):
        return apply_row(vec, self.dense_A)

    def col(self, vec):
        return apply_col(self.dense_B, vec)

    def block(self, n: int) -> SectorOperator:
        """g_n = A . Pi_n . B, with Pi_n the projector on weight n."""
        proj = SectorOperator(self.config, self.basis,
                              {i: {i: Fraction(1)} for i in self.basis.weight_range[n]}, BANDED0)
        return self.dense_A.matmul(proj).matmul(self.dense_B)


def dense_residual_entry(family: str, k: int, right_k: int, params,
                         mask=None) -> dict | None:
    """The earliest nonzero entry of J_k g_n - g_n J_{right_k} inside a
    weight-pair mask, by grade, then row, then column, from the dense blocks
    of DenseGraded with the given right family. The mask defaults to the
    certified window. None when every entry vanishes."""
    cfg, N = params.config, params.N
    g = DenseGraded(params, family)
    jl, jr = j_op(k, cfg), j_op(right_k, cfg)
    if mask is None:
        mask, _ = certified_window(N, (ExactnessCertificate((jl.shift, FULL), N),
                                       ExactnessCertificate((FULL, jr.shift), N)))
    for n in range(params.ctx.NQ + 1):
        gn = g.block(n)
        ok, entry = _scan_certified_residual(jl.matmul(gn) - gn.matmul(jr), mask)
        if not ok:
            return {"grade": n, **entry}
    return None


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
    return SectorOperator.diagonal(config, vals)


def merge_hatted_into_t(f: TruncatedSeries) -> TruncatedSeries:
    """Substitute th_k -> t_k."""
    ctx = f.ctx
    out: dict[tuple[int, ...], Fraction] = {}
    for key, val in f.coeffs.items():
        nk = tuple([key[0]] + [key[k] + key[ctx.K + k] for k in range(1, ctx.K + 1)]
                   + [0] * ctx.K)
        out[nk] = out.get(nk, Fraction(0)) + val
    return TruncatedSeries(ctx, out)


def zprime_special(l: int, p: Fraction, NQ: int) -> TruncatedSeries:
    """Couplings off, s = 0: sum_mu s_mu s_{t(mu)} q^{l kappa/2} (q^{l/2} Q)^{|mu|},
    with the Schur values from Jacobi-Trudi."""
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for mu in enumerate_partitions(NQ, "all_up_to"):
        key = (mu.weight, 0, 0)
        coeffs[key] = coeffs.get(key, Fraction(0)) + (
            schur_jacobi_trudi(mu, p) * schur_jacobi_trudi(mu.conjugate(), p)
            * Fraction(p) ** (l * (mu.kappa() + mu.weight)))
    return TruncatedSeries(SeriesContext(1, 0, NQ), coeffs)


def window_size_by_pairs(N: int, certified) -> int:
    """Basis pairs whose (row weight, col weight) satisfies a predicate,
    counted over every pair of weights."""
    b = get_basis(N)
    sizes = {n: len(b.weight_range[n]) for n in range(N + 1)}
    return sum(c1 * c2 for w1, c1 in sizes.items() for w2, c2 in sizes.items()
               if certified(w1, w2))
