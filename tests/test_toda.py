import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toda_crystal import (
    CalibrationError,
    ModelParams,
    Partition,
    SeriesContext,
    TruncatedSeries,
    build_g,
    build_gprime,
    calibrate_bilinear_sign,
    charge_offset,
    check_prev_forms,
    check_prev_reduction,
    ground_action_constants,
    intertwining_residual,
    tau_prev_series,
    tau_prime_family,
    tau_prime_series,
    toda_bilinear_residual,
    trivial_tau,
    trivial_tau_compare,
    verify_main_identity,
    verify_prev_identity,
    z_series,
    zprime_family,
    zprime_series,
)
from toda_crystal import algebra, identities, models, toda, transfer
from toda_crystal.checks import FAIL, INSUFFICIENT, PASS, entry_evidence, sandwich_entry
from toda_crystal.fock import SectorConfig, get_basis, j_rows, w0_diag
from toda_crystal.series import GradedSeries
from toda_crystal.toda import GradedOperator, _time_rows

import oracles
from oracles import (
    DenseGraded,
    FractionSeries,
    SectorOperator,
    as_fractions,
    dense_residual_entry,
    get,
    j_op,
    matmul,
    merge_hatted_into_t,
    residual_mask,
    series_exp,
    series_from_json_dict,
    sub,
)

P = Fraction(1, 2)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def params(s=0, l=0, p=P, K=2, D=2, NQ=2, N=None):
    return ModelParams(s, l, p, SeriesContext(K, D, NQ), N)


def test_vacuum_q_series_matches_partition_sums():
    # <s|g'|s> reproduces the zero-coupling modified partition function
    pr = params(s=0, l=0, K=1, D=0, NQ=3)
    g = build_gprime(pr)
    assert g.vacuum_q_series().q_profile() == zprime_series(pr).q_profile()
    pr1 = params(s=0, l=1, K=1, D=0, NQ=3)
    assert build_gprime(pr1).vacuum_q_series().q_profile() == \
        zprime_series(pr1).q_profile()
    # <0|g|0> matches the previous model at zero couplings
    prz = params(s=0, l=0, K=1, D=0, NQ=3)
    assert build_g(prz).vacuum_q_series().q_profile() == \
        z_series(prz).q_profile()


def test_tau_prime_constant_term_is_vacuum_series():
    pr = params()
    g = build_gprime(pr)
    tau = tau_prime_series(pr, g).to_truncated()
    vac = g.vacuum_q_series()
    got = {k: v for k, v in tau.coeffs.items() if not any(k[1:])}
    assert got == vac.to_truncated().coeffs


def test_tau_prime_low_order_coefficient():
    # with identity transfers g'_0 is the rank-one vacuum projector, so the
    # t1 th1 coefficient at the lowest grade needs <0|J_1|0> = 0 and vanishes
    pr = params(s=0, l=0, K=1, D=2, NQ=0)
    hook = DenseGraded(pr, "alternating", identity_transfers=True)
    tau_hook = tau_prime_series(pr, hook).to_truncated()
    assert (0, 1, 1) not in tau_hook.coeffs
    # with the full transfers the same coefficient is -<0|J_1 g'_0 J_-1|0>,
    # a rank-one product A_{(1),empty} B_{empty,(1)} = -q/(1-q)^2
    tau = tau_prime_series(pr).to_truncated()
    q = P * P
    assert tau.coeffs[(0, 1, 1)] == -q / (1 - q) ** 2 == Fraction(-4, 9)


def test_tau_prime_fixture():
    data = json.loads((FIXTURES / "tau_prime_s0_l0_p1of2.json").read_text())
    fixture = series_from_json_dict(data["series"])
    assert tau_prime_series(params()).to_truncated() == fixture


@pytest.mark.parametrize("name,caps,N", [
    ("tau_prime_s0_l1_p2of3_N8.json", (3, 2, 8), 8),   # N = NQ, the tau-export shape
    ("tau_prime_s0_l1_p2of3_N7.json", (2, 2, 2), 7),   # N > NQ
])
def test_tau_prime_fixtures_at_two_thirds(name, caps, N):
    # the pushed tau' against the main identity inverted on the partition sum
    data = json.loads((FIXTURES / name).read_text())
    assert data["params"] == {"p": "2/3", "s": 0, "l": 1, "N": N}
    pr = params(l=1, p=Fraction(2, 3), K=caps[0], D=caps[1], NQ=caps[2], N=N)
    assert tau_prime_series(pr).to_truncated() == series_from_json_dict(data["series"])


@pytest.mark.parametrize("s,l", [(0, 0), (1, 0), (-1, 1), (1, 1)])
def test_main_identity_small_sweep(s, l):
    assert verify_main_identity(params(s=s, l=l)).status == PASS


def test_main_identity_second_p_point():
    assert verify_main_identity(params(p=Fraction(3, 5))).status == PASS


@pytest.mark.parametrize("s,l", [(0, 0), (1, 0), (-1, 1)])
def test_prev_identity_small_sweep(s, l):
    rep = verify_prev_identity(params(s=s, l=l))
    assert rep.status == PASS


def test_prev_identity_constant():
    rep = verify_prev_identity(params(s=1))
    assert rep.evidence["constant"] == "4"
    rep0 = verify_prev_identity(params(s=0))
    assert rep0.evidence["constant"] == "1"


@pytest.mark.parametrize("s", [-1, 0, 1])
def test_prev_forms_agree(s):
    assert check_prev_forms(params(s=s, NQ=3)).status == PASS


@pytest.mark.parametrize("s", [-1, 0, 1])
def test_prev_reduction(s):
    assert check_prev_reduction(params(s=s, NQ=3)).status == PASS


def test_reduction_at_equal_times_is_constant():
    pr = params()
    g = build_g(pr)
    two = tau_prev_series(pr, "reduced_2d", g).to_truncated()
    merged = merge_hatted_into_t(two)
    vac = {k: v for k, v in merged.coeffs.items() if not any(k[1:])}
    assert merged.coeffs == vac


def test_tau_prev_rejects_unknown_form():
    with pytest.raises(ValueError):
        tau_prev_series(params(), "diagonal")


def test_ground_action_constants():
    for s, scalar in ((0, "1"), (1, "2"), (-1, "1"), (2, "32")):
        rep = ground_action_constants(s, P, 4)
        assert rep.status == PASS
        assert rep.evidence["left_scalar"] == scalar


def test_ground_action_fails_on_a_wrong_vacuum_w0(monkeypatch):
    # the transfer half holds by construction, so the W0 half is the live
    # evidence: a vacuum W0 one too large fails at every charge
    real = identities.w0_diag
    monkeypatch.setattr(identities, "w0_diag", lambda s, N: (real(s, N)[0] + 1, *real(s, N)[1:]))
    for s in (-1, 0, 1):
        rep = ground_action_constants(s, P, 4)
        assert rep.status == FAIL and rep.evidence["reason"] == "ground-state action is not scalar"
        assert rep.evidence["vacuum_w0"] == s * (s + 1) * (2 * s + 1) // 6 + 1


def test_ground_action_fails_on_a_wrong_charge_offset(monkeypatch):
    # every series route reads charge_offset, so s(s-1)/2 in place of
    # s(s+1)/2 moves both sides of each identity alike; the vacuum's L0
    # eigenvalue, the signed sum of its Maya levels, pins it at s = +-1
    assert all(ground_action_constants(s, P, 3).passed for s in range(-4, 5))
    for module in (algebra, models, identities, toda):
        monkeypatch.setattr(module, "charge_offset", lambda s: s * (s - 1) // 2)
    for s in (-1, 1):
        rep = ground_action_constants(s, P, 4)
        assert rep.status == FAIL and rep.evidence["reason"] == "ground-state action is not scalar"
    # at s = 0 both offsets vanish
    assert ground_action_constants(0, P, 4).passed


def test_intertwining_true_and_fake():
    pr = params(K=2, D=2, NQ=3)
    for k in (1, 2):
        assert intertwining_residual("g_true", k, pr).status == PASS
    rep = intertwining_residual("gprime_fake", 1, pr)
    assert rep.status == PASS
    entry = rep.evidence["nonzero_entry"]
    assert entry["grade"] == 0 and entry["row"] == [] and entry["col"] == []


def test_intertwining_validation():
    pr = params(K=1, D=2, NQ=2)
    with pytest.raises(ValueError):
        intertwining_residual("g_true", 0, pr)
    with pytest.raises(ValueError):
        intertwining_residual("g_true", -1, pr)
    with pytest.raises(ValueError):
        intertwining_residual("g_true", 2, pr)
    with pytest.raises(ValueError):
        intertwining_residual("both", 1, pr)


def test_trivial_tau_closed_form():
    # machinery result equals exp(-sigma sum k t_k th_k) with the central
    # sign realized by the commutators
    sigma = _central_sign()
    tt = trivial_tau(2, 2).to_truncated()
    ctx = tt.ctx
    expected = FractionSeries.zero(ctx)
    for k in (1, 2):
        key = [0] * ctx.nvars
        key[ctx.var_index(f"t{k}")] = 1
        key[ctx.var_index(f"th{k}")] = 1
        expected = expected + FractionSeries(ctx, {tuple(key): Fraction(-sigma * k)})
    assert tt == series_exp(expected)


def _central_sign() -> int:
    # [J_1, J_-1] on the vacuum, from the sign tables of the time vectors
    cfg = SectorConfig(0, 2, P)
    j1, jm1 = (SectorOperator(cfg, get_basis(2), j_rows(k, 2)) for k in (1, -1))
    return int(get(sub(matmul(j1, jm1), matmul(jm1, j1)), 0, 0))


@pytest.mark.parametrize("s", range(-3, 3))
def test_j_matrix_is_the_sign_table_of_j_op(s):
    # the intertwining scan reads both J factors from the charge-0 sign table
    # at every charge
    for N in (4, 6):
        for k in (*range(-N, 0), *range(1, N + 1)):
            rows = j_rows(k, N)
            assert rows == j_op(k, SectorConfig(s, N, P)).rows, (k, N)
            assert all(v in (1, -1) for row in rows.values() for v in row.values())


def test_trivial_tau_compare_differs():
    rep = trivial_tau_compare(params())
    assert rep.status == PASS
    assert rep.evidence["constant_terms_agree"] is True
    assert "first_difference" in rep.evidence


def test_trivial_tau_compare_needs_a_time_degree():
    # at D = 0 both sides are <s|g'|s>; at D = 1 a linear th coefficient differs
    rep = trivial_tau_compare(params(K=2, D=0, NQ=3))
    assert rep.status == INSUFFICIENT
    assert "reason" in rep.evidence
    rep = trivial_tau_compare(params(K=2, D=1, NQ=3))
    assert rep.status == PASS
    assert rep.evidence["first_difference"]["monomial"].count("th") == 1


def test_calibration():
    assert calibrate_bilinear_sign(1, 2) in (1, -1)
    assert calibrate_bilinear_sign(1, 2) == -_central_sign()
    with pytest.raises(CalibrationError):
        calibrate_bilinear_sign(1, 1)


def test_bilinear_tau_prime_family():
    pr = params(K=1, D=2, NQ=2)
    fam = tau_prime_family(pr, range(-2, 3))
    rep = toda_bilinear_residual(fam)
    assert rep.status == PASS
    assert rep.evidence["centers"] == [-1, 0, 1]


def test_bilinear_zprime_family_same_constant():
    pr = params(K=1, D=2, NQ=2)
    fam_tau = tau_prime_family(pr, range(-1, 2))
    fam_z = zprime_family(pr, range(-1, 2))
    rep_tau = toda_bilinear_residual(fam_tau)
    rep_z = toda_bilinear_residual(fam_z)
    assert rep_tau.status == rep_z.status == PASS
    assert rep_tau.evidence["constant"] == rep_z.evidence["constant"]


def test_bilinear_explicit_sign_and_failure():
    pr = params(K=1, D=2, NQ=2)
    fam = tau_prime_family(pr, range(-1, 2))
    good = Fraction(calibrate_bilinear_sign(1, 2))
    assert toda_bilinear_residual(fam, sign=good).status == PASS
    bad = -good
    rep = toda_bilinear_residual(fam, sign=bad)
    assert rep.status == FAIL
    assert "first_nonzero" in rep.evidence


def test_bilinear_failure_reports_its_window():
    fam = tau_prime_family(params(K=1, D=2, NQ=2), range(-1, 2))
    assert calibrate_bilinear_sign(1, 2) == -1
    line = toda_bilinear_residual(fam, sign=1).to_json_dict()
    assert line["status"] == FAIL
    assert line["evidence"]["center"] == 0
    assert line["evidence"]["window"] == 1


def test_bilinear_insufficient_without_neighbors():
    pr = params(K=1, D=2, NQ=2)
    fam = tau_prime_family(pr, [0, 1])
    assert toda_bilinear_residual(fam).status == INSUFFICIENT


def test_tau_coefficients_stable_under_cutoff_growth():
    pr = params(K=2, D=2, NQ=2)
    small = tau_prime_series(pr).to_truncated()
    big = tau_prime_series(pr.with_cutoff(pr.N + 2)).to_truncated()
    assert small == big


def test_main_identity_stable_under_cutoff_growth():
    pr = params()
    lhs_small = verify_main_identity(pr)
    lhs_big = verify_main_identity(pr.with_cutoff(pr.N + 2))
    assert lhs_small.status == lhs_big.status == PASS


# Shapes for the matrix-free route: N = NQ, and N = 9 above NQ = 2 so that
# the cut at NQ is active.
VECTOR_SHAPES = [dict(s=0, l=1, K=2, D=2, NQ=4), dict(s=-1, l=1, K=3, D=3, NQ=2)]
TAU_PREV_FORMS = ("left", "symmetric", "right", "reduced_2d")


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(2, 3)])
@pytest.mark.parametrize("shape", VECTOR_SHAPES)
def test_matrix_free_tau_matches_dense_route(shape, p):
    pr = params(p=p, **shape)
    dense_gprime = DenseGraded(pr, "alternating")
    dense_g = DenseGraded(pr, "plain")
    assert tau_prime_series(pr).to_truncated() == tau_prime_series(pr, dense_gprime).to_truncated()
    for form in TAU_PREV_FORMS:
        assert tau_prev_series(pr, form).to_truncated() == \
            tau_prev_series(pr, form, dense_g).to_truncated()
    assert build_gprime(pr).vacuum_q_series() == dense_gprime.vacuum_q_series()
    assert build_g(pr).vacuum_q_series() == dense_g.vacuum_q_series()


def _restricted(vec, low: int) -> dict[int, Fraction]:
    """An integer-form vector as Fractions on the indices below low."""
    return {j: v for j, v in as_fractions(vec).items() if j < low}


def _in_lowest_terms(vec) -> bool:
    nums, den = vec
    return den > 0 and 0 not in nums.values() and math.gcd(den, *nums.values()) == 1


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("build", [build_g, build_gprime])
def test_time_vectors_pushed_once_for_every_l(build, first, monkeypatch):
    # the pushes read neither l nor the right family: whichever operator of
    # the point asks first makes one transfer.transfer_row call per time row,
    # and g and g' at the other l make none; every operator's rows and
    # columns are the dense oracle's on the weights <= NQ
    push, calls = toda.transfer_row, []
    monkeypatch.setattr(toda, "transfer_row", lambda *args: calls.append(args) or push(*args))
    for cached in (build_g, build_gprime, toda._pushes):
        cached.cache_clear()
    shape = dict(s=-1, p=Fraction(3, 7), K=2, D=2, NQ=3)
    other = build_gprime if build is build_g else build_g
    ops = [b(params(l=l, **shape)) for b in (build, other) for l in (first, 1 - first)]
    ops[0].time_vectors
    rows = _time_rows(ops[0].config.N, 2, 2)
    assert len(calls) == len(rows)
    for g in ops[1:]:
        g.time_vectors
    assert len(calls) == len(rows)
    low = len(get_basis(shape["NQ"]))
    for g in ops:
        for ours, dense in zip(g.time_vectors, DenseGraded(g.params, g.family).time_vectors):
            assert ours.keys() == dense.keys() == rows.keys()
            assert all(_in_lowest_terms(vec) for vec in ours.values())
            assert {a: as_fractions(v) for a, v in ours.items()} == (
                {a: _restricted(v, low) for a, v in dense.items()}), (g.family, g.config.l)


def test_all_tau_forms_stable_under_cutoff_growth():
    pr = params(p=Fraction(2, 3), **VECTOR_SHAPES[1])
    big = pr.with_cutoff(pr.N + 2)
    assert tau_prime_series(pr).to_truncated() == tau_prime_series(big).to_truncated()
    for form in TAU_PREV_FORMS:
        assert tau_prev_series(pr, form).to_truncated() == tau_prev_series(big, form).to_truncated()


def test_intertwining_at_p_other_than_half():
    pr = params(p=Fraction(2, 3), K=2, D=2, NQ=3)
    for k in (1, 2):
        assert intertwining_residual("g_true", k, pr).status == PASS
    assert intertwining_residual("gprime_fake", 1, pr).status == PASS


def _pushed_basis(g: GradedOperator):
    """(pushes, rows, cols): the toda._push u_i of each basis vector e_i, and
    e_i A and B e_i on the weights <= NQ as Fractions, built from the pushes
    as the time vectors are: e_i A is u_i dressed by p^{l W0}; B e_i is u_i
    for g, and for g' p^{-(w0(i) + w0(i'))} Omega u_{i'}, i' = Omega i, by the
    conjugation identities of `transfer`."""
    cfg, NQ = g.config, g.params.ctx.NQ
    w0, omega = w0_diag(cfg.s, cfg.N), transfer.conjugation(cfg.N)
    point = SectorConfig(cfg.s, cfg.N, cfg.p)
    pushes = [toda._push(({i: 1}, 1), point, NQ) for i in range(len(g.basis))]
    rows = [{j: v * cfg.p ** (cfg.l * w0[j]) for j, v in as_fractions(u).items()} for u in pushes]
    if g.family == "plain":
        return pushes, rows, [as_fractions(u) for u in pushes]
    cols = [{omega[j]: v * cfg.p ** -(w0[i] + w0[omega[i]])
             for j, v in as_fractions(pushes[omega[i]]).items()} for i in range(len(g.basis))]
    return pushes, rows, cols


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
@pytest.mark.parametrize("family", ["plain", "alternating"])
def test_pushed_basis_vectors_match_dense_pair(family, p):
    pr = params(p=p, s=-1, l=1, K=2, D=3, NQ=2)
    dense = DenseGraded(pr, family)
    low = len(get_basis(pr.ctx.NQ))
    pushes, rows, cols = _pushed_basis(GradedOperator(pr, family))
    # pushed vectors are in lowest terms over a positive denominator
    assert all(_in_lowest_terms(u) for u in pushes)
    for i, (row, col) in enumerate(zip(rows, cols)):
        e = {i: Fraction(1)}
        assert row == {j: v for j, v in dense.fraction_row(e).items() if j < low}
        assert col == {j: v for j, v in dense.fraction_col(e).items() if j < low}


# the (s, l, p, family) points of the graded blocks and of the mirrored columns
GRADED_POINTS = ((-1, 1, Fraction(2, 3), "plain"), (1, 0, Fraction(1, 2), "alternating"),
                 (0, 1, Fraction(3, 7), "alternating"))


@pytest.mark.parametrize("shape", [dict(K=2, D=2, NQ=3), dict(K=2, D=3, NQ=2)])
@pytest.mark.parametrize("s,l,p", [point[:3] for point in GRADED_POINTS])
def test_mirrored_columns_match_dense_columns(s, l, p, shape):
    # the columns of g', the plain pushes mirrored, against the dense
    # Fraction G"_-G"_+ p^{-W0} on each time row, and the rows against the
    # dense A, on the weights <= NQ
    pr = params(s=s, l=l, p=p, **shape)
    dense = DenseGraded(pr, "alternating")
    us, ws = build_gprime(pr).time_vectors
    rows = _time_rows(pr.N, pr.ctx.K, pr.ctx.D)
    low = len(get_basis(pr.ctx.NQ))
    assert ws.keys() == us.keys() == rows.keys()
    for b, r in rows.items():
        assert _in_lowest_terms(ws[b])
        assert as_fractions(ws[b]) == _restricted(dense.col((r, 1)), low), b
        assert as_fractions(us[b]) == _restricted(dense.row((r, 1)), low), b


def test_mirror_refuses_a_w0_not_symmetric_under_conjugation(monkeypatch):
    # w0 + w0 Omega must be one constant on the weight of each time row; with
    # the entry of the self-conjugate (2, 1) moved off, it takes two values on
    # weight 3, which the time row of J_1 J_2 has, and the mirror raises
    # instead of returning a column
    def moved(s, N, f=w0_diag):
        w0 = list(f(s, N))
        w0[get_basis(N).index[Partition([2, 1])]] += 1
        return tuple(w0)

    monkeypatch.setattr(toda, "w0_diag", moved)
    pr = params(s=0, l=1, p=Fraction(2, 3), K=2, D=2, NQ=2)
    toda._pushes.cache_clear()
    try:
        with pytest.raises(ValueError, match="w0 \\+ w0 Omega takes the values .* on weight 3"):
            GradedOperator(pr, "alternating").time_vectors
    finally:
        toda._pushes.cache_clear()


# N = 4 with NQ = 3, and N = 6 above NQ = 2 so that the cut at NQ is active
INTERTWINING_SHAPES = [dict(K=2, D=2, NQ=3), dict(K=2, D=3, NQ=2)]


def _kernel_entry(g, k: int, right_k: int, mask) -> dict | None:
    """The earliest nonzero entry of J_k g_n - g_n J_{right_k} inside the mask,
    by grade, then row, then column: the gram blocks of g read by the residual
    kernel, with the rows of J_k and of J_{right_k}, scaled by -1, as its
    sparse factors."""
    N = g.config.N
    for n in range(g.params.ctx.NQ + 1):
        block, den = g.gram(n)
        entry = sandwich_entry(block, j_rows(k, N), j_rows(right_k, N), 0, mask, g.basis,
                                f_right=-1)
        if entry:
            return {"grade": n, **entry_evidence(g.basis, *entry[:2], Fraction(entry[2], den))}
    return None


@pytest.mark.parametrize("shape", INTERTWINING_SHAPES)
def test_gram_blocks_match_dense_blocks(shape):
    # g_n read off the integer pair tables against A Pi_n B from the dense
    # Fraction pairs, and against the grade dots of the pushed basis vectors
    for s, l, p, family in GRADED_POINTS:
        pr = params(s=s, l=l, p=p, **shape)
        ours = GradedOperator(pr, family)
        dense = DenseGraded(pr, family)
        b = get_basis(pr.N)
        _, rows, cols = _pushed_basis(ours)
        for n in range(pr.ctx.NQ + 1):
            block, den = ours.gram(n)
            assert len(block) == len(b) and all(len(row) == len(b) for row in block)
            values = {i: {j: Fraction(v, den) for j, v in enumerate(row) if v}
                      for i, row in enumerate(block)}
            assert {i: row for i, row in values.items() if row} == dense.block(n).rows, (s, n)
            dots = {(i, j): sum((u * cols[j].get(nu, 0) for nu, u in rows[i].items()
                                 if b.weights[nu] == n), Fraction(0))
                    for i in range(len(b)) for j in range(len(b))}
            assert all(values[i].get(j, 0) == v for (i, j), v in dots.items()), (s, n)


@pytest.mark.parametrize("shape", INTERTWINING_SHAPES)
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(2, 3)])
@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("s", [-1, 0, 1])
def test_intertwining_matches_dense_blocks(s, l, p, shape):
    pr = params(s=s, l=l, p=p, **shape)
    for which, family, sign, key in (("g_true", "plain", -1, "worst"),
                                     ("gprime_fake", "alternating", 1, "nonzero_entry")):
        for k in (1, 2, -1):
            if which == "g_true" and k < 0:
                continue
            rep = intertwining_residual(which, k, pr)
            entry = dense_residual_entry(family, k, sign * k, pr)
            assert rep.evidence.get(key) == entry
            assert rep.status == (PASS if (entry is None) == (which == "g_true") else FAIL)
    # J_-1 g = g J_1 does not hold, so the check rejects k = -1 for 'g_true';
    # the pushed and the dense residuals still agree on its certified window
    with pytest.raises(ValueError):
        intertwining_residual("g_true", -1, pr)
    entry = _kernel_entry(build_g(pr), -1, 1, residual_mask(-1, 1, pr))
    assert entry is not None
    assert entry == dense_residual_entry("plain", -1, 1, pr)


@pytest.mark.parametrize("family,weights", [("plain", None), ("alternating", (2, 2))])
def test_residual_scan_order_matches_dense_blocks(family, weights):
    # J_-1 g - g J_1 has nonzero entries at both (empty, (1)) and ((1), empty),
    # so on the full mask the row order decides the reported entry. On the
    # weights (2, 2) of g' at s = -1 an earlier pair is nonzero only from
    # grade 1 on, so the grade order decides it.
    pr = params(s=-1, l=0, K=2, D=2, NQ=3)
    N = pr.N
    mask = tuple(tuple(weights in (None, (w1, w2)) for w2 in range(N + 1))
                 for w1 in range(N + 1))
    g = build_g(pr) if family == "plain" else build_gprime(pr)
    entry = _kernel_entry(g, -1, 1, mask)
    assert entry is not None
    assert entry == dense_residual_entry(family, -1, 1, pr, mask)


def test_intertwining_checks_of_a_model_point_share_its_blocks(monkeypatch):
    # g_true at k = 1 and 2 build each block of g once; g' reports its entry
    # at grade 0 and builds no other block
    built = []
    monkeypatch.setattr(GradedOperator, "gram",
                        lambda self, n, f=GradedOperator.gram: built.append((self.family, n)) or f(self, n))
    pr = params(s=1, l=1, p=Fraction(4, 9), K=2, D=2, NQ=3)
    assert all(intertwining_residual("g_true", k, pr).passed for k in (1, 2))
    assert built == [("plain", n) for n in range(4)]
    built.clear()
    assert intertwining_residual("gprime_fake", 1, pr).evidence["nonzero_entry"]["grade"] == 0
    assert built == [("alternating", 0)]


def test_flipped_j_sign_fails_as_dense_residual(monkeypatch):
    # one sign of J_1 flipped, in the table the check and the dense residual
    # both read: g_true fails at k = 1 on the dense residual's entry
    pr = params(s=0, l=1, p=Fraction(2, 3), K=2, D=2, NQ=3)

    def flipped(k, N, f=j_rows):
        rows = {i: dict(row) for i, row in f(k, N).items()}
        if k == 1:
            i = min(rows)
            j = min(rows[i])
            rows[i][j] = -rows[i][j]
        return rows

    monkeypatch.setattr(identities, "j_rows", flipped)
    rep = intertwining_residual("g_true", 1, pr)
    entry = dense_residual_entry(
        "plain", 1, -1, pr, j=lambda k, cfg: SectorOperator(cfg, get_basis(cfg.N), flipped(k, cfg.N)))
    assert rep.status == FAIL and entry is not None
    assert rep.evidence["worst"] == entry
    # the flip is in J_1 alone, so k = 2 still passes
    assert intertwining_residual("g_true", 2, pr).status == PASS


@pytest.mark.parametrize("k", [1, 2])
def test_intertwining_stable_under_cutoff_growth(k):
    pr = params(p=Fraction(2, 3), K=2, D=2, NQ=3)
    big = pr.with_cutoff(pr.N + 2)
    for which in ("g_true", "gprime_fake"):
        small_rep = intertwining_residual(which, k, pr)
        big_rep = intertwining_residual(which, k, big)
        assert small_rep.status == big_rep.status == PASS
        assert small_rep.evidence.get("nonzero_entry") == big_rep.evidence.get("nonzero_entry")


@st.composite
def small_heights(draw):
    b = draw(st.integers(2, 7))
    return Fraction(draw(st.integers(1, b - 1)), b)


@settings(max_examples=8, deadline=None)
@given(p=small_heights(), s=st.integers(-1, 1), l=st.integers(0, 1), NQ=st.integers(0, 3))
def test_intertwining_at_random_heights_matches_dense_blocks(p, s, l, NQ):
    # the integer pushes carry a denominator per vector, and its bookkeeping
    # depends on the height of p, which the fixed-p tests hold at 2 or 3
    pr = params(s=s, l=l, p=p, K=2, D=2, NQ=NQ)
    rep = intertwining_residual("gprime_fake", 1, pr)
    assert rep.evidence["nonzero_entry"] == dense_residual_entry("alternating", 1, 1, pr)
    for k in (1, 2):
        assert intertwining_residual("g_true", k, pr).status == PASS


# Q^2 t1: a coefficient at a high Q grade and a low t degree, where the
# grade-major layout of the integer series and the canonical order disagree
PERTURBED_KEY = (2, 1, 0, 0, 0)


def _perturbed(tau: GradedSeries, delta=Fraction(1, 7)) -> GradedSeries:
    series = tau.to_truncated()
    coeffs = dict(series.coeffs)
    coeffs[PERTURBED_KEY] = coeffs.get(PERTURBED_KEY, 0) + delta
    return GradedSeries.of(TruncatedSeries(series.ctx, coeffs))


def _difference_evidence(lhs, rhs) -> dict:
    label, va, vb = oracles.first_difference(lhs, rhs)
    return {"monomial": label, "lhs": str(va), "rhs": str(vb)}


def test_perturbed_tau_prime_fails_as_the_oracle_route(monkeypatch):
    # one coefficient of tau'_0 changed: the main identity and the bilinear
    # equation fail on the monomial and values the Fraction route finds
    pr = params(s=0, l=1, K=2, D=3, NQ=3)
    monkeypatch.setattr(identities, "tau_prime_series", lambda p, graded=None, f=tau_prime_series:
                        _perturbed(f(p, graded)) if p.s == 0 else f(p, graded))
    tau = identities.tau_prime_series(pr).to_truncated()
    lhs, rhs = zprime_series(pr), oracles.main_identity_rhs(pr, tau)
    rep = verify_main_identity(pr)
    assert rep.status == FAIL
    assert rep.evidence["first_difference"] == _difference_evidence(lhs, rhs)
    assert rep.window == len(set(lhs.coeffs) | set(rhs.coeffs))
    fam = tau_prime_family(pr, range(-2, 3))
    c = calibrate_bilinear_sign(2, 3)
    residuals = {s: oracles.bilinear_residual(fam[s].to_truncated(), fam[s + 1].to_truncated(),
                                              fam[s - 1].to_truncated(), c) for s in (-1, 0, 1)}
    center = next(s for s, residual in residuals.items() if residual)
    label, value = oracles.first_nonzero(residuals[center])
    rep = toda_bilinear_residual(fam)
    assert rep.status == FAIL and rep.evidence["center"] == center
    assert rep.evidence["first_nonzero"] == {"monomial": label, "value": str(value)}


def test_perturbed_prev_tau_fails_as_the_oracle_route(monkeypatch):
    # one coefficient of the left form of tau_0 changed: the previous-model
    # identity, the forms and the reduction fail as on the Fraction route
    pr = params(s=0, l=1, K=2, D=3, NQ=3)
    monkeypatch.setattr(identities, "tau_prev_series",
                        lambda p, form="left", graded=None, f=tau_prev_series:
                        _perturbed(f(p, form, graded)) if form == "left" else f(p, form, graded))
    left = identities.tau_prev_series(pr).to_truncated()
    sides = {
        verify_prev_identity: (z_series(pr), oracles.prev_identity_rhs(pr, left)),
        check_prev_forms: (left, tau_prev_series(pr, "symmetric").to_truncated()),
        check_prev_reduction: (tau_prev_series(pr, "reduced_2d").to_truncated(),
                               oracles.substitute_difference(left)),
    }
    for check, (lhs, rhs) in sides.items():
        rep = check(pr)
        assert rep.status == FAIL, check.__name__
        assert rep.evidence["first_difference"] == _difference_evidence(lhs, rhs), check.__name__
        assert rep.window == len(set(lhs.coeffs) | set(rhs.coeffs)), check.__name__
