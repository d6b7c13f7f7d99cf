import copy
import itertools
import math
import pickle
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from toda_crystal import (
    Partition,
    SectorConfig,
    schur_qrho,
    phi_potential,
    l0_eigenvalue,
    w0_eigenvalue,
)
from toda_crystal import checks, fock, transfer
from toda_crystal.shifts import v_rows
from toda_crystal.checks import FULL, LOWERING, RAISING, ShiftClass, banded, certified_window
from toda_crystal.fock import apply_row, get_basis, move_table, power_form, w0_diag
from toda_crystal.toda import _time_rows

import oracles
from oracles import (
    FockState,
    SectorOperator,
    add,
    apply_bilinear,
    apply_col,
    bilinear_diagonal,
    get,
    identity,
    j_op,
    matmul,
    scale,
    scale_rows,
    sub,
    transfer_weights,
    transpose,
    v_op,
)

P = Fraction(1, 2)


def cfg(s=0, N=6, p=P):
    return SectorConfig(s, N, p)


def test_config_validation():
    with pytest.raises(ValueError):
        SectorConfig(0, -1, P)
    with pytest.raises(ValueError):
        SectorConfig(0, 3, Fraction(3, 2))


def test_config_hash_is_taken_once_from_the_normalized_fields():
    # equal configs hash alike whatever form p was given in, and the hash
    # taken at construction is the one of the fields
    a, b = SectorConfig(1, 6, "2/3"), SectorConfig(1, 6, Fraction(4, 6))
    assert a == b and hash(a) == hash(b) == hash((1, 6, Fraction(2, 3), 0))
    assert len({a, b, SectorConfig(1, 6, Fraction(1, 3)), SectorConfig(1, 6, b.p, 1)}) == 3


def test_config_and_shift_class_are_value_records():
    a = SectorConfig(1, 6, Fraction(2, 3))
    assert a == SectorConfig(1, 6, Fraction(2, 3), 0) and a != (1, 6, Fraction(2, 3), 0)
    assert repr(a) == "SectorConfig(s=1, N=6, p=Fraction(2, 3), l=0)"
    with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
        a.p = P
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(twin) is SectorConfig and twin == a and hash(twin) == hash(a)
    assert banded(2) == ShiftClass("banded", 2) != banded(-2)
    assert hash(banded(2)) == hash(("banded", 2)) and RAISING == ShiftClass("raising", 0)
    assert len({RAISING, LOWERING, FULL, banded(0), ShiftClass("banded")}) == 4
    assert repr(banded(-1)) == "ShiftClass(kind='banded', delta=-1)"
    with pytest.raises(AttributeError):
        RAISING.delta = 1


def test_basis_counts():
    assert len(get_basis(0)) == 1
    assert len(get_basis(2)) == 4
    # oracle: sum of p(n) for n <= 5 via the pentagonal recurrence
    expected = sum(oracles.partition_count(n) for n in range(6))
    assert expected == 19
    assert len(get_basis(5)) == expected


def test_apply_bilinear_examples():
    vac = FockState(0, Partition([]))
    coeff, out = apply_bilinear(-1, 0, vac)
    assert coeff == 1 and out.shape == Partition([1])
    # both moves blocked: remove at an empty level
    assert apply_bilinear(-1, 5, vac) is None
    # add onto an occupied level
    assert apply_bilinear(3, -1, vac) is None


def test_bilinear_diagonal_l0_on_vacuum():
    for s in range(-3, 4):
        op = bilinear_diagonal(cfg(s=s, N=3), lambda n: Fraction(n))
        assert get(op, 0, 0) == Fraction(s * (s + 1), 2)


def test_bilinear_diagonals_match_closed_forms():
    b = get_basis(5)
    for s in (-2, -1, 0, 1, 2):
        c = cfg(s=s, N=5)
        l0 = bilinear_diagonal(c, lambda n: Fraction(n))
        w0 = bilinear_diagonal(c, lambda n: Fraction(n * n))
        for i, mu in enumerate(b.parts):
            assert get(l0, i, i) == l0_eigenvalue(mu, s)
            assert get(w0, i, i) == w0_eigenvalue(mu, s)


def test_w0_diag_examples():
    assert w0_diag(0, 4)[get_basis(4).index[Partition([1])]] == 1
    for s in (-2, 2, 3):
        assert w0_diag(s, 3)[0] == Fraction(s * (s + 1) * (2 * s + 1), 6)


def test_v_op_examples():
    c = cfg(N=5)
    b = get_basis(5)
    one = b.index[Partition([1])]
    empty = b.index[Partition([])]
    j1 = v_op(0, 1, c)
    assert get(j1, empty, one) == 1
    h1 = v_op(1, 0, c)
    q = P * P
    assert get(h1, one, one) == q - 1 == phi_potential(1, Partition([1]), 0, P)
    with pytest.raises(ValueError):
        v_op(1, 9, c)


def test_v_op_diagonal_matches_potential_closed_form():
    b = get_basis(5)
    for s in (-2, -1, 0, 1, 2):
        c = cfg(s=s, N=5)
        for k in (-3, -2, -1, 1, 2, 3):
            dv = v_op(k, 0, c)
            for i, mu in enumerate(b.parts):
                assert get(dv, i, i) == phi_potential(k, mu, s, P)


@pytest.mark.parametrize("N", [4, 6])
@pytest.mark.parametrize("p", [P, Fraction(2, 3)])
def test_v_op_matches_bilinear_oracle(N, p):
    for s in (-1, 0, 1):
        c = cfg(s=s, N=N, p=p)
        for k in range(-4, 5):
            for m in range(-N, N + 1):
                assert v_op(k, m, c).rows == oracles.v_op_by_bilinears(k, m, c).rows, (k, m, s)


def test_move_table_built_once_per_shift():
    # a p no other test draws, so every V below is built here; the p-free
    # terms are built once per shift and charge, whatever k, and the moves
    # once per shift, whatever the charge
    N = 4
    move_table.cache_clear()
    fock.v_terms.cache_clear()
    shifts = 2 * N  # every m != 0; the m = 0 diagonal needs no moves
    for charges, s in enumerate((1, -1), start=1):
        c = cfg(s=s, N=N, p=Fraction(5, 11))
        for k in range(-4, 5):
            for m in range(-N, N + 1):
                v_rows(k, m, c)
        info = move_table.cache_info()
        assert (info.misses, info.hits) == (shifts, (charges - 1) * shifts)
        info = fock.v_terms.cache_info()
        assert (info.misses, info.hits) == (charges * (shifts + 1), charges * 8 * (shifts + 1))
    assert move_table(1, N) is move_table(1, N)


@pytest.mark.parametrize("N", range(9))
def test_move_table_matches_oracle_moves(N):
    # the bit-mask moves, the same at every charge, with each source level
    # shifted to charge s, against the oracle's, made one move_particle at a
    # time on the level lists of the charge-s sector; m = 0 gives the
    # diagonal (j, j, 1, src)
    for s in range(-2, 3):
        for m in range(-N, N + 1):
            shifted = tuple((i, j, sign, src + s) for i, j, sign, src in move_table(m, N))
            assert shifted == oracles.move_table_by_moves(m, s, N), (m, s)


def test_v_rows_reads_no_fraction_power(monkeypatch):
    # V's numerators come off the p-free v_terms through power_form, with no
    # Fraction power; no Fraction operator is left in fock
    calls = []
    monkeypatch.setattr(Fraction, "__pow__", lambda *a, f=Fraction.__pow__: calls.append(a) or f(*a))
    c = cfg(s=1, N=5, p=Fraction(7, 17))
    for k in range(-3, 4):
        for m in (-5, -2, 0, 1, 4):
            v_rows.__wrapped__(k, m, c)
    assert calls == []
    assert not {"v_op", "j_op", "SectorOperator"} & set(vars(fock))


def _exponent_lists():
    """All-positive, all-negative, mixed and all-zero lists of exponents."""
    def mixed(t):
        neg, pos, rest = t
        return [neg, *rest, pos]

    return st.one_of(
        st.lists(st.integers(1, 12), min_size=1, max_size=6),
        st.lists(st.integers(-12, -1), min_size=1, max_size=6),
        st.tuples(st.integers(-12, -1), st.integers(1, 12),
                  st.lists(st.integers(-12, 12), max_size=4)).map(mixed),
        st.lists(st.just(0), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(p=st.integers(2, 9).flatmap(lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b))),
       exps=_exponent_lists())
def test_power_form_is_the_powers_in_lowest_terms(p, exps):
    nums, den = power_form(p, exps)
    assert [Fraction(v, den) for v in nums] == [p ** e for e in exps]
    assert den > 0 and all(type(v) is int for v in nums) and math.gcd(den, *nums) == 1


def test_power_form_of_no_exponent():
    # no power to write: no numerator, over the denominator 1
    assert power_form(Fraction(2, 3), []) == ((), 1)


def test_j_op_lowers_and_annihilates_ground_state():
    c = cfg(N=6)
    b = get_basis(6)
    for k in (1, 2, 3):
        jk = j_op(k, c)
        for i, row in jk.rows.items():
            for j in row:
                assert b.weights[i] == b.weights[j] - k
        assert apply_col(jk, {0: Fraction(1)}) == {}


def test_j_transpose_pairing():
    c = cfg(N=6)
    for k in (1, 2, 3):
        assert j_op(-k, c).rows == transpose(j_op(k, c)).rows
    # so the row vectors <0| prod J_k^{b_k} are the columns prod J_{-k}^{b_k} |0>
    for N, K, D in ((6, 2, 3), (9, 3, 3)):
        c = cfg(N=N)
        rows = _time_rows(N, K, D)
        for b, row in rows.items():
            col = {0: Fraction(1)}
            for k, e in enumerate(b, start=1):
                for _ in range(e):
                    col = apply_col(j_op(-k, c), col)
            assert col == row, (N, K, D, b)


def test_j_matrices_charge_independent():
    for k in (1, -2):
        a = j_op(k, cfg(s=0, N=5))
        b = j_op(k, cfg(s=2, N=5))
        c = j_op(k, cfg(s=-3, N=5))
        assert a.rows == b.rows == c.rows


def test_vertex_rows_are_schur_values():
    # <s|G_+ and G"_-|s>, the column 0 of G_- (G_+ is its transpose) and of
    # G"_-, read off the pushed rows e_i G_-, the latter relabelled by
    # conjugate partitions (Omega fixes the vacuum)
    for p in (P, Fraction(2, 3)):
        plain, d = transfer.minus_rows(p, 6)
        alternating = oracles.relabelled(dict(enumerate(plain)), transfer.conjugation(6))
        for i, mu in enumerate(get_basis(6).parts):
            assert Fraction(plain[i].get(0, 0), d) == schur_qrho(mu, p)
            assert Fraction(alternating[i].get(0, 0), d) == schur_qrho(mu.conjugate(), p)


def test_oracle_vertex_rows_are_schur_values():
    for s in (-1, 0, 1):
        c = cfg(s=s, N=6)
        row = apply_row({0: Fraction(1)}, oracles.dense_transfer(c, "plain", "lowering").rows)
        col = apply_col(oracles.dense_transfer(c, "alternating", "raising"), {0: Fraction(1)})
        for i, mu in enumerate(get_basis(6).parts):
            assert row.get(i, 0) == schur_qrho(mu, P)
            assert col.get(i, 0) == schur_qrho(mu.conjugate(), P)


def test_vertex_op_zero_coeffs_is_identity():
    c = cfg(N=4)
    op = oracles.dense_exp({k: Fraction(0) for k in range(1, 5)}, "lowering", c)
    assert op.rows == identity(c).rows
    with pytest.raises(ValueError):
        oracles.dense_exp({1: Fraction(1)}, "lowering", c)


def test_identity_product_certified_everywhere():
    c = cfg(N=4)
    v = v_op(1, 1, c)
    assert matmul(v, identity(c)).rows == v.rows
    mask, window = certified_window(4, ((banded(-1), banded(0)),))
    assert window == len(get_basis(4)) ** 2
    assert all(all(row) for row in mask)


def test_certificate_split_rule_raising_lowering():
    # G_- G_+: intermediates bounded by min(row, col), so everything certified,
    # and every entry of the pair cut at N agrees with the pair cut at N + 3
    N = 4
    mask, window = certified_window(N, ((RAISING, LOWERING),))
    assert window == len(get_basis(N)) ** 2
    small = oracles.dense_pair(cfg(N=N), "plain")
    big = oracles.dense_pair(cfg(N=N + 3), "plain")
    b_small, b_big = get_basis(N), get_basis(N + 3)
    for i, mu in enumerate(b_small.parts):
        for j, nu in enumerate(b_small.parts):
            assert get(small, i, j) == get(big, b_big.index[mu], b_big.index[nu])


def _certified_entries_agree(chain, factors, N, grown):
    """Whether the product of factors(config) cut at N agrees with the one
    cut at N + grown on every pair the chain's mask certifies, and whether
    some uncertified entry differs."""
    mask, _ = certified_window(N, (chain,))
    small = reduce(matmul, factors(cfg(N=N)))
    big = reduce(matmul, factors(cfg(N=N + grown)))
    b_small, b_big = get_basis(N), get_basis(N + grown)
    certified_ok, uncertified_differs = True, False
    for i, mu in enumerate(b_small.parts):
        for j, nu in enumerate(b_small.parts):
            same = get(small, i, j) == get(big, b_big.index[mu], b_big.index[nu])
            if mask[mu.weight][nu.weight]:
                certified_ok = certified_ok and same
            elif not same:
                uncertified_differs = True
    return certified_ok, uncertified_differs


def test_certificate_catches_truncation_error():
    # J_3 J_{-3} passes through energies 3 above the column weight
    certified_ok, uncertified_differs = _certified_entries_agree(
        (banded(-3), banded(3)), lambda c: (j_op(3, c), j_op(-3, c)), 4, 4)
    assert certified_ok
    assert uncertified_differs


def test_certified_entries_stable_under_cutoff_growth():
    certified_ok, _ = _certified_entries_agree(
        (banded(-2), banded(1)), lambda c: (v_op(1, 2, c), v_op(2, -1, c)), 5, 2)
    assert certified_ok


def test_matmul_rejects_mixed_configs():
    # the Fraction operator arithmetic of the oracles
    with pytest.raises(ValueError):
        matmul(j_op(1, cfg(N=4)), j_op(1, cfg(N=5)))
    with pytest.raises(ValueError):
        sub(j_op(1, cfg(N=4)), j_op(1, cfg(s=1, N=4)))


def test_transfer_weights_values():
    w = transfer_weights(P, 3, alternating=False)
    q = P * P
    assert w[1] == P / (1 - q)
    wa = transfer_weights(P, 3, alternating=True)
    assert wa[1] == w[1] and wa[2] == -w[2]


@pytest.mark.parametrize("p", [P, Fraction(2, 3), Fraction(6, 35)])
def test_transfer_generator_matches_oracle_weights(p):
    # the integer rows of Y = sum_k k c_k J_{-k}, the weight drop times the
    # exponent of G_-, built from p's numerator and denominator, against the
    # oracle's Fraction weights put on every move of J_{-k}, in the same
    # lowest-terms integer form; relabelled by conjugate partitions they are
    # the rows of the alternating Y
    for N in range(7):
        ys, den = transfer._y_rows(p, N)
        for family in ("plain", "alternating"):
            rows = {}
            for k, c in transfer_weights(p, N, family == "alternating").items():
                for i, j, sign, _ in move_table(-k, N):
                    rows.setdefault(i, {})[j] = sign * k * c
            ours = ys if family == "plain" else oracles.relabelled(ys, oracles.conjugation_by_cells(N))
            assert (ours, den) == oracles.integer_rows(rows), (N, family)


@pytest.mark.parametrize("N", range(10))
def test_conjugation_flips_the_even_current_modes(N):
    # Omega, the relabelling by conjugate partitions, against the transposed
    # cells; it fixes the vacuum, and Omega J_k Omega = (-1)^(k-1) J_k on the
    # moves of the oracle's level lists and on the package's rows
    omega = transfer.conjugation(N)
    assert omega == oracles.conjugation_by_cells(N)
    assert omega[0] == 0 and all(omega[omega[i]] == i for i in range(len(omega)))
    for k in (-3, -2, -1, 1, 2, 3):
        rows = {}
        for i, j, sign, _ in oracles.move_table_by_moves(k, 0, N):
            rows.setdefault(i, {})[j] = sign
        flipped = {i: {j: (-1) ** (k - 1) * v for j, v in row.items()} for i, row in rows.items()}
        assert oracles.relabelled(rows, omega) == flipped, k
        assert oracles.relabelled(fock.j_rows(k, N), omega) == flipped, k


@pytest.mark.parametrize("s", range(-2, 3))
def test_w0_plus_conjugate_w0_depends_on_the_weight_alone(s):
    # w0(lam) + w0(lam') = 2 (2s+1)|lam| + 2 w0(empty), on the W0 diagonal
    # assembled move by move, whose cut at 7 is the package's w0_diag
    N = 7
    w0 = bilinear_diagonal(SectorConfig(s, N, P), lambda n: Fraction(n * n)).rows
    w0 = [w0.get(i, {}).get(i, 0) for i in range(len(get_basis(N)))]
    assert tuple(w0) == w0_diag(s, N)
    omega = oracles.conjugation_by_cells(N)
    for i, mu in enumerate(get_basis(N).parts):
        assert w0[i] + w0[omega[i]] == 2 * (2 * s + 1) * mu.weight + 2 * w0[0], mu


@pytest.mark.parametrize("p", [P, Fraction(2, 3), Fraction(3, 7)])
@pytest.mark.parametrize("N", [4, 7])
def test_alternating_transfer_is_the_conjugated_plain_one(p, N):
    # the dense Fraction G"_- is the package's G_- relabelled by
    # transfer.conjugation, entry by entry, with no sign
    rows, den = transfer.minus_rows(p, N)
    ours = oracles.relabelled({i: {j: Fraction(v, den) for j, v in row.items()}
                               for i, row in enumerate(rows)}, transfer.conjugation(N))
    assert ours == oracles.dense_transfer(SectorConfig(0, N, p), "alternating", "raising").rows


SMALL_HEIGHT = st.integers(2, 7).flatmap(lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b)))


@settings(max_examples=40, deadline=None)
@given(p=SMALL_HEIGHT, N=st.integers(0, 7), family=st.sampled_from(("plain", "alternating")))
def test_minus_rows_match_dense_exponential(p, N, family):
    # the Y.G recurrence against the power series of dense Fraction matrices;
    # G"_- is G_- relabelled by conjugate partitions, over the same denominator
    rows, den = transfer.minus_rows(p, N)
    dense = oracles.dense_transfer(SectorConfig(0, N, p), family, "raising").rows
    assert len(rows) == len(get_basis(N))
    ours = dict(enumerate(rows))
    if family == "alternating":
        ours = oracles.relabelled(ours, oracles.conjugation_by_cells(N))
    assert {i: {j: Fraction(v, den) for j, v in row.items()} for i, row in ours.items()} == dense
    assert all(all(row.values()) for row in rows)
    assert math.gcd(den, *(v for row in rows for v in row.values())) == 1


@settings(max_examples=40, deadline=None)
@given(p=SMALL_HEIGHT, N=st.integers(0, 7), family=st.sampled_from(("plain", "alternating")),
       coeffs=st.lists(st.integers(-9, 9), min_size=45, max_size=45), den=st.integers(1, 9))
def test_transfer_row_matches_dense_exponential(p, N, family, coeffs, den):
    # the G.Y recurrence on a vector of each single weight, on one of mixed
    # weight, on the vacuum and on the empty vector, against the row product
    # with the power series of dense Fraction matrices; v G"_- is
    # (v Omega) G_- Omega, Omega the relabelling by conjugate partitions
    b = get_basis(N)
    dense = oracles.dense_transfer(SectorConfig(0, N, p), family, "raising").rows
    omega = oracles.conjugation_by_cells(N) if family == "alternating" else range(len(b))

    def push(vec):
        nums, d = transfer.transfer_row(({omega[i]: v for i, v in vec[0].items()}, vec[1]), p, N)
        return {omega[j]: v for j, v in nums.items()}, d

    vecs = [({i: coeffs[i] for i in b.weight_range[n]}, den) for n in range(N + 1)]
    vecs += [(dict(enumerate(coeffs[:len(b)])), den), ({0: 1}, 1), ({}, den)]
    for nums, d in vecs:
        got = push((nums, d))
        want = apply_row({i: Fraction(v, d) for i, v in nums.items()}, dense)
        assert {j: Fraction(v, got[1]) for j, v in got[0].items()} == want, (nums, d)
        assert all(got[0].values()) and math.gcd(got[1], *got[0].values()) == 1, got
    assert push(({0: 1}, 1)) == ({0: 1}, 1)
    assert push(({}, den)) == ({}, 1)


def _stores_no_zeros(op):
    return all(row and all(row.values()) for row in op.rows.values())


def test_sector_operator_stores_no_zeros():
    # the package's operators and the Fraction operator arithmetic of the oracles
    c = cfg(N=5)
    b = get_basis(5)
    one = Fraction(1)
    a = SectorOperator(c, b, {0: {0: one, 1: one}, 1: {1: 2 * one}})
    x = SectorOperator(c, b, {0: {0: -one}, 1: {0: one}})
    v, w = v_op(1, 1, c), v_op(2, -1, c)
    results = [
        add(a, x),                               # the (0, 0) entry cancels
        add(a, scale(a, -1)), sub(a, a), sub(v, v),  # everything cancels
        sub(a, x), add(v, w), sub(v, w), scale(v, 0),
        matmul(a, x),                            # row 0 of the product cancels
        matmul(v, w), matmul(w, v),
        scale_rows(a, lambda i: one if i else 0 * one),
        scale_rows(v, lambda i: Fraction(i + 1)),
        v_op(1, 2, c), v_op(-2, 0, c),
    ]
    for op in results:
        assert _stores_no_zeros(op)
    assert add(a, x).rows == {0: {1: one}, 1: {0: one, 1: 2 * one}}
    assert matmul(a, x).rows == {1: {0: 2 * one}}
    assert sub(a, a).rows == {} and sub(v, v).rows == scale(v, 0).rows
    assert sub(a, x).rows == add(a, scale(x, -1)).rows


def _package_chains(N):
    """The (chains, band) of every certified_window call a check can make in
    the sector cut at N, written from the indices as the checks write them."""
    cases = set()
    for m in range(-N, N + 1):  # commutators: V_m V_n and V_n V_m, in either order
        for n in range(-N, N + 1):
            if abs(m + n) <= N:
                cases.add((((banded(-m), banded(-n)), (banded(-n), banded(-m))), None))
    for k in range(1, 2 * N + 1):  # first shift: G_-G_+ V_m and V_{m+k} G_-G_+
        for m in range(-N, N + 1 - k):
            cases.add((((RAISING, LOWERING, banded(-m)), (banded(-(m + k)), RAISING, LOWERING)),
                       None))
    for m in range(-N, N + 1):  # second shift: the band of V_m
        cases.add(((), -m))
    for k in range(-N, N + 1):  # intertwining: J_k g_n and g_n J_{right_k}
        for right_k in (-k, k) if k else ():
            cases.add((((banded(-k), FULL), (FULL, banded(-right_k))), None))
    return cases


@pytest.mark.parametrize("N", range(10))
def test_certified_window_matches_the_split_rule_per_pair(N):
    # the bounds walked once per weight against the rule applied to every
    # weight pair, for every chain a check can ask for, and for three-factor
    # chains whose two split points bound differently
    kinds = (RAISING, LOWERING, FULL, banded(-2), banded(1))
    for chains, band in _package_chains(N) | {((chain,), None) for chain in
                                             itertools.product(kinds, repeat=3)}:
        assert certified_window(N, chains, band) == oracles.window_by_pairs(N, chains, band), (
            chains, band)


def test_checks_ask_for_the_written_chains(monkeypatch):
    # every certified_window call of `verify all` (N = 4) is one of the chains
    # written out above, and gives the per-pair rule's mask and window
    from toda_crystal import cli, identities, shifts, symmetries

    seen = set()

    def record(N, chains=(), band=None, f=checks.certified_window):
        seen.add((N, chains, band))
        return f(N, chains, band)

    for module in (symmetries, shifts, identities):
        monkeypatch.setattr(module, "certified_window", record)
    symmetries._certificate.cache_clear()
    args = cli._build_parser().parse_args(["verify", "all", "--K", "2", "--D", "2", "--NQ", "3"])
    for task in cli._task_list("all", cli.RunConfig.from_args(args)):
        cli.CHECKS[task["kind"]].run(task)
    assert {N for N, _, _ in seen} == {4}
    assert {(chains, band) for _, chains, band in seen} <= _package_chains(4)
    assert {band for _, _, band in seen} > {None}
    for N, chains, band in seen:
        assert certified_window(N, chains, band) == oracles.window_by_pairs(N, chains, band)


@pytest.mark.parametrize("N", range(8))
def test_certified_window_matches_pair_count(N):
    """The mask and window of every check's chains against predicates
    written out from the weights, and against the pair count."""
    cases = []  # (chains, band, the predicate written out)
    for m in range(-3, 4):  # commutators: V_m V_n and V_n V_m
        for n in range(-3, 4):
            def commutator(w1, w2, m=m, n=n):
                return (min(w1 + max(0, m), w2 + max(0, -n)) <= N
                        and min(w1 + max(0, n), w2 + max(0, -m)) <= N)

            cases.append((((banded(-m), banded(-n)), (banded(-n), banded(-m))), None,
                          commutator))
    for k in (1, 2):  # first shift: G_-G_+ V_m and V_{m+k} G_-G_+
        for m in range(-2, 3):
            def first_shift(w1, w2, m=m, k=k):
                return w2 + max(0, -m) <= N and w1 + max(0, m + k) <= N

            cases.append((((RAISING, LOWERING, banded(-m)), (banded(-(m + k)), RAISING, LOWERING)),
                          None, first_shift))
    for m in range(-2, 3):  # second shift: the band of V_m
        cases.append(((), -m, lambda w1, w2, m=m: w1 == w2 - m))
        b = get_basis(N)
        band_count = sum(len(b.weight_range[w]) * len(b.weight_range[w - m])
                         for w in range(N + 1) if 0 <= w - m <= N)
        assert certified_window(N, band=-m)[1] == band_count
    for k in (-3, -2, -1, 1, 2, 3):  # intertwining: J_k g_n and g_n J_{right_k}
        for right_k in (-k, k):
            def written_out(wl, wm, k=k, right_k=right_k):
                left_ok = (wl + k <= N) if k > 0 else True
                right_ok = (wm - right_k <= N) if right_k < 0 else True
                return left_ok and right_ok

            cases.append((((banded(-k), FULL), (FULL, banded(-right_k))), None, written_out))
    # a RAISING factor keeps the row-side bound, a LOWERING factor the
    # col-side bound; facing the other way they leave both sides unbounded
    cases.append((((RAISING, FULL), (FULL, LOWERING)), None, lambda w1, w2: True))
    for chain in ((LOWERING, FULL), (FULL, RAISING)):
        cases.append(((chain,), None, lambda w1, w2: False))
    for chains, band, certified in cases:
        mask, window = certified_window(N, chains, band)
        assert [list(row) for row in mask] == \
            [[certified(w1, w2) for w2 in range(N + 1)] for w1 in range(N + 1)]
        assert window == oracles.window_size_by_pairs(N, certified)
