import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toda_crystal import (
    ModelParams,
    Partition,
    SectorConfig,
    SeriesContext,
    commutator_check,
    first_shift_check,
    second_shift_check,
    torus_constant,
)
from toda_crystal import fock, symmetries
from toda_crystal.fock import banded, get_basis
from toda_crystal.symmetries import FAIL, INSUFFICIENT, PASS, CheckReport
from toda_crystal.toda import GradedOperator

import oracles
from oracles import SectorOperator, v_op

P = Fraction(1, 2)


def cfg(s=0, N=6):
    return SectorConfig(s, N, P)


def test_reports_never_share_evidence():
    a, b = CheckReport("c", {"s": 0}, INSUFFICIENT), CheckReport("c", {"s": 0}, INSUFFICIENT)
    assert a.evidence == {} and a.evidence is not b.evidence and a.window == 0
    a.evidence["worst"] = 1
    a.status, a.window = FAIL, 3
    assert b.evidence == {} and b.status == INSUFFICIENT
    assert a.to_json_dict() == {"check": "c", "params": {"s": 0}, "status": FAIL,
                                "evidence": {"worst": 1, "window": 3}}
    given = {"reason": "r"}
    assert CheckReport("c", {}, PASS, given, 2).evidence is given
    with pytest.raises(AttributeError):
        a.extra = 1


def test_torus_constant():
    q = P * P
    assert torus_constant(1, P) == q / (1 - q) == Fraction(1, 3)
    assert torus_constant(-1, P) == -1 / (1 - q)
    with pytest.raises(ValueError):
        torus_constant(0, P)


def test_commutator_spec_points():
    assert commutator_check(1, 0, 0, 1, cfg()).status == PASS
    assert commutator_check(1, 2, 2, -1, cfg(N=8)).status == PASS


def test_commutator_zero_prefactor_cases():
    # [J_m, J_n] with m + n != 0 has a vanishing prefactor
    for m, n in ((1, 2), (2, -1), (-1, -2)):
        assert commutator_check(0, m, 0, n, cfg()).status == PASS


def test_commutator_central_sign_reported():
    rep = commutator_check(0, 1, 0, -1, cfg())
    assert rep.status == PASS
    assert rep.evidence["central_sign"] in (1, -1)
    rep2 = commutator_check(2, 3, -2, -3, cfg())
    assert rep2.status == PASS
    assert rep2.evidence["central_sign"] == rep.evidence["central_sign"]


def test_commutator_insufficient_window():
    rep = commutator_check(1, 3, 0, 2, SectorConfig(0, 2, P))
    assert rep.status == INSUFFICIENT


def test_commutator_small_grid():
    for k in (-1, 0, 1):
        for l in (-1, 2):
            for m in (-2, 0, 1):
                for n in (-1, 3):
                    rep = commutator_check(k, m, l, n, cfg(s=1, N=6))
                    assert rep.status == PASS, (k, m, l, n, rep.evidence)


def test_first_shift_spec_points():
    assert first_shift_check("G", 1, -1, cfg()).status == PASS
    assert first_shift_check("G", 1, 0, cfg()).status == PASS
    assert first_shift_check("G", 2, 1, cfg(s=1, N=8)).status == PASS
    rep = first_shift_check("Gprime", 1, 0, cfg())
    assert rep.status == PASS
    # alternating family realizes the constant q^-k/(1-q^-k) = -1/(1-q^k)
    assert Fraction(rep.evidence["constant"]) == torus_constant(-1, P)


def test_first_shift_small_grid():
    for variant in ("G", "Gprime"):
        for k in (1, 2):
            for m in (-2, -1, 0, 1, 2):
                for s in (-1, 0, 1):
                    rep = first_shift_check(variant, k, m, cfg(s=s))
                    assert rep.status == PASS, (variant, k, m, s, rep.evidence)


@pytest.mark.parametrize("family", ["plain", "alternating"])
@pytest.mark.parametrize("p", [P, Fraction(1, 3), Fraction(2, 3)])
@pytest.mark.parametrize("N", [4, 7])
def test_pushed_pair_rows_match_dense_pair(family, p, N):
    # the dots of the rows of G_- are the dense product G_- G_+ on the columns
    # of weight <= cap, for cap = N and below it
    dense = oracles.dense_pair(SectorConfig(0, N, p), family).rows
    for cap in (N, N - 2, 0):
        table, den = fock.pair_table(p, N, family, cap)
        width = len(get_basis(cap))
        assert len(table) == len(get_basis(N)) and all(len(row) == width for row in table)
        assert _in_lowest_terms((v for row in table for v in row if v), den)
        values = _values(dict(enumerate(dict(enumerate(row)) for row in table)), den)
        assert values == _values({i: {j: v for j, v in row.items() if j < width}
                                  for i, row in dense.items()}, 1), cap


@pytest.mark.parametrize("family", ["plain", "alternating"])
@pytest.mark.parametrize("p", [P, Fraction(1, 3), Fraction(2, 3)])
def test_minus_rows_are_stable_under_the_cut(family, p):
    # the rows e_i G_- of weight <= c, taken in the sector cut at N, are those
    # of the sector cut at c: the exactness of pair_dots over minus_rows(cap)
    rows, den = fock.minus_rows(p, 7, family)
    dense = oracles.dense_transfer(SectorConfig(0, 7, p), family, "raising").rows
    assert _values(dict(enumerate(rows)), den) == dense
    for c in range(8):
        small, small_den = fock.minus_rows(p, c, family)
        assert _values(dict(enumerate(rows[:len(small)])), den) == (
            _values(dict(enumerate(small)), small_den))


def test_pair_table_pushes_each_basis_vector_once(monkeypatch):
    # at one (p, N, family) each basis vector is pushed through G_- once, and
    # the first shift and the graded blocks at that point share those pushes
    pushes = []
    monkeypatch.setattr(fock, "transfer_row",
                        lambda vec, p, N, family, f=fock.transfer_row:
                        pushes.append((N, family, vec)) or f(vec, p, N, family))
    fock.minus_rows.cache_clear()
    fock.pair_table.cache_clear()
    p, N, NQ = Fraction(3, 5), 6, 2
    assert first_shift_check("G", 1, 0, SectorConfig(0, N, p)).passed
    assert first_shift_check("Gprime", 1, 0, SectorConfig(1, N, p)).passed
    basis = [(N, family, ({i: 1}, 1)) for family in ("plain", "alternating")
             for i in range(len(get_basis(N)))]
    assert pushes == basis
    pushes.clear()
    pr = ModelParams(0, 1, p, SeriesContext(2, 3, NQ), N)
    for family in ("plain", "alternating"):
        GradedOperator(pr, family).gram(0)
    # the graded blocks read the columns of weight <= NQ, whose rows of G_-
    # are those of the sector cut at NQ, pushed there once each
    assert pushes == [(NQ, family, ({i: 1}, 1)) for family in ("plain", "alternating")
                      for i in range(len(get_basis(NQ)))]
    fock.minus_rows.cache_clear()
    fock.pair_table.cache_clear()


def _dense_pair_table(p, N, family, cap):
    rows, den = oracles.integer_rows(oracles.dense_pair(SectorConfig(0, N, p), family).rows)
    return [[rows.get(i, {}).get(j, 0) for j in range(len(get_basis(cap)))]
            for i in range(len(get_basis(N)))], den


def test_first_shift_reports_match_dense_pair(monkeypatch):
    points = [(variant, k, m, SectorConfig(s, 6, p)) for p in (P, Fraction(2, 3))
              for variant in ("G", "Gprime") for k in (1, 2)
              for m in (-2, -1, 0, 1, 2) for s in (-1, 0, 1)]
    pushed = [first_shift_check(*point).to_json_dict() for point in points]
    calls = []
    monkeypatch.setattr(symmetries, "pair_table", lambda p, N, family, cap: calls.append(
        family) or _dense_pair_table(p, N, family, cap))
    assert [first_shift_check(*point).to_json_dict() for point in points] == pushed
    assert len(calls) == len(points)
    assert all(line["status"] == PASS for line in pushed)


POOL = (P, Fraction(1, 3), Fraction(2, 3))
# the grid of `verify commutators` at one charge
COMMUTATOR_GRID = [(k, m, l, n) for k in range(-2, 3) for l in range(-2, 3)
                   for m in range(-3, 4) for n in range(-3, 4)]
FIRST_SHIFT_GRID = [(variant, k, m) for variant in ("G", "Gprime") for k in (1, 2)
                    for m in (-2, -1, 0, 1, 2)]


def _same_reports(check, oracle, grid, configs) -> list[dict]:
    """The report dicts of check over grid and configs, asserted equal to
    the oracle's."""
    lines = []
    for config in configs:
        for args in grid:
            line = check(*args, config).to_json_dict()
            assert line == oracle(*args, config).to_json_dict(), (args, config)
            lines.append(line)
    return lines


@pytest.mark.parametrize("p", POOL)
def test_commutator_reports_match_fraction_oracle(p):
    lines = _same_reports(commutator_check, oracles.fraction_commutator_check,
                          COMMUTATOR_GRID, [SectorConfig(0, 6, p)])
    assert all(line["status"] == PASS for line in lines)
    # at N = 3 some shifts exceed the cutoff, m + n among them
    lines = _same_reports(commutator_check, oracles.fraction_commutator_check,
                          COMMUTATOR_GRID, [SectorConfig(0, 3, p)])
    assert {line["status"] for line in lines} == {PASS, INSUFFICIENT}


@pytest.mark.parametrize("p", POOL)
def test_first_shift_reports_match_fraction_oracle(p):
    lines = _same_reports(first_shift_check, oracles.fraction_first_shift_check,
                          FIRST_SHIFT_GRID, [SectorConfig(s, 6, p) for s in (-1, 0, 1)])
    assert all(line["status"] == PASS for line in lines)


def _doubled_identity(monkeypatch):
    # every commutator central term, the degenerate sigma * m included, comes
    # out twice too large; both commutator routes read it from central_term
    monkeypatch.setattr(symmetries, "central_term",
                        lambda *a, f=symmetries.central_term: 2 * f(*a))


def _doubled_shift_identity(monkeypatch):
    # the c * 1 of both first-shift routes comes out twice too large; both
    # routes read c from torus_constant
    monkeypatch.setattr(symmetries, "torus_constant",
                        lambda j, p, f=symmetries.torus_constant: 2 * f(j, p))


WRONG_RELATIONS = {
    "flipped_prefactor": lambda mp: mp.setattr(
        symmetries, "torus_prefactor", lambda *a, f=symmetries.torus_prefactor: -f(*a)),
    "wrong_constant": lambda mp: mp.setattr(
        symmetries, "torus_constant", lambda j, p, f=symmetries.torus_constant: f(j, p) + 1),
    "doubled_identity": _doubled_identity,
}
# the first shift takes its c * 1 from torus_constant, not central_term
FIRST_SHIFT_RELATIONS = dict(WRONG_RELATIONS, doubled_identity=_doubled_shift_identity)


@pytest.mark.parametrize("wrong", sorted(WRONG_RELATIONS))
def test_wrong_relations_fail_as_in_fraction_oracle(wrong):
    config = SectorConfig(0, 6, Fraction(2, 3))
    grid = [(k, m, l, n) for k, m, l, n in COMMUTATOR_GRID if abs(k) < 2 and abs(l) < 2]
    failed = {}
    for relations, check, oracle, points in (
            (WRONG_RELATIONS, commutator_check, oracles.fraction_commutator_check, grid),
            (FIRST_SHIFT_RELATIONS, first_shift_check, oracles.fraction_first_shift_check,
             FIRST_SHIFT_GRID)):
        with pytest.MonkeyPatch.context() as mp:
            relations[wrong](mp)
            lines = _same_reports(check, oracle, points, [config])
        failed[check] = [line for line in lines if line["status"] == FAIL]
    # the first shift reads no torus prefactor; every other fault reaches both
    assert failed[commutator_check]
    assert bool(failed[first_shift_check]) == (wrong != "flipped_prefactor")
    assert all(line["evidence"]["worst"]["value"] != "0"
               for lines in failed.values() for line in lines)


def _fractions_of_small_height():
    return st.integers(2, 7).flatmap(lambda b: st.integers(1, b - 1).map(lambda a: Fraction(a, b)))


@settings(max_examples=200, deadline=None)
@given(p=_fractions_of_small_height(), s=st.sampled_from((-1, 0, 1)), N=st.integers(3, 6),
       k=st.integers(-2, 2), l=st.integers(-2, 2), m=st.integers(-3, 3), n=st.integers(-3, 3),
       flipped=st.booleans())
def test_commutator_stream_matches_fraction_oracle(p, s, N, k, l, m, n, flipped):
    config = SectorConfig(s, N, p)
    with pytest.MonkeyPatch.context() as mp:
        if flipped:
            WRONG_RELATIONS["flipped_prefactor"](mp)
        assert (commutator_check(k, m, l, n, config).to_json_dict()
                == oracles.fraction_commutator_check(k, m, l, n, config).to_json_dict())


@settings(max_examples=150, deadline=None)
@given(p=_fractions_of_small_height(), s=st.integers(-2, 2), N=st.integers(3, 8),
       args=st.sampled_from(COMMUTATOR_GRID))
def test_commutator_slots_match_fraction_oracle(p, s, N, args):
    config = SectorConfig(s, N, p)
    assert (commutator_check(*args, config).to_json_dict()
            == oracles.fraction_commutator_check(*args, config).to_json_dict())


def test_wrong_relations_fail_after_a_warm_pass():
    # the unpatched pass fills every cache the checks read; each wrong
    # relation must still reach the reports, so no cache may hold a relation
    config = SectorConfig(0, 6, Fraction(2, 3))
    assert all(commutator_check(*args, config).passed for args in COMMUTATOR_GRID)
    assert all(first_shift_check(*args, config).passed for args in FIRST_SHIFT_GRID)
    grid = [(k, m, l, n) for k, m, l, n in COMMUTATOR_GRID if abs(k) < 2 and abs(l) < 2]
    for wrong in sorted(WRONG_RELATIONS):
        for relations, check, oracle, points in (
                (WRONG_RELATIONS, commutator_check, oracles.fraction_commutator_check, grid),
                (FIRST_SHIFT_RELATIONS, first_shift_check, oracles.fraction_first_shift_check,
                 FIRST_SHIFT_GRID)):
            with pytest.MonkeyPatch.context() as mp:
                relations[wrong](mp)
                lines = _same_reports(check, oracle, points, [config])
            failed = [line for line in lines if line["status"] == FAIL]
            # the first shift reads no torus prefactor
            assert bool(failed) == (check is commutator_check or wrong != "flipped_prefactor"), (
                wrong, check.__name__)


def test_flipped_v_numerator_fails_first_shift_as_fraction_oracle(monkeypatch):
    # one numerator of V^(1)_1 negated, in the table both routes read: the
    # checks whose V factors include it fail, each on the oracle's entry
    config = SectorConfig(0, 6, Fraction(2, 3))

    def flipped(k, m, config, f=fock.v_int):
        values, den = f(k, m, config)
        return ((-values[0], *values[1:]) if (k, m) == (1, 1) else values), den

    for module in (symmetries, oracles):
        monkeypatch.setattr(module, "v_int", flipped)
    # both routes cache what they read of v_int
    caches = (oracles.v_op, symmetries._v_rows)
    for cached in caches:
        cached.cache_clear()
    try:
        lines = _same_reports(first_shift_check, oracles.fraction_first_shift_check,
                              FIRST_SHIFT_GRID, [config])
    finally:
        for cached in caches:
            cached.cache_clear()
    failed = {(line["params"]["variant"], line["params"]["k"], line["params"]["m"])
              for line in lines if line["status"] == FAIL}
    assert failed == {("G", 1, 0), ("G", 1, 1)}


@settings(max_examples=150, deadline=None)
@given(p=_fractions_of_small_height(), s=st.sampled_from((-1, 0, 1)), N=st.integers(3, 6),
       variant=st.sampled_from(("G", "Gprime")), k=st.integers(1, 2), m=st.integers(-3, 3),
       wrong=st.sampled_from((None, *sorted(FIRST_SHIFT_RELATIONS))))
def test_first_shift_stream_matches_fraction_oracle(p, s, N, variant, k, m, wrong):
    config = SectorConfig(s, N, p)
    with pytest.MonkeyPatch.context() as mp:
        if wrong:
            FIRST_SHIFT_RELATIONS[wrong](mp)
        assert (first_shift_check(variant, k, m, config).to_json_dict()
                == oracles.fraction_first_shift_check(variant, k, m, config).to_json_dict())


SECOND_SHIFT_GRID = [(k, m) for k in range(-2, 3) for m in range(-2, 3)]


@pytest.mark.parametrize("p", [P, Fraction(2, 3), Fraction(3, 7)])
def test_second_shift_reports_match_fraction_oracle(p):
    # both routes take V from fock.v_int, so a wrong exponent helper would move
    # both sides at once; test_v_op_matches_bilinear_oracle is the test that
    # catches it
    lines = _same_reports(second_shift_check, oracles.fraction_second_shift_check,
                          SECOND_SHIFT_GRID,
                          [SectorConfig(s, N, p) for s in (-1, 0, 1) for N in (4, 6)])
    assert all(line["status"] == PASS for line in lines)


def test_perturbed_w0_fails_both_second_shift_routes(monkeypatch):
    # one W0 eigenvalue off by one, in the table both routes read
    index = get_basis(6).index[Partition([2, 1])]

    def perturbed(s, N, f=fock.w0_diag):
        w0 = list(f(s, N))
        w0[index] += 1
        return tuple(w0)

    for module in (symmetries, oracles):
        monkeypatch.setattr(module, "w0_diag", perturbed)
    lines = _same_reports(second_shift_check, oracles.fraction_second_shift_check,
                          SECOND_SHIFT_GRID, [SectorConfig(0, 6, Fraction(2, 3))])
    failed = [line for line in lines if line["status"] == FAIL]
    assert failed
    assert all(line["params"]["m"] != 0 and line["evidence"]["worst"]["value"] != "0"
               for line in failed)


def _in_lowest_terms(values, den) -> bool:
    values = list(values)
    return (den > 0 and all(type(v) is int for v in values) and 0 not in values
            and math.gcd(den, *values) == 1)


def _scanned_residuals(monkeypatch) -> list:
    """Records, for every call of the residual kernel _sandwich_entry, the
    rows of diag T + f_left L T + T f_right R of a weight its mask reads, each
    row whole (uncertified entries included) as {i: {j: numerator}}, formed
    here from the kernel's inputs entry by entry."""
    seen = []
    scan = symmetries._sandwich_entry

    def record(table, left, right, diag, mask, basis_obj, f_left=1, f_right=1):
        dim, w = len(table), basis_obj.weights
        rows = {i: {j: diag * table[i][j]
                    + f_left * sum(u * table[x][j] for x, u in left.get(i, {}).items())
                    + f_right * sum(table[i][x] * r.get(j, 0) for x, r in right.items())
                    for j in range(dim)}
                for i in range(dim) if any(mask[w[i]])}
        seen.append(rows)
        return scan(table, left, right, diag, mask, basis_obj, f_left, f_right)

    monkeypatch.setattr(symmetries, "_sandwich_entry", record)
    return seen


def _values(rows, den) -> dict:
    values = {i: {j: Fraction(v, den) for j, v in row.items() if v} for i, row in rows.items()}
    return {i: row for i, row in values.items() if row}


def _commutator_mask(m, n, N) -> tuple:
    """The commutator's certified_window mask, from the chains in the order
    the oracle writes them."""
    return fock.certified_window(N, ((banded(-m), banded(-n)), (banded(-n), banded(-m))))[0]


def _certified_rows(rows, mask, N) -> dict:
    """The nonzero entries of rows {i: {j: value}} in cells the mask certifies."""
    w = get_basis(N).weights
    return _values({i: {j: v for j, v in row.items() if mask[w[i]][w[j]]}
                    for i, row in rows.items()}, 1)


def _pattern_rows(m, config, values) -> dict:
    """{i: {j: value}} of values aligned with fock.v_pattern(m, s, N)."""
    rows = {}
    for (i, j), v in zip(fock.v_pattern(m, config.s, config.N), values):
        rows.setdefault(i, {})[j] = v
    return rows


def _slot_rows(slots, terms, den, N) -> dict:
    """{i: {j: value}} of the terms (slot, numerator) over den, each slot read
    as its key i*dim + j, the numerators of a slot summed and zeros dropped."""
    acc = {}
    for t, v in terms:
        acc[slots[t]] = acc.get(slots[t], 0) + v
    rows = {}
    for key, v in acc.items():
        i, j = divmod(key, len(get_basis(N)))
        rows.setdefault(i, {})[j] = v
    return _values(rows, den)


def test_integer_forms_hold_ints_in_lowest_terms(monkeypatch):
    config = SectorConfig(1, 6, Fraction(2, 3))
    for k, m in ((2, -3), (-1, 0), (0, 2), (1, 1)):
        values, den = fock.v_int(k, m, config)
        # only the m = 0 diagonal keeps zeros, at its place in v_pattern
        assert m == 0 or 0 not in values
        assert _in_lowest_terms((v for v in values if v), den)
        assert _values(_pattern_rows(m, config, values), den) == (
            oracles.v_op_by_bilinears(k, m, config).rows)
    for family in ("plain", "alternating"):
        table, den = fock.pair_table(config.p, 6, family, 6)
        # the table is dense: its nonzero entries are in lowest terms with den
        assert _in_lowest_terms((v for row in table for v in row if v), den)
    seen = []
    monkeypatch.setattr(symmetries, "_product_part",
                        lambda *a, f=symmetries._product_part: seen.append(f(*a)) or seen[-1])
    # at (2, 1, -1, 2) the residual vanishes on every certified cell; at
    # (1, -2, 2, 3) it has 60 nonzero entries, all in uncertified cells
    for (k, m, l, n), uncertified in (((2, 1, -1, 2), 0), ((1, -2, 2, 3), 60)):
        seen.clear()
        assert commutator_check(k, m, l, n, config).status == PASS
        (acc, den), = seen
        # the product is filled over a common denominator, not reduced: only
        # a reported entry becomes a Fraction
        assert den > 0 and all(type(v) is int for v in acc)
        v1, v2 = v_op(k, m, config), v_op(l, n, config)
        product = oracles.sub(oracles.matmul(v1, v2), oracles.matmul(v2, v1))
        residual = oracles.sub(product, oracles.scale(
            v_op(k + l, m + n, config), symmetries.torus_prefactor(k, m, l, n, config.p)))
        mask, slots = _commutator_mask(m, n, 6), symmetries._commutator_tables(m, n, 1, 6)[1]
        w, dim = get_basis(6).weights, len(get_basis(6))
        assert sum(not mask[w[i]][w[j]] for i, row in residual.rows.items()
                   for j in row) == uncertified
        # one numerator per slot, each slot a certified cell: no uncertified
        # cell is formed, and on the certified cells it is the Fraction product
        assert len(acc) == len(slots)
        assert all(mask[w[key // dim]][w[key % dim]] for key in slots)
        assert _slot_rows(slots, enumerate(acc), den, 6) == _certified_rows(product.rows, mask, 6)


@pytest.mark.parametrize("N,pairs", [
    (6, [(m, n) for m in range(-3, 4) for n in range(-3, 4)]),
    (8, [(0, 0), (0, -2), (3, 0), (1, -1), (-4, 2), (2, 4)]),
])
def test_commutator_tables_reproduce_the_products(N, pairs):
    # the path tables, the V^(k+l)_{m+n} slots and the diagonal slots against
    # Fraction operators on the certified cells; (k, l) = (0, 0) reads
    # V^(0)_0, whose diagonal vanishes at the vacuum and keeps that entry
    for s in (-1, 0, 1):
        config = SectorConfig(s, N, Fraction(2, 3))
        for m, n in pairs:
            mask = _commutator_mask(m, n, N)
            assert all(any(row) for row in mask)  # the mask reads every row weight
            _, slots, forward, backward, third, diagonal = symmetries._commutator_tables(m, n, s, N)
            for k, l in ((0, 0), (1, -2)):
                (v1, d1), (v2, d2) = fock.v_int(k, m, config), fock.v_int(l, n, config)
                a1, a2 = v_op(k, m, config), v_op(l, n, config)
                for paths, (x, y), (left, right) in ((forward, (v1, v2), (a1, a2)),
                                                     (backward, (v2, v1), (a2, a1))):
                    assert _slot_rows(slots, ((t, x[a] * y[b]) for t, a, b in paths),
                                      d1 * d2, N) == (
                        _certified_rows(oracles.matmul(left, right).rows, mask, N)), (s, m, n)
                v3, d3 = fock.v_int(k + l, m + n, config)
                assert _slot_rows(slots, ((t, v3[c]) for t, c in third), d3, N) == (
                    _certified_rows(v_op(k + l, m + n, config).rows, mask, N)), (s, m, n)
            ones = oracles.identity(config).rows
            assert _slot_rows(slots, ((t, 1) for t, _ in diagonal), 1, N) == (
                _certified_rows(ones, mask, N))
    assert fock.v_pattern(0, 0, N)[0] == (0, 0)
    assert fock.v_int(0, 0, SectorConfig(0, N, P))[0][0] == 0


@pytest.mark.parametrize("N", [3, 6, 9])
def test_commutator_slot_tables_hold_certified_cells_in_order(N):
    # the keys ascend, so the first nonzero slot is the least (row, col); each
    # is a certified cell that some term lands in; the V^(k+l)_{m+n} and
    # diagonal slots are slots, and the diagonal ones are every certified (i, i)
    b = get_basis(N)
    dim, w = len(b), b.weights
    for s in (-1, 0, 1):
        for m in range(-3, 4):
            for n in range(-3, 4):
                window, slots, forward, backward, third, diagonal = (
                    symmetries._commutator_tables(m, n, s, N))
                mask = _commutator_mask(m, n, N)
                assert window == fock.certified_window(
                    N, ((banded(-m), banded(-n)), (banded(-n), banded(-m))))[1]
                assert list(slots) == sorted(set(slots))
                assert all(mask[w[key // dim]][w[key % dim]] for key in slots)
                third_slots, diagonal_slots = {t for t, _ in third}, {t for t, _ in diagonal}
                assert third_slots | diagonal_slots <= set(range(len(slots)))
                assert {t for t, _, _ in forward + backward} | third_slots | diagonal_slots == (
                    set(range(len(slots))))
                assert [slots[t] for t, _ in diagonal] == [
                    i * (dim + 1) for i in range(dim) if mask[w[i]][w[i]]]


def test_commutator_masks_are_shared_by_both_orders():
    # (m, n) and (n, m) ask certified_window for one mask: 28 fills for the
    # 49 pairs of the grid, and the mask does not depend on the chain order
    for m in range(-3, 4):
        for n in range(-3, 4):
            chains = ((banded(-m), banded(-n)), (banded(-n), banded(-m)))
            assert fock.certified_window(6, chains) == fock.certified_window(6, chains[::-1])
    fock.certified_window.cache_clear()
    symmetries._commutator_tables.cache_clear()
    config = SectorConfig(0, 6, Fraction(5, 7))
    assert all(commutator_check(*args, config).passed for args in COMMUTATOR_GRID)
    assert fock.certified_window.cache_info().misses == 28


# at each point the Fraction residual has nonzero rows of weight 6; rows of
# weight <= 6 - max(0, m + k) are readable, and at (Gprime, 2, -1) the
# residual also has nonzero rows of the top readable weight, 5
@pytest.mark.parametrize("variant,k,m", [("G", 1, 0), ("G", 2, 1), ("Gprime", 1, -2),
                                         ("Gprime", 2, -1)])
def test_first_shift_residual_is_taken_on_readable_rows(variant, k, m, monkeypatch):
    # the integer residual is the Fraction one on exactly the rows of a
    # weight the mask reads, uncertified entries included
    config = SectorConfig(-1, 6, Fraction(2, 3))
    seen = _scanned_residuals(monkeypatch)
    assert first_shift_check(variant, k, m, config).status == PASS
    rows, = seen
    upper, parity = (k, (-1) ** k) if variant == "G" else (-k, 1)
    c = torus_constant(upper, config.p)
    family = "plain" if variant == "G" else "alternating"
    # the one denominator of the check: the pair's, the two V's and the constant's
    c_g = (c if m == 0 else 0) - parity * (c if m + k == 0 else 0)
    den = (fock.pair_table(config.p, 6, family, 6)[1] * fock.v_int(upper, m, config)[1]
           * fock.v_int(upper, m + k, config)[1] * Fraction(c_g).denominator)
    gg = SectorOperator(config, get_basis(6), oracles.dense_pair(
        SectorConfig(0, 6, config.p), family).rows)
    ident = oracles.identity(config)
    left = oracles.sub(v_op(upper, m, config), oracles.scale(ident, c if m == 0 else 0))
    right = oracles.sub(v_op(upper, m + k, config), oracles.scale(ident, c if m + k == 0 else 0))
    full = oracles.sub(oracles.matmul(gg, left), oracles.matmul(oracles.scale(right, parity), gg))
    w = get_basis(6).weights
    readable = {n for n in range(7) if n <= 6 - max(0, m + k)}
    assert _values(rows, den) == {i: row for i, row in full.rows.items() if w[i] in readable}


def test_first_shift_validation_and_window():
    with pytest.raises(ValueError):
        first_shift_check("G", 0, 1, cfg())
    with pytest.raises(ValueError):
        first_shift_check("H", 1, 1, cfg())
    rep = first_shift_check("G", 1, -1, SectorConfig(0, 0, P))
    assert rep.status == INSUFFICIENT


def test_second_shift_examples():
    c = cfg()
    assert second_shift_check(1, 1, c).status == PASS
    # m = 0: conjugating a diagonal changes nothing
    assert second_shift_check(3, 0, c).status == PASS
    assert second_shift_check(-1, 2, cfg(s=-1, N=8)).status == PASS


def test_second_shift_conjugation_collapses_to_current_mode():
    c = cfg()
    rep = second_shift_check(1, 1, c)
    assert rep.status == PASS
    assert v_op(0, 1, c) == v_op(0, 1, c)  # sanity: rhs target is J_1


def test_second_shift_grid():
    for k in (-2, -1, 0, 1, 2):
        for m in (-2, -1, 0, 1, 2):
            for s in (-1, 0, 1):
                rep = second_shift_check(k, m, cfg(s=s))
                assert rep.status == PASS, (k, m, s)


def _without_cutoff(report) -> dict:
    line = report.to_json_dict()
    del line["params"]["N"], line["evidence"]["window"]
    return line


@pytest.mark.parametrize("p", [P, Fraction(2, 3)])
def test_operator_reports_stable_under_cutoff_growth(p):
    checks = [(commutator_check, (k, m, l, n)) for k in (-1, 0, 1) for l in (-1, 2)
              for m in (-2, 0, 1) for n in (-1, 2)]
    checks += [(first_shift_check, (variant, k, m)) for variant in ("G", "Gprime")
               for k in (1, 2) for m in (-2, -1, 0, 1)]
    checks += [(second_shift_check, (k, m)) for k in (-1, 0, 2) for m in (-2, 0, 1)]
    N = 4
    for s in (-1, 0, 1):
        small, big = SectorConfig(s, N, p), SectorConfig(s, N + 2, p)
        for check, args in checks:
            line = _without_cutoff(check(*args, small))
            assert line["status"] == PASS, (check.__name__, args, s, line)
            assert line == _without_cutoff(check(*args, big)), (check.__name__, args, s)


def test_tracer_hooks_see_every_product(monkeypatch):
    # fock.v_int is the one V builder, and the checks read it at call time, so
    # a tracer that wraps it sees every V they build. The products are formed
    # inside the checks, the commutator's along its path tables and the first
    # shift's row by row, so they count under the checks themselves
    assert symmetries.v_int is fock.v_int
    seen = []
    monkeypatch.setattr(symmetries, "v_int", lambda *a, f=fock.v_int: seen.append(a[:2]) or f(*a))
    config = SectorConfig(0, 4, Fraction(5, 13))
    assert commutator_check(1, 2, -1, 1, config).passed
    assert first_shift_check("G", 1, 0, config).passed
    assert seen == [(1, 2), (-1, 1), (0, 3), (1, 0), (1, 1)]


def test_reports_are_deterministic():
    a = commutator_check(1, 1, 1, -1, cfg()).to_json_dict()
    b = commutator_check(1, 1, 1, -1, cfg()).to_json_dict()
    assert a == b
    assert set(a) == {"check", "params", "status", "evidence"}


def test_failing_entry_identifies_earliest_pair():
    # deliberately feed a nonzero operator through the residual kernel: with T
    # the identity, diag T + L T + T R is diag + L + R
    c = cfg(N=3)
    b = get_basis(3)
    residual = v_op(0, 1, c)  # nonzero operator standing in for a residual
    mask, _ = fock.certified_window(3)  # no certificate: every weight pair
    # the rows, and the entries of each, come in descending order; the kernel
    # must still find the earliest
    rows = {i: {j: int(v) for j, v in sorted(residual.rows[i].items(), reverse=True)}
            for i in sorted(residual.rows, reverse=True)}
    first = min((i, j) for i in residual.rows for j in residual.rows[i])
    formed = []

    class Table(list):  # records the rows the kernel walks
        def __iter__(self):
            for i, row in enumerate(list.__iter__(self)):
                formed.append(i)
                yield row

    ident = Table([int(i == j) for j in range(len(b))] for i in range(len(b)))
    for left, right in ((rows, {}), ({}, rows)):
        formed.clear()
        i, j, v = symmetries._sandwich_entry(ident, left, right, 0, mask, b)
        # the rows are formed in ascending order, and none after the one reported
        assert formed == list(range(first[0] + 1))
        assert (i, j) == first and v == residual.rows[i][j]
        worst = symmetries._entry_evidence(b, i, j, Fraction(v))
        assert worst["row"] == b.parts[first[0]].to_json()
        assert worst["col"] == b.parts[first[1]].to_json()
