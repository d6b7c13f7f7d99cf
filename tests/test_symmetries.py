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
from toda_crystal import checks, fock, shifts, symmetries, transfer
from toda_crystal.checks import FAIL, INSUFFICIENT, PASS, CheckReport, banded
from toda_crystal.fock import get_basis
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
    # the certificate fixes the degenerate central term as m, so the sign is 1
    for k, m in ((0, 1), (2, 3), (1, -2)):
        rep = commutator_check(k, m, -k, -m, cfg())
        assert rep.status == PASS and rep.evidence == {"central_sign": 1}, (k, m)
    assert commutator_check(1, 0, -1, 0, cfg()).evidence == {}


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
        table, den = transfer.pair_table(p, N, family, cap)
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
    # of the sector cut at c: the exactness of pair_dots over minus_rows(cap);
    # the rows of G"_- are those of G_- relabelled by conjugate partitions,
    # which keep weights, so they are stable under the cut as well
    def family_rows(c):
        rows, den = transfer.minus_rows(p, c)
        rows = dict(enumerate(rows))
        if family == "alternating":
            rows = oracles.relabelled(rows, oracles.conjugation_by_cells(c))
        return rows, den

    rows, den = family_rows(7)
    dense = oracles.dense_transfer(SectorConfig(0, 7, p), family, "raising").rows
    assert _values(rows, den) == dense
    for c in range(8):
        small, small_den = family_rows(c)
        assert _values({i: rows[i] for i in range(len(small))}, den) == _values(small, small_den)


def test_pair_tables_build_each_minus_table_once():
    # at one (p, N) the rows e_i G_- are built once, for both families: the
    # alternating pair is the plain one relabelled, and the first shift and
    # the graded blocks at that point share them
    transfer.minus_rows.cache_clear()
    transfer.pair_table.cache_clear()
    p, N, NQ = Fraction(3, 5), 6, 2
    assert first_shift_check("G", 1, 0, SectorConfig(0, N, p)).passed
    assert first_shift_check("Gprime", 1, 0, SectorConfig(1, N, p)).passed
    families = ("plain", "alternating")
    assert transfer.minus_rows.cache_info().misses == 1   # (p, N), for both families
    table = transfer.minus_rows(p, N)
    pr = ModelParams(0, 1, p, SeriesContext(2, 3, NQ), N)
    for family in families:
        GradedOperator(pr, family).gram(0)
    # the graded blocks reread the table at N and read the columns of
    # weight <= NQ off the table of the sector cut at NQ, built once
    assert transfer.minus_rows.cache_info().misses == 2
    assert transfer.minus_rows(p, N) is table
    assert len(transfer.minus_rows(p, NQ)[0]) == len(get_basis(NQ))
    assert transfer.minus_rows.cache_info().misses == 2
    transfer.minus_rows.cache_clear()
    transfer.pair_table.cache_clear()


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
    monkeypatch.setattr(shifts, "pair_table", lambda p, N, family, cap: calls.append(
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


def _relation_mutant(f):
    """A mutant of symmetries._relation that maps the coefficient c of each
    term ((t, a, b), c) to f(t, c); both commutator routes read the relation
    at call time."""
    def patch(monkeypatch, relation=symmetries._relation):
        monkeypatch.setattr(symmetries, "_relation", lambda m, n: tuple(
            (key, f(key[0], c)) for key, c in relation(m, n)))
    return patch


def _doubled_shift_identity(monkeypatch):
    # the c * 1 of both first-shift routes comes out twice too large; both
    # routes read c from torus_constant
    monkeypatch.setattr(shifts, "torus_constant",
                        lambda j, p, f=shifts.torus_constant: 2 * f(j, p))


WRONG_RELATIONS = {
    "flipped_prefactor": _relation_mutant(lambda t, c: c if t else -c),
    "doubled_identity": _relation_mutant(lambda t, c: 2 * c if t else c),
    # G with sign(m) dropped: as the checks ask only for m <= n, every central
    # term at m + n = 0 != m comes out negated, the degenerate one as -m
    "unsigned_degenerate": _relation_mutant(lambda t, c: abs(c) if t else c),
}
# the first shift takes its c * 1 from torus_constant, which the commutator
# certificate never reads: wrong_constant reaches the first shift and the
# oracles' closed forms alone
FIRST_SHIFT_RELATIONS = dict(WRONG_RELATIONS, doubled_identity=_doubled_shift_identity,
                             wrong_constant=lambda mp: mp.setattr(
                                 shifts, "torus_constant",
                                 lambda j, p, f=shifts.torus_constant: f(j, p) + 1))
# the first shift does not read symmetries._relation
FIRST_SHIFT_BLIND = ("flipped_prefactor", "unsigned_degenerate")


def _closed_form_mismatches(ks, ps) -> list:
    """The points (k, m, l, n, p), k and l in ks, m and n in [-3, 3], p in ps,
    at which P and G as the checks read symmetries._relation differ from the
    closed forms oracles.torus_prefactor and oracles.central_term."""
    return [(k, m, l, n, p) for p in ps for k in ks for l in ks
            for m in range(-3, 4) for n in range(-3, 4)
            if oracles.relation_values(k, m, l, n, p) != (
                oracles.torus_prefactor(k, m, l, n, p), oracles.central_term(k, m, l, n, p))]


def _laurent(terms) -> dict:
    """The terms ((a, b), c) of c x^a y^b summed, zeros dropped."""
    acc = {}
    for key, c in terms:
        acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def _laurent_product(f: dict, g: dict) -> dict:
    return _laurent(((a + c, b + d), u * v) for (a, b), u in f.items() for (c, d), v in g.items())


def test_relation_is_the_papers_relation():
    # [V_m(x), V_n(y)] = P V_{m+n}(xy) + G as Laurent polynomials, for every
    # p, k and l: P = y^m x^-n - x^n y^-m, and at m + n = 0 G = -P q/(1 - q)
    # with q = (xy)^2, whose value at xy = 1 is m; elsewhere no G
    for m in range(-3, 4):
        for n in range(-3, 4):
            terms = symmetries._relation(m, n)
            p_terms = _laurent(((a, b), c) for (t, a, b), c in terms if t == 0)
            g_terms = _laurent(((a, b), c) for (t, a, b), c in terms if t == 1)
            # summed, not assigned: at m = n = 0 the two terms share a key and cancel
            assert p_terms == _laurent((((-n, m), 1), ((n, -m), -1))), (m, n)
            if m + n:
                assert g_terms == {}, (m, n)
                continue
            assert _laurent_product(g_terms, {(0, 0): 1, (2, 2): -1}) == (
                _laurent_product(p_terms, {(2, 2): -1})), (m, n)
            assert sum(g_terms.values()) == m
    # the values, read as the checks read them, are the closed forms: 4,900 points
    assert _closed_form_mismatches(range(-2, 3), (P, Fraction(2, 3), Fraction(1, 3),
                                                  Fraction(5, 7))) == []


@pytest.mark.parametrize("wrong", sorted(FIRST_SHIFT_RELATIONS))
def test_wrong_relations_fail_as_in_fraction_oracle(wrong):
    config = SectorConfig(0, 6, Fraction(2, 3))
    grid = [(k, m, l, n) for k, m, l, n in COMMUTATOR_GRID if abs(k) < 2 and abs(l) < 2]
    failed = {}
    for relations, check, oracle, points in (
            (WRONG_RELATIONS, commutator_check, oracles.fraction_commutator_check, grid),
            (FIRST_SHIFT_RELATIONS, first_shift_check, oracles.fraction_first_shift_check,
             FIRST_SHIFT_GRID)):
        with pytest.MonkeyPatch.context() as mp:
            relations.get(wrong, FIRST_SHIFT_RELATIONS[wrong])(mp)
            lines = _same_reports(check, oracle, points, [config])
            # every mutant moves P or G off the oracles' closed forms
            assert _closed_form_mismatches(range(-1, 2), (config.p,))
        failed[check] = [line for line in lines if line["status"] == FAIL]
    # the relation mutants reach the commutators, and all but the blind ones the first shift
    assert bool(failed[commutator_check]) == (wrong in WRONG_RELATIONS)
    assert bool(failed[first_shift_check]) == (wrong not in FIRST_SHIFT_BLIND)
    assert all(line["evidence"]["worst"]["value"] != "0"
               for lines in failed.values() for line in lines)
    if wrong == "unsigned_degenerate":
        # exactly the points with m + n = 0 != m fail, on twice the central term
        central = [(k, m, l, n) for k, m, l, n in grid if m + n == 0 != m]
        assert sorted(tuple(line["params"][x] for x in "kmln")
                      for line in failed[commutator_check]) == sorted(central)
        assert all(Fraction(line["evidence"]["worst"]["value"]) == 2 * oracles.central_term(
            *(line["params"][x] for x in "kmln"), config.p) for line in failed[commutator_check])


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
            assert bool(failed) == (check is commutator_check or wrong not in FIRST_SHIFT_BLIND), (
                wrong, check.__name__)


def test_flipped_v_numerator_fails_first_shift_as_fraction_oracle(monkeypatch):
    # one numerator of V^(1)_1 negated, that of the first move, in the rows
    # both routes read: the checks whose V factors include it fail, each on
    # the oracle's entry
    config = SectorConfig(0, 6, Fraction(2, 3))
    i, j, _, _ = fock.move_table(1, 6)[0]

    def flipped(k, m, config, f=shifts.v_rows):
        rows, den = f(k, m, config)
        if (k, m) != (1, 1):
            return rows, den
        return {**rows, i: {**rows[i], j: -rows[i][j]}}, den

    for module in (shifts, oracles):
        monkeypatch.setattr(module, "v_rows", flipped)
    # the oracle caches what it reads of v_rows
    caches = (oracles.v_op,)
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
    # both routes take V from fock.v_terms, the package's directly and the
    # oracle's through shifts.v_rows, so a wrong term exponent would move both
    # sides at once; test_v_op_matches_bilinear_oracle is the test that
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

    for module in (shifts, oracles):
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
    """Records, for every call of the residual kernel sandwich_entry, the
    rows of diag T + f_left L T + T f_right R of a weight its mask reads, each
    row whole (uncertified entries included) as {i: {j: numerator}}, formed
    here from the kernel's inputs entry by entry."""
    seen = []
    scan = shifts.sandwich_entry

    def record(table, left, right, diag, mask, basis_obj, f_left=1, f_right=1):
        dim, w = len(table), basis_obj.weights
        rows = {i: {j: diag * table[i][j]
                    + f_left * sum(u * table[x][j] for x, u in left.get(i, {}).items())
                    + f_right * sum(table[i][x] * r.get(j, 0) for x, r in right.items())
                    for j in range(dim)}
                for i in range(dim) if any(mask[w[i]])}
        seen.append(rows)
        return scan(table, left, right, diag, mask, basis_obj, f_left, f_right)

    monkeypatch.setattr(shifts, "sandwich_entry", record)
    return seen


def _values(rows, den) -> dict:
    values = {i: {j: Fraction(v, den) for j, v in row.items() if v} for i, row in rows.items()}
    return {i: row for i, row in values.items() if row}


def _commutator_mask(m, n, N) -> tuple:
    """The commutator's certified_window mask, from the chains in the order
    the oracle writes them."""
    return checks.certified_window(N, ((banded(-m), banded(-n)), (banded(-n), banded(-m))))[0]


def _certified_rows(rows, mask, N) -> dict:
    """The nonzero entries of rows {i: {j: value}} in cells the mask certifies."""
    w = get_basis(N).weights
    return _values({i: {j: v for j, v in row.items() if mask[w[i]][w[j]]}
                    for i, row in rows.items()}, 1)


def _table_rows(table, k, l, p, N) -> dict:
    """{i: {j: value}} of the terms {(slot, a, b): c} of c x^a y^b of a
    commutator table at x = p^k, y = p^l, in Fraction powers, each slot read
    as its key i*dim + j, the terms of a slot summed and zeros dropped."""
    acc = {}
    for (slot, a, b), c in table.items():
        acc[slot] = acc.get(slot, 0) + c * Fraction(p) ** (k * a + l * b)
    rows = {}
    for slot, v in acc.items():
        i, j = divmod(slot, len(get_basis(N)))
        rows.setdefault(i, {})[j] = v
    return _values(rows, 1)


def test_integer_forms_hold_ints_in_lowest_terms():
    config = SectorConfig(1, 6, Fraction(2, 3))
    for k, m in ((2, -3), (-1, 0), (0, 2), (1, 1)):
        rows, den = shifts.v_rows(k, m, config)
        # no row is empty, and no zero is kept
        assert all(rows.values())
        assert _in_lowest_terms((v for row in rows.values() for v in row.values()), den)
        assert _values(rows, den) == oracles.v_op_by_bilinears(k, m, config).rows
    for family in ("plain", "alternating"):
        table, den = transfer.pair_table(config.p, 6, family, 6)
        # the table is dense: its nonzero entries are in lowest terms with den
        assert _in_lowest_terms((v for row in table for v in row if v), den)
    # at (2, 1, -1, 2) the residual vanishes on every certified cell; at
    # (1, -2, 2, 3) it has 60 nonzero entries, all in uncertified cells
    for (k, m, l, n), uncertified in (((2, 1, -1, 2), 0), ((1, -2, 2, 3), 60)):
        assert commutator_check(k, m, l, n, config).status == PASS
        _, *tables = symmetries._commutator_tables(m, n, 1, 6)
        # the tables hold integer coefficients of monomials in x and y, on
        # certified cells alone: no uncertified cell is formed
        mask, w, dim = _commutator_mask(m, n, 6), get_basis(6).weights, len(get_basis(6))
        assert all(type(c) is int and all(type(x) is int for x in key)
                   for table in tables for key, c in table.items())
        assert all(mask[w[key[0] // dim]][w[key[0] % dim]] for table in tables for key in table)
        v1, v2 = v_op(k, m, config), v_op(l, n, config)
        product = oracles.sub(oracles.matmul(v1, v2), oracles.matmul(v2, v1))
        residual = oracles.sub(product, oracles.scale(
            v_op(k + l, m + n, config), oracles.torus_prefactor(k, m, l, n, config.p)))
        assert sum(not mask[w[i]][w[j]] for i, row in residual.rows.items()
                   for j in row) == uncertified
        assert _table_rows(tables[0], k, l, config.p, 6) == _certified_rows(product.rows, mask, 6)


@pytest.mark.parametrize("N,pairs", [
    (6, [(m, n) for m in range(-3, 4) for n in range(-3, 4)]),
    (8, [(0, 0), (0, -2), (3, 0), (1, -1), (-4, 2), (2, 4)]),
])
def test_commutator_tables_reproduce_the_products(N, pairs):
    # the product, V^(k+l)_{m+n} and identity tables, evaluated at x = p^k
    # and y = p^l, against Fraction operators on the certified cells;
    # (k, l) = (0, 0) reads V^(0)_0, whose diagonal vanishes at the vacuum
    for s in (-1, 0, 1):
        config = SectorConfig(s, N, Fraction(2, 3))
        for m, n in pairs:
            mask = _commutator_mask(m, n, N)
            assert all(any(row) for row in mask)  # the mask reads every row weight
            _, product, third, ones = symmetries._commutator_tables(m, n, s, N)
            for k, l in ((0, 0), (1, -2)):
                a1, a2 = v_op(k, m, config), v_op(l, n, config)
                commutator = oracles.sub(oracles.matmul(a1, a2), oracles.matmul(a2, a1))
                assert _table_rows(product, k, l, config.p, N) == (
                    _certified_rows(commutator.rows, mask, N)), (s, m, n, k, l)
                assert _table_rows(third, k, l, config.p, N) == (
                    _certified_rows(v_op(k + l, m + n, config).rows, mask, N)), (s, m, n, k, l)
                assert _table_rows(ones, k, l, config.p, N) == (
                    _certified_rows(oracles.identity(config).rows, mask, N))
    # the charge-0 vacuum has no level to sum: V^(k)_0 holds no term there
    assert fock.v_terms(0, 0, N)[0] == []
    assert 0 not in shifts.v_rows(0, 0, SectorConfig(0, N, P))[0]


@pytest.mark.parametrize("N", [3, 6, 9])
def test_commutator_slot_tables_hold_certified_cells_in_order(N):
    # slots are keys i*dim + j, so they ascend as (row, col) does and the
    # least nonzero slot is the least (row, col); every term sits on a
    # certified cell, and the identity's terms are 1 on every certified (i, i)
    b = get_basis(N)
    dim, w = len(b), b.weights
    for s in (-1, 0, 1):
        for m in range(-3, 4):
            for n in range(-3, 4):
                window, product, third, ones = symmetries._commutator_tables(m, n, s, N)
                mask = _commutator_mask(m, n, N)
                assert window == checks.certified_window(
                    N, ((banded(-m), banded(-n)), (banded(-n), banded(-m))))[1]
                slots = {slot for table in (product, third, ones) for slot, _, _ in table}
                assert sorted(slots) == sorted(slots, key=lambda slot: divmod(slot, dim))
                assert all(mask[w[slot // dim]][w[slot % dim]] for slot in slots)
                assert ones == {(i * (dim + 1), 0, 0): 1 for i in range(dim)
                                if mask[w[i]][w[i]]}
                # V_{m+n}(xy) holds monomials (xy)^e alone
                assert all(a == b for _, a, b in third)


def test_commutator_masks_are_shared_by_both_orders():
    # (m, n) and (n, m) ask certified_window for one mask: 28 fills for the
    # 49 pairs of the grid, and the mask does not depend on the chain order
    for m in range(-3, 4):
        for n in range(-3, 4):
            chains = ((banded(-m), banded(-n)), (banded(-n), banded(-m)))
            assert checks.certified_window(6, chains) == checks.certified_window(6, chains[::-1])
    checks.certified_window.cache_clear()
    symmetries._certificate.cache_clear()
    config = SectorConfig(0, 6, Fraction(5, 7))
    assert all(commutator_check(*args, config).passed for args in COMMUTATOR_GRID)
    assert checks.certified_window.cache_info().misses == 28


def test_commutator_certificate_is_built_once_per_pair_for_every_p(monkeypatch):
    # the certificate depends on no p, k or l, and (n, m) shares the one of
    # (m, n): after a cache clear, the grid at three p builds 28 certificates,
    # and every check passes on the certificate alone
    built = []
    monkeypatch.setattr(symmetries, "_commutator_tables",
                        lambda *a, f=symmetries._commutator_tables: built.append(a) or f(*a))
    symmetries._certificate.cache_clear()
    for p in (P, Fraction(2, 3), Fraction(5, 7)):
        config = SectorConfig(0, 6, p)
        assert all(commutator_check(*args, config).passed for args in COMMUTATOR_GRID)
    assert symmetries._certificate.cache_info().misses == 28
    assert sorted(built) == [(m, n, 0, 6) for m in range(-3, 4) for n in range(m, 4)]
    assert all(not symmetries._certificate(m, n, 0, 6, symmetries._relation(m, n))[1]
               for m, n, _, _ in built)


def test_passing_commutators_read_the_certificate_alone(monkeypatch):
    # after a warm pass every check of the grid passes on its cached
    # certificate: no table is rebuilt and nothing is evaluated at the point
    config = SectorConfig(0, 6, Fraction(2, 3))
    assert all(commutator_check(*args, config).passed for args in COMMUTATOR_GRID)
    calls = []
    for name in ("_commutator_tables", "_at"):
        monkeypatch.setattr(symmetries, name, lambda *a, name=name, f=getattr(symmetries, name):
                            calls.append(name) or f(*a))
    assert all(commutator_check(*args, config).passed for args in COMMUTATOR_GRID)
    assert calls == []


def test_flipped_move_fails_commutators_as_fraction_oracle(monkeypatch):
    # the sign of the first move of the shift by -1 flipped, in fock.move_table
    # alone: fock.v_terms is the one V builder, so the flip reaches the
    # certificate, the first shift's rows and oracles.v_op alike. The
    # certificates with V_1 among their factors no longer hold, and the checks
    # that read the flipped entry fail, each on the Fraction oracle's entry
    config = SectorConfig(0, 6, Fraction(2, 3))

    def flipped(m, N, f=fock.move_table):
        moves = f(m, N)
        if m != 1:
            return moves
        (i, j, sign, src), *rest = moves
        return ((i, j, -sign, src), *rest)

    monkeypatch.setattr(fock, "move_table", flipped)
    caches = (fock.v_terms, shifts.v_rows, oracles.v_op, symmetries._certificate)
    for cached in caches:
        cached.cache_clear()
    try:
        lines = _same_reports(commutator_check, oracles.fraction_commutator_check,
                              COMMUTATOR_GRID, [config])
        broken = {(m, n) for m in range(-3, 4) for n in range(m, 4)
                  if symmetries._certificate(m, n, 0, 6, symmetries._relation(m, n))[1]}
        shift_lines = _same_reports(first_shift_check, oracles.fraction_first_shift_check,
                                    FIRST_SHIFT_GRID, [config])
    finally:
        for cached in caches:
            cached.cache_clear()
    assert any(line["status"] == FAIL for line in shift_lines)
    failed = [line for line in lines if line["status"] == FAIL]
    assert failed and broken
    assert all(1 in (m, n, m + n) for m, n in broken)
    assert all(line["evidence"]["worst"]["value"] != "0" for line in failed)
    assert {tuple(sorted((line["params"]["m"], line["params"]["n"]))) for line in failed} <= broken


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
    den = (transfer.pair_table(config.p, 6, family, 6)[1] * shifts.v_rows(upper, m, config)[1]
           * shifts.v_rows(upper, m + k, config)[1] * Fraction(c_g).denominator)
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
    # the first shift reads shifts.v_rows at call time, so a tracer that wraps
    # it sees every V the shift evaluates; its products are formed row by row
    # inside the check. The commutator reads no V numerators: its certificate
    # is built from the p-free fock.v_terms, for every p
    assert (symmetries.v_terms, shifts.v_terms) == (fock.v_terms, fock.v_terms)
    assert not hasattr(symmetries, "v_rows")
    seen, terms = [], []
    monkeypatch.setattr(shifts, "v_rows", lambda *a, f=shifts.v_rows: seen.append(a[:2]) or f(*a))
    monkeypatch.setattr(symmetries, "v_terms", lambda *a, f=fock.v_terms: terms.append(a) or f(*a))
    config = SectorConfig(0, 4, Fraction(5, 13))
    symmetries._certificate.cache_clear()
    assert commutator_check(1, 2, -1, 1, config).passed
    assert seen == [] and sorted(set(terms)) == [(1, 0, 4), (2, 0, 4), (3, 0, 4)]
    assert first_shift_check("G", 1, 0, config).passed
    assert seen == [(1, 0), (1, 1)]


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
    mask, _ = checks.certified_window(3)  # no certificate: every weight pair
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
        i, j, v = checks.sandwich_entry(ident, left, right, 0, mask, b)
        # the rows are formed in ascending order, and none after the one reported
        assert formed == list(range(first[0] + 1))
        assert (i, j) == first and v == residual.rows[i][j]
        worst = checks.entry_evidence(b, i, j, Fraction(v))
        assert worst["row"] == b.parts[first[0]].to_json()
        assert worst["col"] == b.parts[first[1]].to_json()
