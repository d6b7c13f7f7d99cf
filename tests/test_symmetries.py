import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toda_crystal import (
    Partition,
    SectorConfig,
    commutator_check,
    first_shift_check,
    second_shift_check,
    torus_constant,
)
from toda_crystal import fock, symmetries
from toda_crystal.fock import banded, get_basis
from toda_crystal.symmetries import FAIL, INSUFFICIENT, PASS

import oracles
from oracles import SectorOperator, v_op

P = Fraction(1, 2)


def cfg(s=0, N=6):
    return SectorConfig(s, N, P)


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
    rows, den = symmetries._transfer_pair_rows(p, N, family)
    values = {i: {j: Fraction(v, den) for j, v in row.items()} for i, row in rows.items()}
    assert values == oracles.dense_pair(SectorConfig(0, N, p), family).rows


def _dense_pair_rows(p, N, family):
    return fock.integer_form(oracles.dense_pair(SectorConfig(0, N, p), family).rows)


def test_first_shift_reports_match_dense_pair(monkeypatch):
    points = [(variant, k, m, SectorConfig(s, 6, p)) for p in (P, Fraction(2, 3))
              for variant in ("G", "Gprime") for k in (1, 2)
              for m in (-2, -1, 0, 1, 2) for s in (-1, 0, 1)]
    pushed = [first_shift_check(*point).to_json_dict() for point in points]
    calls = []
    monkeypatch.setattr(symmetries, "_transfer_pair_rows", lambda p, N, family: calls.append(
        family) or _dense_pair_rows(p, N, family))
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
    """Records the (rows, den) of every scan the checks make, the rows as
    {i: {j: numerator}} in the order the check hands them over."""
    seen = []
    scan = symmetries._first_entry

    def record(indices, row, mask, basis_obj, den=1):
        rows = {i: row(i) for i in indices}
        seen.append((rows, den))
        return scan(rows, rows.get, mask, basis_obj, den)

    monkeypatch.setattr(symmetries, "_first_entry", record)
    return seen


def _values(rows, den) -> dict:
    values = {i: {j: Fraction(v, den) for j, v in row.items() if v} for i, row in rows.items()}
    return {i: row for i, row in values.items() if row}


def _readable_rows(m, n, N) -> list:
    """The rows of a weight the commutator mask reads, from the chains in the
    order the oracle writes them."""
    mask, _ = fock.certified_window(N, ((banded(-m), banded(-n)), (banded(-n), banded(-m))))
    w = get_basis(N).weights
    return [i for i in range(len(w)) if any(mask[w[i]])]


def _pattern_rows(m, config, values) -> dict:
    """{i: {j: value}} of values aligned with fock.v_pattern(m, s, N)."""
    rows = {}
    for (i, j), v in zip(fock.v_pattern(m, config.s, config.N), values):
        rows.setdefault(i, {})[j] = v
    return rows


def _flat_rows(acc, dim) -> dict:
    rows = {}
    for key, v in acc.items():
        i, j = divmod(key, dim)
        rows.setdefault(i, {})[j] = v
    return rows


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
        rows, den = symmetries._transfer_pair_rows(config.p, 6, family)
        assert _in_lowest_terms((v for row in rows.values() for v in row.values()), den)
    seen = []
    monkeypatch.setattr(symmetries, "_first_key", lambda acc, den, *a, f=symmetries._first_key:
                        seen.append((dict(acc), den)) or f(acc, den, *a))
    # at (2, 1, -1, 2) the residual vanishes on every readable row; at
    # (1, -2, 2, 3) it has 60 nonzero entries there, all in uncertified cells
    for k, m, l, n in ((2, 1, -1, 2), (1, -2, 2, 3)):
        seen.clear()
        assert commutator_check(k, m, l, n, config).status == PASS
        (acc, den), = seen
        # the residual is filled over a common denominator, not reduced: only
        # a reported entry becomes a Fraction
        assert den > 0 and all(type(v) is int for v in acc.values())
        v1, v2 = v_op(k, m, config), v_op(l, n, config)
        expected = oracles.sub(
            oracles.sub(oracles.matmul(v1, v2), oracles.matmul(v2, v1)),
            oracles.scale(v_op(k + l, m + n, config),
                          symmetries.torus_prefactor(k, m, l, n, config.p)))
        # the accumulator holds rows of a weight the mask reads (every row, for
        # a commutator) and no other, and on them it is the Fraction residual,
        # uncertified entries included
        rows, readable = _flat_rows(acc, len(get_basis(6))), _readable_rows(m, n, 6)
        assert set(rows) <= set(readable)
        assert _values(rows, den) == {i: row for i, row in expected.rows.items() if i in readable}


def _table_rows(terms, den, N) -> dict:
    """{i: {j: value}} of the flat terms (i*dim + j, numerator) over den, the
    numerators of a key summed and the zeros dropped."""
    acc = {}
    for key, v in terms:
        acc[key] = acc.get(key, 0) + v
    return _values(_flat_rows(acc, len(get_basis(N))), den)


@pytest.mark.parametrize("N,pairs", [
    (6, [(m, n) for m in range(-3, 4) for n in range(-3, 4)]),
    (8, [(0, 0), (0, -2), (3, 0), (1, -1), (-4, 2), (2, 4)]),
])
def test_commutator_tables_reproduce_the_products(N, pairs):
    # the path tables and the V^(k+l)_{m+n} keys against Fraction operators;
    # (k, l) = (0, 0) reads V^(0)_0, whose diagonal vanishes at the vacuum
    # and keeps that entry
    for s in (-1, 0, 1):
        config = SectorConfig(s, N, Fraction(2, 3))
        for m, n in pairs:
            # the tables cover every row: the commutator mask reads them all
            assert _readable_rows(m, n, N) == list(range(len(get_basis(N))))
            _, _, paths, third = symmetries._commutator_tables(m, n, s, N)
            for k, l in ((0, 0), (1, -2)):
                (v1, d1), (v2, d2) = fock.v_int(k, m, config), fock.v_int(l, n, config)
                assert _table_rows(((key, v1[a] * v2[b]) for key, a, b in paths), d1 * d2, N) == (
                    oracles.matmul(v_op(k, m, config), v_op(l, n, config)).rows), (s, m, n)
                v3, d3 = fock.v_int(k + l, m + n, config)
                assert _table_rows(((key, v3[c]) for key, c in third), d3, N) == (
                    v_op(k + l, m + n, config).rows), (s, m, n)
    assert fock.v_pattern(0, 0, N)[0] == (0, 0)
    assert fock.v_int(0, 0, SectorConfig(0, N, P))[0][0] == 0


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
    (rows, den), = seen
    upper, parity = (k, (-1) ** k) if variant == "G" else (-k, 1)
    c = torus_constant(upper, config.p)
    gg = SectorOperator(config, get_basis(6), oracles.dense_pair(
        SectorConfig(0, 6, config.p), "plain" if variant == "G" else "alternating").rows)
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
    # deliberately compare mismatched operators through the report scanner
    from toda_crystal.fock import certified_window
    from toda_crystal.symmetries import _first_entry

    c = cfg(N=3)
    residual = v_op(0, 1, c)  # nonzero operator standing in for a residual
    mask, _ = certified_window(3)  # no certificate: every weight pair
    # the rows come in descending order; the scanner must still find the earliest
    formed = []
    worst = _first_entry(reversed(list(residual.rows)),
                         lambda i: formed.append(i) or residual.rows[i], mask, residual.basis)
    assert formed == [min(residual.rows)]
    assert worst is not None
    b = get_basis(3)
    first = min((i, j) for i in residual.rows for j in residual.rows[i])
    assert worst["row"] == b.parts[first[0]].to_json()
    assert worst["col"] == b.parts[first[1]].to_json()
