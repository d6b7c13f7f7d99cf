from fractions import Fraction

import pytest

from toda_crystal import (
    SectorConfig,
    commutator_check,
    first_shift_check,
    second_shift_check,
    torus_constant,
    v_op,
)
from toda_crystal import fock, symmetries
from toda_crystal.fock import SectorOperator, get_basis
from toda_crystal.symmetries import FAIL, INSUFFICIENT, PASS

import oracles

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
    rows = symmetries._transfer_pair_rows(p, N, family)
    assert rows == oracles.dense_pair(SectorConfig(0, N, p), family).rows


def test_first_shift_reports_match_dense_pair(monkeypatch):
    points = [(variant, k, m, SectorConfig(s, 6, p)) for p in (P, Fraction(2, 3))
              for variant in ("G", "Gprime") for k in (1, 2)
              for m in (-2, -1, 0, 1, 2) for s in (-1, 0, 1)]
    pushed = [first_shift_check(*point).to_json_dict() for point in points]
    calls = []
    monkeypatch.setattr(symmetries, "_transfer_pair_rows", lambda p, N, family: calls.append(
        family) or oracles.dense_pair(SectorConfig(0, N, p), family).rows)
    assert [first_shift_check(*point).to_json_dict() for point in points] == pushed
    assert len(calls) == len(points)
    assert all(line["status"] == PASS for line in pushed)


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


def test_tracer_hooks_see_every_product():
    # a tracer that wraps fock.matmul and fock.v_op counts the products taken
    # through @ and the V operators built in symmetries
    assert SectorOperator.__matmul__ is SectorOperator.matmul
    assert symmetries.v_op is fock.v_op


def test_reports_are_deterministic():
    a = commutator_check(1, 1, 1, -1, cfg()).to_json_dict()
    b = commutator_check(1, 1, 1, -1, cfg()).to_json_dict()
    assert a == b
    assert set(a) == {"check", "params", "status", "evidence"}


def test_failing_entry_identifies_earliest_pair():
    # deliberately compare mismatched operators through the report scanner
    from toda_crystal.fock import certified_window
    from toda_crystal.symmetries import _scan_certified_residual

    c = cfg(N=3)
    residual = v_op(0, 1, c)  # nonzero operator standing in for a residual
    mask, _ = certified_window(3)  # no certificate: every weight pair
    ok, worst = _scan_certified_residual(residual, mask)
    assert not ok
    b = get_basis(3)
    first = min((i, j) for i in residual.rows for j in residual.rows[i])
    assert worst["row"] == b.parts[first[0]].to_json()
    assert worst["col"] == b.parts[first[1]].to_json()
