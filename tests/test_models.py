import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from toda_crystal import (
    ModelParams,
    Partition,
    SeriesContext,
    charge_offset,
    enumerate_partitions,
    fermionic_expectation,
    phi_potential,
    schur_qrho,
    w0_eigenvalue,
    z_series,
    zprime_series,
)
from toda_crystal.algebra import series_from_json_dict

import oracles

P = Fraction(1, 2)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_schur_examples():
    assert schur_qrho(Partition([]), P) == 1
    assert schur_qrho(Partition([1]), P) == Fraction(2, 3)
    assert schur_qrho(Partition([2]), P) == Fraction(16, 45)


def test_schur_geometric_oracle():
    # s_(1) is the plain geometric tail sum q^(1/2)/(1-q)
    q = P * P
    assert schur_qrho(Partition([1]), P) == P / (1 - q)


def test_schur_power_sum_oracle():
    # s_(2) = (p1^2 + p2)/2 with p_r the geometric power sums
    q = P * P
    p1 = P / (1 - q)
    p2 = q / (1 - q * q)
    assert schur_qrho(Partition([2]), P) == (p1 * p1 + p2) / 2
    assert schur_qrho(Partition([1, 1]), P) == (p1 * p1 - p2) / 2


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 5)])
def test_schur_jacobi_trudi_sweep(p):
    for mu in enumerate_partitions(8, "all_up_to"):
        assert schur_qrho(mu, p) == oracles.schur_jacobi_trudi(mu, p)


def test_phi_examples():
    q = P * P
    assert phi_potential(1, Partition([]), 0, P) == 0
    assert phi_potential(1, Partition([]), 1, P) == q
    assert phi_potential(1, Partition([1]), 0, P) == q - 1
    with pytest.raises(ValueError):
        phi_potential(0, Partition([]), 0, P)


def test_model_params_cutoff_invariant():
    ctx = SeriesContext(3, 3, 4)
    params = ModelParams(0, 0, P, ctx)
    assert params.N == 9
    with pytest.raises(ValueError):
        ModelParams(0, 0, P, ctx, N=5)


def test_zprime_profile():
    params = ModelParams(0, 0, P, SeriesContext(2, 2, 2))
    prof = zprime_series(params).q_profile()
    assert prof == {0: Fraction(1), 1: Fraction(4, 9), 2: Fraction(128, 2025)}


def test_z_profile():
    params = ModelParams(0, 0, P, SeriesContext(2, 2, 2))
    prof = z_series(params).q_profile()
    assert prof[0] == 1
    assert prof[1] == Fraction(4, 9)


def special(l, NQ):
    """Z' at s = 0 with the couplings off."""
    return zprime_series(ModelParams(0, l, P, SeriesContext(1, 0, NQ)))


def test_zprime_special_profiles():
    prof = special(0, 2).q_profile()
    assert prof == {0: Fraction(1), 1: Fraction(4, 9), 2: Fraction(128, 2025)}
    prof1 = special(1, 1).q_profile()
    assert prof1[1] == Fraction(2, 9)


def test_zprime_special_matches_full_series_at_zero_couplings():
    for l in (-1, 0, 1, 2):
        assert special(l, 3) == oracles.zprime_special(l, P, 3)


def test_special_weights_pair_symmetrically():
    # mu and its transpose share the schur product and carry opposite kappa
    for mu in enumerate_partitions(6, "all_up_to"):
        tm = mu.conjugate()
        w_mu = schur_qrho(mu, P) * schur_qrho(tm, P)
        w_tm = schur_qrho(tm, P) * schur_qrho(mu, P)
        assert w_mu == w_tm
        assert mu.kappa() == -tm.kappa()


@pytest.mark.parametrize("s", [-1, 0, 1])
@pytest.mark.parametrize("l", [0, 1])
def test_fermionic_matches_sum_over_partitions(s, l):
    params = ModelParams(s, l, P, SeriesContext(2, 2, 3))
    assert fermionic_expectation(params, "Zprime") == zprime_series(params)
    assert fermionic_expectation(params, "Z") == z_series(params)


def test_fermionic_leading_q_exponent():
    for s in (1, -1, 2):
        params = ModelParams(s, 0, P, SeriesContext(1, 1, 2))
        prof = fermionic_expectation(params, "Zprime").q_profile()
        assert min(prof) == charge_offset(s)


def test_fermionic_rejects_bad_selector():
    params = ModelParams(0, 0, P, SeriesContext(1, 1, 1))
    with pytest.raises(ValueError):
        fermionic_expectation(params, "Zboth")


def test_w0_eigenvalue_examples():
    assert w0_eigenvalue(Partition([1]), 0) == 1
    assert w0_eigenvalue(Partition([]), 2) == 5


def test_zprime_fixture():
    data = json.loads((FIXTURES / "zprime_p1of2_l0.json").read_text())
    fixture = series_from_json_dict(data["series"])
    params = ModelParams(0, 0, P, SeriesContext(2, 2, 2))
    assert zprime_series(params) == fixture


def test_generate_fixtures_reproduces_fixtures(tmp_path, monkeypatch):
    script = FIXTURES.parent / "scripts" / "generate_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    for name in ("zprime_p1of2_l0.json", "tau_prime_s0_l0_p1of2.json"):
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
