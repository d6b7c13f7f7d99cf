import copy
import importlib.util
import json
import pickle
from fractions import Fraction
from math import comb, factorial, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toda_crystal import (
    ModelParams,
    Partition,
    SeriesContext,
    TruncatedSeries,
    charge_offset,
    enumerate_partitions,
    phi_potential,
    schur_qrho,
    w0_eigenvalue,
    z_series,
    zprime_series,
)
from toda_crystal import checks, cli, fock, identities, models, series, transfer
from toda_crystal.models import _add_weighted_exp, _canonical_walk, _monomials

import oracles
from oracles import (FractionSeries, fermionic_expectation, linear_form, series_exp,
                     series_from_json_dict)

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
    for mu in enumerate_partitions(8):
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


def test_model_params_is_a_value_record():
    ctx = SeriesContext(2, 2, 3)
    params = ModelParams(1, 2, "1/3", ctx)
    fields = (1, 2, Fraction(1, 3), ctx, 4)  # p normalised, N derived as max(NQ, K*D)
    assert (params.s, params.l, params.p, params.ctx, params.N) == fields
    assert params == ModelParams(*fields) and hash(params) == hash(fields)
    assert params != params.with_charge(0) and params != params.with_cutoff(5) != fields
    assert repr(params) == ("ModelParams(s=1, l=2, p=Fraction(1, 3), "
                            "ctx=SeriesContext(K=2, D=2, NQ=3), N=4)")
    with pytest.raises(AttributeError, match="cannot assign to field 'N'"):
        params.N = 9
    for twin in (pickle.loads(pickle.dumps(params)), copy.copy(params), copy.deepcopy(params)):
        assert type(twin) is ModelParams and twin == params and hash(twin) == hash(params)
    with pytest.raises(ValueError, match="p must satisfy"):
        ModelParams(0, 0, 2, ctx)


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
    for mu in enumerate_partitions(6):
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


# D = 2 barely exercises the monomial order of the closed-form exp
@pytest.mark.parametrize("s,l,p,shape", [
    (1, 1, P, (2, 4, 3)), (-1, 0, Fraction(2, 3), (2, 4, 3)),
    (-1, 1, P, (3, 3, 3)), (1, 0, Fraction(2, 3), (3, 3, 3))])
def test_fermionic_matches_sum_over_partitions_at_higher_degree(s, l, p, shape):
    params = ModelParams(s, l, p, SeriesContext(*shape))
    assert fermionic_expectation(params, "Zprime") == zprime_series(params)
    assert fermionic_expectation(params, "Z") == z_series(params)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def weighted_exp_cases(draw):
    K = draw(st.integers(min_value=1, max_value=3))
    D = draw(st.integers(min_value=0, max_value=4))
    # an explicit zero makes dead variables common
    a = draw(st.lists(small_rationals | st.just(Fraction(0)), min_size=2 * K,
                      max_size=2 * K))
    return K, D, draw(st.integers(min_value=0, max_value=2)), draw(small_rationals), a


@settings(max_examples=60, deadline=None)
@given(weighted_exp_cases())
def test_weighted_exp_matches_series_exp(case):
    # the walk takes integers: the drawn denominators are cleared first, and
    # each integer coefficient, aligned with the shared monomial table, is
    # read back over W D! d^|e|
    K, D, q, weight, a = case
    ctx = SeriesContext(K, D, 2)
    W, d = weight.denominator, lcm(*(c.denominator for c in a))
    keys, degrees, _ = _monomials(2 * K, D)
    # each of the comb(2K + D, D) monomials of degree <= D once
    assert len(set(keys)) == len(keys) == comb(2 * K + D, D)
    assert list(degrees) == [sum(e) for e in keys] and max(degrees) <= D
    acc = [0] * len(keys)
    _add_weighted_exp(acc, weight.numerator, [c.numerator * (d // c.denominator) for c in a], D)
    assert len(acc) == len(keys) and all(type(v) is int for v in acc)
    got = TruncatedSeries(ctx, {(q, *e): Fraction(v, W * factorial(D) * d ** sum(e))
                                for e, v in zip(keys, acc)})
    lin = linear_form(ctx, dict(enumerate(a[:K], 1)), dict(enumerate(a[K:], 1)))
    head = FractionSeries.monomial(ctx, (q,) + (0,) * (2 * K), weight)
    assert got == head * series_exp(lin)


@st.composite
def partition_sum_cases(draw):
    # p = a/b with numerators above 1, so the cleared denominators carry
    # powers of both a and b
    b = draw(st.integers(min_value=2, max_value=9))
    p = Fraction(draw(st.integers(min_value=1, max_value=b - 1)), b)
    s = draw(st.integers(min_value=-2, max_value=2))
    l = draw(st.integers(min_value=-1, max_value=2))
    shape = [draw(st.integers(min_value=lo, max_value=hi)) for lo, hi in ((1, 3), (0, 4), (0, 4))]
    return ModelParams(s, l, p, SeriesContext(*shape))


@settings(max_examples=150, deadline=None)
@given(partition_sum_cases())
def test_partition_sum_matches_fraction_oracle(params):
    assert zprime_series(params) == oracles.fraction_partition_sum(params, "Zprime")
    assert z_series(params) == oracles.fraction_partition_sum(params, "Z")


@pytest.mark.parametrize("n,D,NQ", [(1, 0, 0), (1, 3, 2), (2, 4, 3), (4, 2, 1), (6, 3, 4)])
def test_canonical_walk_visits_each_key_once_in_canonical_order(n, D, NQ):
    keys = _monomials(n, D)[0]
    walked = [(j, *keys[i]) for j, d, run in _canonical_walk(n, D, NQ) for i in run]
    assert walked == sorted(walked, key=lambda t: (sum(t), t))
    assert len(set(walked)) == len(walked) == len(keys) * (NQ + 1)
    assert all(sum(keys[i]) == d for _, d, run in _canonical_walk(n, D, NQ) for i in run)


@settings(max_examples=60, deadline=None)
@given(partition_sum_cases())
def test_partition_export_matches_fraction_formatting(params):
    # the terms walked straight into truncated.export_dict give the text, in
    # order, of the oracle's formatting of the same series' Fractions
    for series_of in (zprime_series, z_series):
        ours = series_of(params)
        doc = ours.to_json_dict()
        expected = oracles.fraction_json_dict(ours)
        assert doc["context"] == expected["context"]
        assert list(doc["coefficients"].items()) == list(expected["coefficients"].items())


@pytest.mark.parametrize("read_coeffs", [False, True])
def test_partition_series_copies_and_pickles(read_coeffs):
    # before and after its Fraction coefficients are first read, a partition
    # sum survives copy, deepcopy and pickle with its value and its export
    for series_of in (zprime_series, z_series):
        ours = series_of(ModelParams(-1, 1, Fraction(2, 3), SeriesContext(2, 2, 3)))
        if read_coeffs:
            ours.coeffs
        for twin in (pickle.loads(pickle.dumps(ours)), copy.copy(ours), copy.deepcopy(ours)):
            assert type(twin) is type(ours) and twin == ours
            assert twin.to_json_dict() == ours.to_json_dict()


@pytest.mark.parametrize("target", ["zprime", "zprime-special", "z"])
def test_partition_export_makes_no_fraction_per_coefficient(target, monkeypatch, tmp_path):
    # the Fractions a partition-sum export makes do not grow with the number
    # of coefficients: as many at NQ = 5 as at NQ = 2
    new = Fraction.__new__
    made = []

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    counts, sizes = [], []
    for NQ in ("2", "5"):
        out = tmp_path / f"{NQ}.json"
        argv = ["compute", target, "--s", "0", "--l", "1", "--K", "2", "--D", "2", "--NQ", NQ,
                "--p", "2/3", "--out", str(out)]
        made.clear()
        monkeypatch.setattr(Fraction, "__new__", counted)
        assert cli.main(argv) == 0
        monkeypatch.undo()
        counts.append(len(made))
        sizes.append(len(json.loads(out.read_text())["series"]["coefficients"]))
    assert sizes[1] > sizes[0] and counts[0] == counts[1]


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


def _raise(*args, **kwargs):
    raise AssertionError("this route must not be used here")


# the ring operations a series type could carry
SERIES_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                     "__rmul__", "__pow__")


def test_partition_sum_uses_neither_series_exp_nor_fock(monkeypatch):
    # the closed-form route shares no exp, series product or fock code with
    # the fermionic route and the identity prefactors: the report type has
    # no arithmetic, and the oracle arithmetic, the integer series of the tau
    # side and fock all raise
    params = ModelParams(0, 0, P, SeriesContext(2, 2, 2))
    z_before = z_series(params)
    assert not any(hasattr(TruncatedSeries, op) for op in SERIES_ARITHMETIC)
    assert not any(getattr(obj, "__module__", None) == series.__name__ for obj in vars(models).values())
    for op in SERIES_ARITHMETIC:
        monkeypatch.setattr(oracles.FractionSeries, op, _raise)
    monkeypatch.setattr(oracles, "series_exp", _raise)
    for owner in (fock, transfer, checks, series, series.GradedSeries):
        for name, obj in list(vars(owner).items()):
            if callable(obj) and getattr(obj, "__module__", None) in (
                    fock.__name__, transfer.__name__, checks.__name__, series.__name__):
                monkeypatch.setattr(owner, name, _raise)
                if hasattr(models, name):
                    monkeypatch.setattr(models, name, _raise)
    data = json.loads((FIXTURES / "zprime_p1of2_l0.json").read_text())
    assert zprime_series(params) == series_from_json_dict(data["series"])
    assert zprime_series(params).q_profile() == {
        0: Fraction(1), 1: Fraction(4, 9), 2: Fraction(128, 2025)}
    assert z_series(params) == z_before
    assert z_series(params).q_profile()[1] == Fraction(4, 9)


def test_identities_hold_without_the_closed_form_exp(monkeypatch):
    # with the closed-form kernel gone, the fermionic route stands in for the
    # partition sums, and the prefactors still go through GradedSeries.exp
    monkeypatch.setattr(models, "_add_weighted_exp", _raise)
    params = ModelParams(0, 0, P, SeriesContext(2, 2, 2))
    data = json.loads((FIXTURES / "zprime_p1of2_l0.json").read_text())
    assert fermionic_expectation(params, "Zprime") == series_from_json_dict(data["series"])
    with pytest.raises(AssertionError):
        zprime_series(params)
    monkeypatch.setattr(identities, "zprime_series", lambda pr: fermionic_expectation(pr, "Zprime"))
    monkeypatch.setattr(identities, "z_series", lambda pr: fermionic_expectation(pr, "Z"))
    for s, l in ((0, 1), (-1, 0)):
        pr = ModelParams(s, l, P, SeriesContext(2, 2, 2))
        assert identities.verify_main_identity(pr).status == "pass"
        assert identities.verify_prev_identity(pr).status == "pass"


def test_generate_fixtures_reproduces_fixtures(tmp_path, monkeypatch):
    script = FIXTURES.parent / "scripts" / "generate_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    # the commutator fixtures take the Fraction oracle about 40 s; the CLI
    # fixture test reads them, and reruns the oracle on a mismatch
    module.write_series_fixtures()
    module.write_export_pins()
    for name in ("zprime_p1of2_l0.json", "tau_prime_s0_l0_p1of2.json", *module.TAU_PRIME,
                 *module.EXPORTS):
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()
