import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toda_crystal import SeriesContext, TruncatedSeries
from toda_crystal.algebra import Value
from toda_crystal.truncated import export_dict, monomial_label, parse_monomial_label

from oracles import (
    FractionSeries,
    alternate_t_signs,
    fraction_json_dict,
    linear_form,
    merge_hatted_into_t,
    negate_hatted,
    series_exp,
    series_from_json_dict,
    series_partial,
    substitute_difference,
    substitute_difference_by_products,
)
import oracles

CTX = SeriesContext(2, 3, 3)


def var(name, ctx=CTX):
    return FractionSeries.variable(ctx, name)


def test_context_validation():
    with pytest.raises(ValueError):
        SeriesContext(0, 1, 1)
    with pytest.raises(ValueError):
        SeriesContext(1, -1, 0)
    with pytest.raises(KeyError):
        CTX.var_index("t3")


def test_context_is_a_value_record():
    # compared and hashed as its field tuple, frozen, shown and copied as a
    # frozen dataclass is
    ctx = SeriesContext(2, 3, 4)
    assert ctx == SeriesContext(2, 3, 4) and hash(ctx) == hash((2, 3, 4))
    assert ctx != SeriesContext(2, 3, 5) and ctx != (2, 3, 4)

    class Twin(Value):
        __slots__ = ("K", "D", "NQ")

    # a record of another class is never equal, whatever its fields
    assert ctx != Twin(2, 3, 4) and Twin(2, 3, 4) != ctx
    assert ctx.__eq__(Twin(2, 3, 4)) is NotImplemented
    with pytest.raises(AttributeError, match="cannot assign to field 'K'"):
        ctx.K = 5
    with pytest.raises(AttributeError, match="cannot delete field 'D'"):
        del ctx.D
    with pytest.raises(AttributeError):
        ctx.extra = 1
    assert (ctx.K, ctx.D, ctx.NQ) == (2, 3, 4)
    with pytest.raises(TypeError):
        SeriesContext(2, 3)
    assert repr(ctx) == "SeriesContext(K=2, D=3, NQ=4)"
    # the error messages show the records as a dataclass repr would
    with pytest.raises(ValueError) as bad:
        SeriesContext(0, 3, 4)
    assert str(bad.value) == "invalid context SeriesContext(K=0, D=3, NQ=4)"
    with pytest.raises(ValueError) as bad:
        ctx.meet(SeriesContext(1, 3, 4))
    assert str(bad.value) == ("incompatible contexts SeriesContext(K=2, D=3, NQ=4) "
                              "vs SeriesContext(K=1, D=3, NQ=4)")
    for twin in (pickle.loads(pickle.dumps(ctx)), copy.copy(ctx), copy.deepcopy(ctx)):
        assert type(twin) is SeriesContext and twin == ctx and hash(twin) == hash(ctx)


def test_value_needs_two_fields():
    with pytest.raises(TypeError):
        class Single(Value):
            __slots__ = ("only", "_private")


def test_truncation_drops_over_cap():
    t1 = var("t1")
    f = (t1 + 1) ** 5
    assert max(sum(k[1:]) for k in f.coeffs) <= CTX.D
    q = var("Q")
    g = (q + 1) ** 5
    assert max(k[0] for k in g.coeffs) <= CTX.NQ


def test_series_exp_examples():
    ctx = SeriesContext(1, 2, 0)
    assert series_exp(FractionSeries.zero(ctx)) == FractionSeries.one(ctx)
    t1 = FractionSeries.variable(ctx, "t1")
    e = series_exp(t1)
    assert e == 1 + t1 + t1 * t1 * Fraction(1, 2)
    with pytest.raises(ValueError):
        series_exp(FractionSeries.one(ctx))


def test_series_partial_examples():
    t1, th1, q = var("t1"), var("th1"), var("Q")
    assert series_partial(t1 * th1, "t1") == th1.truncate_to(SeriesContext(2, 2, 3))
    assert not series_partial(FractionSeries.one(CTX), "t2")
    d = series_partial(q ** 3, "Q")
    assert d == (q * q * 3).truncate_to(SeriesContext(2, 3, 2))


def test_partial_context_shrinks():
    f = series_partial(var("t1"), "t1")
    assert f.ctx == SeriesContext(2, 2, 3)
    g = series_partial(var("Q"), "Q")
    assert g.ctx == SeriesContext(2, 3, 2)


def test_monomial_labels_round_trip():
    key = parse_monomial_label(CTX, "Q^2 t1^1 th2^1")
    assert monomial_label(CTX, key) == "Q^2 t1^1 th2^1"
    assert parse_monomial_label(CTX, "1") == CTX.zero_key()


def test_export_labels_alone_and_ties_on_total_degree():
    # the constant alone is "1" and a pure Q power "Q^n"; keys that tie on
    # degree with Q go by key, so th1 < t1 < Q at degree 1; whole values drop
    # their denominator
    ctx = SeriesContext(1, 2, 2)
    assert export_dict(ctx, [(0, (0, 0), 6, 3)])["coefficients"] == {"1": "2"}
    assert export_dict(ctx, [(2, (0, 0), -4, 6)])["coefficients"] == {"Q^2": "-2/3"}
    f = TruncatedSeries(ctx, {(1, 0, 0): Fraction(1, 3), (0, 1, 0): Fraction(-2),
                              (0, 0, 1): Fraction(5, 4), (0, 0, 0): Fraction(7)})
    doc = f.to_json_dict()
    assert list(doc["coefficients"].items()) == [
        ("1", "7"), ("th1^1", "5/4"), ("t1^1", "-2"), ("Q^1", "1/3")]
    assert doc == fraction_json_dict(f)
    assert str(f) == "7 + 5/4*th1^1 + -2*t1^1 + 1/3*Q^1"
    assert str(TruncatedSeries(ctx)) == "0"
    assert monomial_label(ctx, (2, 1, 0)) == "Q^2 t1^1" == oracles.monomial_label(ctx, (2, 1, 0))


@st.composite
def export_cases(draw):
    # K <= 3 and small caps, so keys often tie on total degree between Q and
    # t; each value an unreduced numerator and denominator, negative or whole
    ctx = SeriesContext(*(draw(st.integers(min_value=lo, max_value=hi))
                          for lo, hi in ((1, 3), (0, 3), (0, 3))))
    pairs = st.tuples(st.integers(min_value=-40, max_value=40).filter(bool),
                      st.integers(min_value=1, max_value=40))
    return ctx, draw(st.dictionaries(keys(ctx), pairs, max_size=12))


@settings(max_examples=200, deadline=None)
@given(export_cases())
def test_export_dict_matches_fraction_formatting(case):
    # in order and in text, against the keyed sort, a label per coefficient
    # and str(Fraction) of the oracle
    ctx, pairs = case
    f = TruncatedSeries(ctx, {key: Fraction(num, den) for key, (num, den) in pairs.items()})
    expected = fraction_json_dict(f)
    terms = [(key[0], key[1:], *pairs[key]) for key in oracles.canonical_keys(pairs)]
    for doc in (export_dict(ctx, terms), f.to_json_dict()):
        assert doc["context"] == expected["context"]
        assert list(doc["coefficients"].items()) == list(expected["coefficients"].items())
    assert series_from_json_dict(f.to_json_dict()) == f


def test_json_round_trip():
    f = (var("Q") + var("t1") * 2) ** 2
    g = series_from_json_dict(f.to_json_dict())
    assert f == g


def test_substitute_difference_and_merge():
    ctx = SeriesContext(2, 2, 0)
    t1 = FractionSeries.variable(ctx, "t1")
    th1 = FractionSeries.variable(ctx, "th1")
    f = t1 * t1
    sub = substitute_difference(f)
    assert sub == (t1 - th1) ** 2
    assert merge_hatted_into_t(sub) == FractionSeries.zero(ctx)
    with pytest.raises(ValueError):
        substitute_difference(f + th1)


def test_sign_flips():
    # mixed t and th exponents; t1^2 and Q th3^2 are even powers of flipped
    # variables, and t1 t3 an even total, so they keep their signs
    ctx = SeriesContext(3, 3, 2)

    def f(t1, t2, t3, th1, th2, th3):
        Q = var("Q", ctx)
        return (2 * t1 + 3 * t2 + 5 * t3 + 7 * th1 + 11 * t1 * th2 + 13 * t1 * t1
                + 17 * t1 * t3 + 19 * Q * th3 * th3 + 23 * t2 * th1 * th3 + 29)

    t1, t2, t3, th1, th2, th3 = (var(name, ctx) for name in ctx.var_names()[1:])
    series = f(t1, t2, t3, th1, th2, th3)
    assert alternate_t_signs(series) == f(-t1, t2, -t3, th1, th2, th3)
    assert negate_hatted(series) == f(t1, t2, t3, -th1, -th2, -th3)
    assert alternate_t_signs(series).coeffs[(0, 2, 0, 0, 0, 0, 0)] == 13
    assert negate_hatted(series).coeffs[(1, 0, 0, 0, 0, 0, 2)] == 19
    assert negate_hatted(negate_hatted(series)) == series


def test_linear_form():
    f = linear_form(CTX, {1: Fraction(2)}, {2: Fraction(-1)})
    assert f == var("t1") * 2 - var("th2")


# hypothesis strategies: small exact series

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


def keys(ctx):
    def bounded(key):
        return ctx.keeps(tuple(key))

    return st.lists(st.integers(min_value=0, max_value=3), min_size=ctx.nvars,
                    max_size=ctx.nvars).map(tuple).filter(bounded)


def series(ctx=CTX):
    return st.dictionaries(keys(ctx), coeffs, max_size=4).map(
        lambda d: FractionSeries(ctx, d))


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(series(SeriesContext(2, 5, 5)), series(SeriesContext(2, 5, 5)))
def test_truncation_is_a_quotient(f, g):
    small = SeriesContext(2, 3, 3)
    full = (f * g).truncate_to(small)
    trunc = f.truncate_to(small) * g.truncate_to(small)
    assert full == trunc


def no_constant(ctx=CTX):
    return series(ctx).map(
        lambda f: FractionSeries(ctx, {k: v for k, v in f.coeffs.items() if any(k)}))


@settings(max_examples=30, deadline=None)
@given(no_constant())
def test_exp_inverse(f):
    assert series_exp(f) * series_exp(-f) == FractionSeries.one(f.ctx)


@settings(max_examples=30, deadline=None)
@given(no_constant(), no_constant())
def test_exp_additivity(f, g):
    assert series_exp(f + g) == series_exp(f) * series_exp(g)


@st.composite
def t_only_series(draw):
    K, D = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    ctx = SeriesContext(K, D, 2)
    key = st.lists(st.integers(0, D), min_size=K + 1, max_size=K + 1).map(
        lambda k: tuple(k) + (0,) * K).filter(ctx.keeps)
    return FractionSeries(ctx, draw(st.dictionaries(key, coeffs, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(t_only_series())
def test_substitute_difference_matches_series_products(f):
    assert substitute_difference(f) == substitute_difference_by_products(f)
