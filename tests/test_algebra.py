from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toda_crystal import SeriesContext, TruncatedSeries, series_exp, series_partial
from toda_crystal.algebra import (
    linear_form,
    monomial_label,
    parse_monomial_label,
    scale_vars,
    series_from_json_dict,
    substitute_difference,
)

from oracles import merge_hatted_into_t, substitute_difference_by_products

CTX = SeriesContext(2, 3, 3)


def var(name, ctx=CTX):
    return TruncatedSeries.variable(ctx, name)


def test_context_validation():
    with pytest.raises(ValueError):
        SeriesContext(0, 1, 1)
    with pytest.raises(ValueError):
        SeriesContext(1, -1, 0)
    with pytest.raises(KeyError):
        CTX.var_index("t3")


def test_truncation_drops_over_cap():
    t1 = var("t1")
    f = (t1 + 1) ** 5
    assert max(sum(k[1:]) for k in f.coeffs) <= CTX.D
    q = var("Q")
    g = (q + 1) ** 5
    assert max(k[0] for k in g.coeffs) <= CTX.NQ


def test_series_exp_examples():
    ctx = SeriesContext(1, 2, 0)
    assert series_exp(TruncatedSeries.zero(ctx)) == TruncatedSeries.one(ctx)
    t1 = TruncatedSeries.variable(ctx, "t1")
    e = series_exp(t1)
    assert e == 1 + t1 + t1 * t1 * Fraction(1, 2)
    with pytest.raises(ValueError):
        series_exp(TruncatedSeries.one(ctx))


def test_series_partial_examples():
    t1, th1, q = var("t1"), var("th1"), var("Q")
    assert series_partial(t1 * th1, "t1") == th1.truncate_to(SeriesContext(2, 2, 3))
    assert not series_partial(TruncatedSeries.one(CTX), "t2")
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


def test_json_round_trip():
    f = (var("Q") + var("t1") * 2) ** 2
    g = series_from_json_dict(f.to_json_dict())
    assert f == g


def test_substitute_difference_and_merge():
    ctx = SeriesContext(2, 2, 0)
    t1 = TruncatedSeries.variable(ctx, "t1")
    th1 = TruncatedSeries.variable(ctx, "th1")
    f = t1 * t1
    sub = substitute_difference(f)
    assert sub == (t1 - th1) ** 2
    assert merge_hatted_into_t(sub) == TruncatedSeries.zero(ctx)
    with pytest.raises(ValueError):
        substitute_difference(f + th1)


def test_scale_vars():
    f = var("t1") + var("th1")
    g = scale_vars(f, {"t1": Fraction(-1)})
    assert g == var("th1") - var("t1")


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
        lambda d: TruncatedSeries(ctx, d))


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
        lambda f: TruncatedSeries(ctx, {k: v for k, v in f.coeffs.items() if any(k)}))


@settings(max_examples=30, deadline=None)
@given(no_constant())
def test_exp_inverse(f):
    assert series_exp(f) * series_exp(-f) == TruncatedSeries.one(f.ctx)


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
    return TruncatedSeries(ctx, draw(st.dictionaries(key, coeffs, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(t_only_series())
def test_substitute_difference_matches_series_products(f):
    assert substitute_difference(f) == substitute_difference_by_products(f)
