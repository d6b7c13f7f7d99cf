"""The integer series of the tau side against the Fraction arithmetic of the
test oracles, operation by operation, on small random series."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toda_crystal import SeriesContext, TruncatedSeries
from toda_crystal.truncated import monomial_label
from toda_crystal.series import GradedSeries, first_difference, first_nonzero

import oracles

# values with their negatives and with sums that vanish, so that sums and
# products cancel often
COEFFS = st.sampled_from([Fraction(x) for x in (1, -1, 2, -2, "1/2", "-1/2", "1/3", "-2/3", "3/4")])


@st.composite
def contexts(draw, K=None):
    return SeriesContext(K or draw(st.integers(1, 3)), draw(st.integers(0, 4)), draw(st.integers(0, 4)))


@st.composite
def series_in(draw, ctx, t_only=False, max_terms=8):
    """A sparse series on ctx: each term a Q power, a multiset of at most D
    time variables (from the t family alone when t_only) and a coefficient;
    terms on one key add up, and may cancel."""
    nvars = ctx.K if t_only else 2 * ctx.K
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        # the degree is drawn first, so that high degrees are as common as low ones
        q, degree = draw(st.integers(0, ctx.NQ)), draw(st.integers(0, ctx.D))
        exps = [0] * (2 * ctx.K)
        for v in draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree)):
            exps[v] += 1
        key = (q, *exps)
        coeffs[key] = coeffs.get(key, 0) + draw(COEFFS)
    return TruncatedSeries(ctx, coeffs)


@st.composite
def series(draw, **kwargs):
    return draw(series_in(draw(contexts()), **kwargs))


@st.composite
def pairs(draw):
    """Two series with the same K on contexts drawn apart, the second one
    either drawn afresh or the first with some coefficients changed."""
    f = draw(series())
    ctx = draw(contexts(K=f.ctx.K))
    g = draw(series_in(ctx))
    if draw(st.booleans()):
        changed = dict(draw(series_in(ctx, max_terms=2)).coeffs)
        g = TruncatedSeries(ctx, {**f.coeffs, **changed})
    return f, g


def graded(f: TruncatedSeries) -> GradedSeries:
    return GradedSeries.of(f)


def in_lowest_terms(g: GradedSeries) -> bool:
    return g.den > 0 and math.gcd(g.den, *(x for row in g.grades for x in row)) == 1


@settings(max_examples=80, deadline=None)
@given(series())
def test_round_trip_in_lowest_terms(f):
    g = graded(f)
    assert g.to_truncated() == f and g.ctx == f.ctx
    assert in_lowest_terms(g)
    assert len(g.support()) == len(f.coeffs)
    assert g.q_profile() == f.q_profile()
    assert bool(g) == bool(f)


@settings(max_examples=80, deadline=None)
@given(pairs(), COEFFS)
def test_products_match_oracle(fg, c):
    f, g = fg
    product = graded(f) * graded(g)
    assert product.ctx == f.ctx.meet(g.ctx) and in_lowest_terms(product)
    assert product.to_truncated() == oracles.fraction_series(f) * g
    assert (graded(f) * c).to_truncated() == oracles.fraction_series(f) * c


@settings(max_examples=80, deadline=None)
@given(pairs())
def test_sums_match_oracle(fg):
    f, g = fg
    assert (graded(f) + graded(g)).to_truncated() == oracles.fraction_series(f) + g
    assert (graded(f) - graded(g)).to_truncated() == oracles.fraction_series(f) - g


@settings(max_examples=60, deadline=None)
@given(series())
def test_exp_matches_oracle(f):
    zero = f.ctx.zero_key()
    f = TruncatedSeries(f.ctx, {k: v for k, v in f.coeffs.items() if k != zero})
    assert graded(f).exp().to_truncated() == oracles.series_exp(f)
    with pytest.raises(ValueError):
        (graded(f) + graded(TruncatedSeries(f.ctx, {zero: 1}))).exp()


@settings(max_examples=60, deadline=None)
@given(series())
def test_partials_match_oracle(f):
    for name in f.ctx.var_names():
        got = graded(f).partial(name).to_truncated()
        want = oracles.series_partial(f, name)
        assert got.ctx == want.ctx and got == want, name


@settings(max_examples=60, deadline=None)
@given(series())
def test_sign_flips_match_oracle(f):
    assert graded(f).alternate_t_signs().to_truncated() == oracles.alternate_t_signs(f)
    assert graded(f).negate_hatted().to_truncated() == oracles.negate_hatted(f)


@settings(max_examples=60, deadline=None)
@given(series(t_only=True), series())
def test_substitute_difference_matches_oracle(f, mixed):
    assert graded(f).substitute_difference().to_truncated() == oracles.substitute_difference(f)
    hatted = any(any(key[mixed.ctx.K + 1:]) for key in mixed.coeffs)
    if hatted:
        with pytest.raises(ValueError):
            graded(mixed).substitute_difference()
        with pytest.raises(ValueError):
            oracles.substitute_difference(mixed)


@settings(max_examples=60, deadline=None)
@given(series(), st.sampled_from([Fraction(1), Fraction(1, 2)]))
def test_merge_into_t_matches_oracle(f, c):
    assert graded(f).merge_into_t(c).to_truncated() == oracles.merge_into_t(f, c)


@settings(max_examples=100, deadline=None)
@given(pairs())
def test_first_difference_and_window_match_oracle(fg):
    f, g = fg
    assert first_difference(graded(f), graded(g)) == oracles.first_difference(f, g)
    # a report's window counts the nonzero keys of both sides, each on its own context
    assert len(graded(f).support() | graded(g).support()) == len(set(f.coeffs) | set(g.coeffs))
    residual = oracles.fraction_series(f) - g
    assert first_nonzero(graded(f) - graded(g)) == oracles.first_nonzero(residual)
    assert (graded(f) == graded(g)) == (f == g)


@st.composite
def reordered_pairs(draw):
    """A series, a copy changed at two keys A and B, and B: A at a lower Q
    grade and a higher total degree than B, so that the grade-major layout
    stores A first and the canonical order puts B first."""
    K, D, NQ = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 4))
    ctx = SeriesContext(K, D, NQ)
    gap = draw(st.integers(1, min(NQ, D - 1)))
    qa = draw(st.integers(0, NQ - gap))
    db = draw(st.integers(0, D - gap - 1))
    da = draw(st.integers(db + gap + 1, D))
    keys = []
    for q, degree in ((qa, da), (qa + gap, db)):
        exps = [0] * (2 * K)
        for v in draw(st.lists(st.integers(0, 2 * K - 1), min_size=degree, max_size=degree)):
            exps[v] += 1
        keys.append((q, *exps))
    f = draw(series_in(ctx))
    changed = {key: f.coeffs.get(key, 0) + draw(COEFFS) for key in keys}
    return f, TruncatedSeries(ctx, {**f.coeffs, **changed}), keys[1]


@settings(max_examples=60, deadline=None)
@given(reordered_pairs())
def test_first_difference_reads_canonical_not_grade_order(case):
    f, g, first = case
    label = monomial_label(f.ctx, first)
    assert first_difference(graded(f), graded(g)) == oracles.first_difference(f, g)
    assert first_difference(graded(f), graded(g))[0] == label
    assert first_nonzero(graded(g) - graded(f))[0] == label
