"""Truncated series of the tau side in integer form.

A GradedSeries lives in the quotient ring of truncated.TruncatedSeries,
Q[Q, t_1..t_K, th_1..th_K] cut at Q-degree NQ and (t, th)-degree D, but it
holds each Q grade as a dense list of integer numerators over the monomials
in the 2K times of degree <= D, with one denominator den > 0, in lowest
terms, for the whole series. The monomials are listed by degree, then by
exponent tuple, so a cut to a smaller D is a prefix of every grade and a cut
to a smaller NQ a prefix of the grades: two series meet by slicing. Products,
partial derivatives, sign flips and the substitutions read integer tables
cached per layout.

Only `toda` and `identities` import this module; `models` builds the
partition sums by its own route, so the identities compare two sides that
share no series code. TruncatedSeries stays the type of reports and exports:
`of` and `to_truncated` convert, one Fraction per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from math import comb, gcd, lcm, prod
from operator import add

from .algebra import SeriesContext
from .truncated import TruncatedSeries, monomial_label


def monomials(n: int, D: int) -> list[tuple[int, ...]]:
    """The exponent tuples in n variables of degree <= D, by degree, then by tuple."""
    out = [()]
    for _ in range(n):
        out = [t + (e,) for t in out for e in range(D - sum(t) + 1)]
    return sorted(out, key=lambda t: (sum(t), t))


@lru_cache(maxsize=None)
def layout(K: int, D: int) -> tuple[list, dict, list]:
    """(keys, index, starts) of the monomials in the 2K times of degree <= D:
    the exponent tuples, the position of each, and starts[d] the number of
    degree < d, for d = 0..D + 1."""
    keys = monomials(2 * K, D)
    starts = [sum(sum(key) < d for key in keys) for d in range(D + 2)]
    return keys, {key: i for i, key in enumerate(keys)}, starts


@lru_cache(maxsize=None)
def _products(K: int, D: int) -> list[list[int]]:
    """Row i lists the position of key_i + key_j for j = 0, 1, ... while
    deg i + deg j <= D: the (i, j, k) triples of a product."""
    keys, index, starts = layout(K, D)
    return [[index[tuple(map(add, a, b))] for b in keys[:starts[D - sum(a) + 1]]] for a in keys]


@lru_cache(maxsize=None)
def _partials(K: int, D: int, v: int) -> list[tuple[int, int]]:
    """d/dx_v from degree <= D to degree <= D - 1, D >= 1: for each position of
    the smaller layout, the position of key + e_v and the factor key_v + 1."""
    keys, index, starts = layout(K, D)
    return [(index[key[:v] + (key[v] + 1,) + key[v + 1:]], key[v] + 1) for key in keys[:starts[D]]]


@lru_cache(maxsize=None)
def _signs(K: int, D: int, flipped: range) -> list[int]:
    """(-1)^(sum of the exponents at the flipped positions) per monomial."""
    return [-1 if sum(key[i] for i in flipped) % 2 else 1 for key in layout(K, D)[0]]


@lru_cache(maxsize=None)
def _differences(K: int, D: int) -> list:
    """The image of each monomial under t_k -> t_k - th_k as (position, integer)
    terms, None for a monomial with a th exponent. t^a expands binomially to
    prod_k sum_j C(a_k, j) (-1)^j t_k^(a_k - j) th_k^j."""
    keys, index, _ = layout(K, D)
    return [None if any(key[K:]) else [
        (index[tuple(e - i for e, i in zip(key, j)) + j],
         (-1) ** sum(j) * prod(comb(e, i) for e, i in zip(key, j)))
        for j in product(*(range(e + 1) for e in key[:K]))] for key in keys]


@lru_cache(maxsize=None)
def _merges(K: int, D: int) -> list[int]:
    """The position of (a + b, 0) for each monomial (a, b)."""
    keys, index, _ = layout(K, D)
    return [index[tuple(map(add, key[:K], key[K:])) + (0,) * K] for key in keys]


class GradedSeries:
    """grades[n][i] / den is the coefficient of Q^n times monomial i of
    layout(K, D); built in lowest terms."""

    __slots__ = ("ctx", "grades", "den")

    def __init__(self, ctx: SeriesContext, grades: list[list[int]], den: int = 1):
        g = gcd(den, *chain.from_iterable(grades))
        if g > 1:
            grades, den = [[x // g for x in row] for row in grades], den // g
        self.ctx, self.grades, self.den = ctx, grades, den

    @classmethod
    def of(cls, series: TruncatedSeries) -> GradedSeries:
        ctx = series.ctx
        _, index, starts = layout(ctx.K, ctx.D)
        den = lcm(*(v.denominator for v in series.coeffs.values()))
        grades = [[0] * starts[-1] for _ in range(ctx.NQ + 1)]
        for key, v in series.coeffs.items():
            grades[key[0]][index[key[1:]]] = v.numerator * (den // v.denominator)
        return cls(ctx, grades, den)

    def to_truncated(self) -> TruncatedSeries:
        keys, den = layout(self.ctx.K, self.ctx.D)[0], self.den
        return TruncatedSeries.trusted(self.ctx, {
            (n, *key): Fraction(x, den)
            for n, row in enumerate(self.grades) for key, x in zip(keys, row) if x})

    def __bool__(self):
        return any(map(any, self.grades))

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.ctx == other.ctx and first_difference(self, other) is None

    __hash__ = None

    def support(self) -> set[tuple[int, int]]:
        """The (grade, position) of every nonzero coefficient."""
        return {(n, i) for n, row in enumerate(self.grades) for i, x in enumerate(row) if x}

    def q_profile(self) -> dict[int, Fraction]:
        """Coefficients of pure Q powers."""
        return {n: Fraction(row[0], self.den) for n, row in enumerate(self.grades) if row[0]}

    def _with(self, grades, den=None) -> GradedSeries:
        return GradedSeries(self.ctx, grades, self.den if den is None else den)

    def __add__(self, other: GradedSeries, sign: int = 1) -> GradedSeries:
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return GradedSeries(self.ctx.meet(other.ctx), [
            [x * a + y * b for x, y in zip(f, g)] for f, g in zip(self.grades, other.grades)], den)

    def __sub__(self, other: GradedSeries) -> GradedSeries:
        return self.__add__(other, -1)

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            c = Fraction(other)
            return self._with([[x * c.numerator for x in row] for row in self.grades],
                              self.den * c.denominator)
        ctx = self.ctx.meet(other.ctx)
        table, NQ = _products(ctx.K, ctx.D), ctx.NQ
        out = [[0] * len(table) for _ in range(NQ + 1)]
        right = [(b, g) for b, g in enumerate(other.grades[:NQ + 1]) if any(g)]
        for a, f in enumerate(self.grades[:NQ + 1]):
            for x, ks in zip(f, table):
                if x:
                    for b, g in right:
                        if a + b > NQ:
                            break
                        acc = out[a + b]
                        for y, k in zip(g, ks):
                            if y:
                                acc[k] += x * y
        return GradedSeries(ctx, out, self.den * other.den)

    def exp(self) -> GradedSeries:
        """exp(self) as a terminating sum; needs a zero constant term. Every
        monomial has positive combined degree, so the n-th power dies at
        n > D + NQ."""
        if self.grades[0][0]:
            raise ValueError("exp needs a zero constant term")
        one = [[0] * len(row) for row in self.grades]
        one[0][0] = 1
        acc = term = self._with(one, 1)
        for n in range(1, self.ctx.D + self.ctx.NQ + 2):
            term = term * self * Fraction(1, n)
            if not term:
                break
            acc = acc + term
        return acc

    def partial(self, name: str) -> GradedSeries:
        """Formal partial derivative, in a context with the variable's cap
        lowered by one: the record of which coefficients are still complete."""
        K, D, NQ = self.ctx.K, self.ctx.D, self.ctx.NQ
        v = self.ctx.var_index(name)
        if v == 0:
            grades = [[x * n for x in row] for n, row in enumerate(self.grades[1:], 1)]
            return GradedSeries(SeriesContext(K, D, max(NQ - 1, 0)),
                                grades or [[0] * len(self.grades[0])], self.den)
        table = _partials(K, D, v - 1) if D else [(0, 0)]
        return GradedSeries(SeriesContext(K, max(D - 1, 0), NQ),
                            [[row[j] * f for j, f in table] for row in self.grades], self.den)

    def _flip(self, flipped: range) -> GradedSeries:
        signs = _signs(self.ctx.K, self.ctx.D, flipped)
        return self._with([[x * e for x, e in zip(row, signs)] for row in self.grades])

    def alternate_t_signs(self) -> GradedSeries:
        """t_k -> (-1)^k t_k, i.e. the substitution (-t_1, t_2, -t_3, ...)."""
        return self._flip(range(0, self.ctx.K, 2))

    def negate_hatted(self) -> GradedSeries:
        """th_k -> -th_k for every k."""
        return self._flip(range(self.ctx.K, 2 * self.ctx.K))

    def _mapped(self, terms_of) -> list[list[int]]:
        out = []
        for row in self.grades:
            acc = [0] * len(row)
            for x, terms in zip(row, terms_of):
                if x:
                    for k, c in terms:
                        acc[k] += x * c
            out.append(acc)
        return out

    def substitute_difference(self) -> GradedSeries:
        """Substitute t_k -> t_k - th_k; degrees are kept, so are the caps."""
        table = _differences(self.ctx.K, self.ctx.D)
        if any(x and terms is None for row in self.grades for x, terms in zip(row, table)):
            raise ValueError("substitute_difference expects a series in the t family only")
        return self._with(self._mapped(table))

    def merge_into_t(self, c) -> GradedSeries:
        """Substitute t_k -> c t_k and th_k -> c t_k: the monomial (a, b) goes
        to (a + b, 0) with the factor c^{|a| + |b|}, over the denominator's
        c_den^D."""
        c, (keys, _, _), D = Fraction(c), layout(self.ctx.K, self.ctx.D), self.ctx.D
        power = [c.numerator ** d * c.denominator ** (D - d) for d in range(D + 1)]
        terms = [[(k, power[sum(key)])] for k, key in zip(_merges(self.ctx.K, D), keys)]
        return self._with(self._mapped(terms), self.den * c.denominator ** D)


def first_difference(f: GradedSeries, g: GradedSeries):
    """Earliest monomial (canonical order: by degree with Q, then by key) where
    two series differ, as (label, f_value, g_value); None when they agree on
    the common context."""
    ctx = f.ctx.meet(g.ctx)
    keys = layout(ctx.K, ctx.D)[0]
    diffs = [((n, *key), x, y) for n, (a, b) in enumerate(zip(f.grades, g.grades))
             for key, x, y in zip(keys, a, b) if x * g.den != y * f.den]
    if not diffs:
        return None
    key, x, y = min(diffs, key=lambda d: (sum(d[0]), d[0]))
    return monomial_label(ctx, key), Fraction(x, f.den), Fraction(y, g.den)


def first_nonzero(f: GradedSeries):
    """Earliest nonzero monomial (canonical order) as (label, value); None for zero."""
    diff = first_difference(f, f * 0)
    return diff and diff[:2]
