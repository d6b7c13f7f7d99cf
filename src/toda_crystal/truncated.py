"""The Fraction form of series, in which reports and exports are written.

TruncatedSeries is a sparse series over an algebra.SeriesContext, with no
arithmetic: the package compares it with == and reads q_profile from it.
export_dict writes each export from integer numerators over denominators in
canonical order: to_json_dict sorts a TruncatedSeries into it, and the
partition sums of `models` walk into it with no Fraction made;
monomial_label and parse_monomial_label write and read one label. The series
routes (`models`, `series`, and so `toda` and `identities`) import this
module; `--help` and the operator suites never load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping

from .algebra import SeriesContext


def export_dict(ctx: SeriesContext, terms) -> dict:
    """The export form of a series over ctx: its caps, and {label: value} for
    the coefficients num/den, den > 0, of Q^q times the time monomial tkey,
    given as (q, tkey, num, den) in canonical order (by total degree with Q,
    then by key). Each value is reduced and written as str(Fraction) writes
    it; each time monomial is labelled once."""
    names, labels, coeffs = ctx.var_names()[1:], {}, {}
    for q, tkey, num, den in terms:
        label = labels.get(tkey)
        if label is None:
            label = labels[tkey] = " ".join(f"{x}^{e}" for x, e in zip(names, tkey) if e)
        if q:
            label = f"Q^{q} {label}" if label else f"Q^{q}"
        g = gcd(num, den)
        coeffs[label or "1"] = str(num // g) if g == den else f"{num // g}/{den // g}"
    return {"context": {"K": ctx.K, "D": ctx.D, "NQ": ctx.NQ}, "coefficients": coeffs}


def monomial_label(ctx: SeriesContext, key: tuple[int, ...]) -> str:
    return next(iter(export_dict(ctx, [(key[0], key[1:], 1, 1)])["coefficients"]))


def parse_monomial_label(ctx: SeriesContext, label: str) -> tuple[int, ...]:
    key = [0] * ctx.nvars
    if label.strip() == "1":
        return tuple(key)
    for tok in label.split():
        name, _, exp = tok.partition("^")
        key[ctx.var_index(name)] = int(exp)
    return tuple(key)


class TruncatedSeries:
    """Sparse exact series over a SeriesContext; zero coefficients are never stored."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: SeriesContext, coeffs: Mapping[tuple[int, ...], Fraction] | None = None):
        self.ctx = ctx
        clean: dict[tuple[int, ...], Fraction] = {}
        if coeffs:
            for key, val in coeffs.items():
                if len(key) != ctx.nvars:
                    raise ValueError(f"key {key} has wrong arity for {ctx}")
                if ctx.keeps(key):
                    if not isinstance(val, Fraction):
                        val = Fraction(val)
                    if val:
                        clean[key] = val
        self.coeffs = clean

    @classmethod
    def trusted(cls, ctx: SeriesContext, coeffs: dict[tuple[int, ...], Fraction]) -> "TruncatedSeries":
        """The series with coeffs as its own dict, unchecked: the caller built
        every key with ctx's arity and inside its caps, and every value as a
        nonzero Fraction."""
        series = cls.__new__(cls)
        series.ctx, series.coeffs = ctx, coeffs
        return series

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.ctx == other.ctx and self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None

    def __str__(self):
        terms = self.to_json_dict()["coefficients"].items()
        return " + ".join(c if m == "1" else f"{c}*{m}" for m, c in terms) or "0"

    __repr__ = __str__

    def q_profile(self) -> dict[int, Fraction]:
        """Coefficients of pure Q powers (all t, th exponents zero)."""
        out = {}
        for key, val in self.coeffs.items():
            if not any(key[1:]):
                out[key[0]] = val
        return out

    def to_json_dict(self) -> dict:
        terms = sorted((sum(key), key, c) for key, c in self.coeffs.items())
        return export_dict(self.ctx, ((k[0], k[1:], c.numerator, c.denominator) for _, k, c in terms))
