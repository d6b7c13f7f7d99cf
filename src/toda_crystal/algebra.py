"""Exact scalars, value records, the model point, and the report form of
truncated series.

Scalars are plain fractions.Fraction values. Every power of q in the model
is an integer power of p = q^(1/2), so with rational p all arithmetic stays
inside Q and every comparison is an exact equality. ModelParams, the model
point every series route reads, and charge_offset live here, beside
SeriesContext, so the tau construction compiles no partition sum; `fock` is
imported only by ModelParams.config.

Series live in Q[Q, t_1..t_K, th_1..th_K] modulo the ideal spanned by
monomials with Q-degree > NQ or total (t, th)-degree > D. Truncation is an
ideal quotient, so ring identities hold exactly on the retained monomials.
TruncatedSeries is the sparse Fraction form of such a series, with no
arithmetic: the package compares it with ==, reads q_profile from it and
reads exports back into it (series_from_json_dict). export_dict writes each
export from integer numerators over denominators in canonical order:
to_json_dict sorts a TruncatedSeries into it, and the partition sums of
`models` walk into it with no Fraction made. The tau side computes in the
integer form of `series`; the Fraction ring arithmetic stays with the test
oracles as the reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .fock import SectorConfig


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


class Value:
    """Immutable record whose fields are its __slots__ but those starting with
    '_' (private state): filled positionally, equal only to a record of its own
    class with the same field tuple, hashed and pickled by it, shown as
    Name(field=value, ...)."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        if len(cls._fields) < 2:  # attrgetter returns a tuple for two names or more
            raise TypeError("a Value record needs two fields or more")
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class SeriesContext(Value):
    """Truncation caps: K tracked variables per time family, total
    (t, th)-degree cap D, Q-degree cap NQ."""

    __slots__ = ("K", "D", "NQ")

    def __init__(self, K: int, D: int, NQ: int):
        super().__init__(K, D, NQ)
        if K < 1 or D < 0 or NQ < 0:
            raise ValueError(f"invalid context {self}")

    @property
    def nvars(self) -> int:
        return 1 + 2 * self.K

    def var_names(self) -> tuple[str, ...]:
        return ("Q",) + tuple(f"t{k}" for k in range(1, self.K + 1)) + tuple(
            f"th{k}" for k in range(1, self.K + 1)
        )

    def var_index(self, name: str) -> int:
        if name == "Q":
            return 0
        family, num = (name[:2], name[2:]) if name.startswith("th") else (name[:1], name[1:])
        try:
            k = int(num)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None
        if not 1 <= k <= self.K:
            raise KeyError(f"variable {name!r} outside context K={self.K}")
        if family == "t":
            return k
        if family == "th":
            return self.K + k
        raise KeyError(f"unknown variable {name!r}")

    def zero_key(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    def keeps(self, key: tuple[int, ...]) -> bool:
        return key[0] <= self.NQ and sum(key[1:]) <= self.D

    def meet(self, other: "SeriesContext") -> "SeriesContext":
        if self.K != other.K:
            raise ValueError(f"incompatible contexts {self} vs {other}")
        return SeriesContext(self.K, min(self.D, other.D), min(self.NQ, other.NQ))


def charge_offset(s: int) -> int:
    """Ground-state energy s(s+1)/2 of the charge-s sector."""
    return s * (s + 1) // 2


class ModelParams(Value):
    """Model point, as a Value: charge s, insertion weight l, rational p,
    series caps, and the fock cutoff N (max(NQ, K*D) unless overridden)."""

    __slots__ = ("s", "l", "p", "ctx", "N")

    def __init__(self, s: int, l: int, p: Fraction, ctx: SeriesContext, N: int | None = None):
        p = Fraction(p)
        need = max(ctx.NQ, ctx.K * ctx.D)
        N = need if N is None else N
        if N < need:
            raise ValueError(f"cutoff N={N} below the certified requirement {need}")
        if not (0 < p < 1):
            raise ValueError("p must satisfy 0 < p < 1")
        super().__init__(s, l, p, ctx, N)

    @property
    def config(self) -> SectorConfig:
        from .fock import SectorConfig

        return SectorConfig(self.s, self.N, self.p, self.l)

    @property
    def out_ctx(self) -> SeriesContext:
        """Output context: the Q cap absorbs the charge offset so that every
        graded coefficient up to Q-order NQ is retained."""
        return SeriesContext(self.ctx.K, self.ctx.D, self.ctx.NQ + charge_offset(self.s))

    def with_charge(self, s: int) -> "ModelParams":
        return ModelParams(s, self.l, self.p, self.ctx, self.N)

    def with_cutoff(self, N: int) -> "ModelParams":
        return ModelParams(self.s, self.l, self.p, self.ctx, N)


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


def series_from_json_dict(data: dict) -> TruncatedSeries:
    c = data["context"]
    ctx = SeriesContext(int(c["K"]), int(c["D"]), int(c["NQ"]))
    coeffs = {
        parse_monomial_label(ctx, label): parse_rational(val)
        for label, val in data["coefficients"].items()
    }
    return TruncatedSeries(ctx, coeffs)
