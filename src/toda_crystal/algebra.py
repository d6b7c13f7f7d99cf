"""Exact scalars, value records, and the report form of truncated series.

Scalars are plain fractions.Fraction values. Every power of q in the model
is an integer power of p = q^(1/2), so with rational p all arithmetic stays
inside Q and every comparison is an exact equality.

Series live in Q[Q, t_1..t_K, th_1..th_K] modulo the ideal spanned by
monomials with Q-degree > NQ or total (t, th)-degree > D. Truncation is an
ideal quotient, so ring identities hold exactly on the retained monomials.
TruncatedSeries is the sparse Fraction form of such a series: the type the
package reports and exports (to_json_dict, series_from_json_dict), compares
with == and reads q_profile from. It has no arithmetic. The tau side
computes in the integer form of `series`, the partition sums of `models`
write their coefficients directly, and the Fraction ring arithmetic is kept
with the test oracles as the reference for both.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Mapping

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


def monomial_label(ctx: SeriesContext, key: tuple[int, ...]) -> str:
    return _label(ctx.var_names(), key)


def _label(names: tuple[str, ...], key: tuple[int, ...]) -> str:
    toks = [f"{names[i]}^{e}" for i, e in enumerate(key) if e]
    return " ".join(toks) if toks else "1"


def parse_monomial_label(ctx: SeriesContext, label: str) -> tuple[int, ...]:
    key = [0] * ctx.nvars
    if label.strip() == "1":
        return tuple(key)
    for tok in label.split():
        name, _, exp = tok.partition("^")
        key[ctx.var_index(name)] = int(exp)
    return tuple(key)


def _canonical_keys(coeffs: Mapping[tuple[int, ...], Fraction]):
    return sorted(coeffs, key=lambda t: (sum(t), t))


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
        if not self.coeffs:
            return "0"
        parts = []
        for key in _canonical_keys(self.coeffs):
            c = self.coeffs[key]
            mono = monomial_label(self.ctx, key)
            parts.append(f"{c}*{mono}" if mono != "1" else f"{c}")
        return " + ".join(parts)

    __repr__ = __str__

    def q_profile(self) -> dict[int, Fraction]:
        """Coefficients of pure Q powers (all t, th exponents zero)."""
        out = {}
        for key, val in self.coeffs.items():
            if not any(key[1:]):
                out[key[0]] = val
        return out

    def to_json_dict(self) -> dict:
        # the names are built once per export; every stored coefficient is a
        # Fraction already, so str gives format_rational's text
        names, coeffs = self.ctx.var_names(), self.coeffs
        return {
            "context": {"K": self.ctx.K, "D": self.ctx.D, "NQ": self.ctx.NQ},
            "coefficients": {
                _label(names, key): str(coeffs[key]) for key in _canonical_keys(coeffs)
            },
        }


def series_from_json_dict(data: dict) -> TruncatedSeries:
    c = data["context"]
    ctx = SeriesContext(int(c["K"]), int(c["D"]), int(c["NQ"]))
    coeffs = {
        parse_monomial_label(ctx, label): parse_rational(val)
        for label, val in data["coefficients"].items()
    }
    return TruncatedSeries(ctx, coeffs)
