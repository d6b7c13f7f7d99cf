"""Exact scalars and truncated multivariate power series.

Scalars are plain fractions.Fraction values. Every power of q in the model
is an integer power of p = q^(1/2), so with rational p all arithmetic stays
inside Q and every comparison is an exact equality.

Series live in Q[Q, t_1..t_K, th_1..th_K] modulo the ideal spanned by
monomials with Q-degree > NQ or total (t, th)-degree > D. Truncation is an
ideal quotient, so ring identities hold exactly on the retained monomials.
A partial derivative is returned in a context with the corresponding cap
lowered by one: the reduced context is the record of which coefficients
are still complete.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, prod
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

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def constant(cls, ctx, value) -> "TruncatedSeries":
        return cls(ctx, {ctx.zero_key(): Fraction(value)})

    @classmethod
    def one(cls, ctx):
        return cls.constant(ctx, 1)

    @classmethod
    def monomial(cls, ctx, key, value=1):
        return cls(ctx, {tuple(key): Fraction(value)})

    @classmethod
    def variable(cls, ctx, name: str) -> "TruncatedSeries":
        key = [0] * ctx.nvars
        key[ctx.var_index(name)] = 1
        return cls(ctx, {tuple(key): Fraction(1)})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.ctx == other.ctx and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == TruncatedSeries.constant(self.ctx, other)
        return NotImplemented

    __hash__ = None

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs.get(self.ctx.zero_key(), Fraction(0))

    def truncate_to(self, ctx: SeriesContext) -> "TruncatedSeries":
        if ctx == self.ctx:
            return self
        return TruncatedSeries(ctx, self.coeffs)

    def _pair(self, other):
        if isinstance(other, TruncatedSeries):
            tgt = self.ctx.meet(other.ctx)
            return self.truncate_to(tgt), other.truncate_to(tgt)
        if isinstance(other, (int, Fraction)):
            return self, TruncatedSeries.constant(self.ctx, other)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        out = dict(a.coeffs)
        for key, val in b.coeffs.items():
            new = out.get(key, Fraction(0)) + val
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return TruncatedSeries(a.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.ctx, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return TruncatedSeries.zero(self.ctx)
            return TruncatedSeries(self.ctx, {k: v * c for k, v in self.coeffs.items()})
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        ctx = a.ctx
        terms_b = [(k, v, k[0], sum(k[1:])) for k, v in b.coeffs.items()]
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, v1 in a.coeffs.items():
            q1 = k1[0]
            d1 = sum(k1[1:])
            for k2, v2, q2, d2 in terms_b:
                if q1 + q2 > ctx.NQ or d1 + d2 > ctx.D:
                    continue
                key = tuple(x + y for x, y in zip(k1, k2))
                new = out.get(key, Fraction(0)) + v1 * v2
                if new:
                    out[key] = new
                else:
                    del out[key]
        return TruncatedSeries(ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined for truncated series")
        out = TruncatedSeries.one(self.ctx)
        for _ in range(n):
            out = out * self
        return out

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


def series_exp(f: TruncatedSeries) -> TruncatedSeries:
    """exp(f) as a terminating sum; requires a vanishing constant term."""
    if f.constant_term:
        raise ValueError("series_exp needs a zero constant term")
    acc = TruncatedSeries.one(f.ctx)
    term = TruncatedSeries.one(f.ctx)
    # every monomial of f has positive combined degree, so f^n dies at
    # n > D + NQ
    for n in range(1, f.ctx.D + f.ctx.NQ + 2):
        term = term * f * Fraction(1, n)
        if not term:
            break
        acc = acc + term
    return acc


def series_partial(f: TruncatedSeries, var: str) -> TruncatedSeries:
    """Formal partial derivative; the result context has the relevant cap
    lowered by one, which is where the lost top-degree information is recorded."""
    idx = f.ctx.var_index(var)
    if idx == 0:
        new_ctx = SeriesContext(f.ctx.K, f.ctx.D, max(f.ctx.NQ - 1, 0))
    else:
        new_ctx = SeriesContext(f.ctx.K, max(f.ctx.D - 1, 0), f.ctx.NQ)
    out = {}
    for key, val in f.coeffs.items():
        e = key[idx]
        if e:
            nk = list(key)
            nk[idx] = e - 1
            out[tuple(nk)] = val * e
    return TruncatedSeries(new_ctx, out)


def _flip_signs(f: TruncatedSeries, indices: range) -> TruncatedSeries:
    """Substitute var -> -var for the variables at the key positions in
    indices: a coefficient changes sign when their exponents sum to an odd
    number."""
    return TruncatedSeries.trusted(f.ctx, {
        key: -val if sum(key[i] for i in indices) % 2 else val
        for key, val in f.coeffs.items()})


def alternate_t_signs(f: TruncatedSeries) -> TruncatedSeries:
    """t_k -> (-1)^k t_k, i.e. the substitution (-t_1, t_2, -t_3, ...)."""
    return _flip_signs(f, range(1, f.ctx.K + 1, 2))


def negate_hatted(f: TruncatedSeries) -> TruncatedSeries:
    """th_k -> -th_k for every k."""
    return _flip_signs(f, range(f.ctx.K + 1, 2 * f.ctx.K + 1))


def substitute_difference(f: TruncatedSeries) -> TruncatedSeries:
    """Substitute t_k -> t_k - th_k; degrees are preserved, so the caps are kept.
    A monomial t^a expands binomially to
    prod_k sum_j C(a_k, j) (-1)^j t_k^(a_k - j) th_k^j, and (a - j, j) recovers
    a, so no two monomials of f share an image term."""
    K = f.ctx.K
    out = {}
    for key, val in f.coeffs.items():
        if any(key[K + 1:]):
            raise ValueError("substitute_difference expects a series in the t family only")
        a = key[1:K + 1]
        for j in product(*(range(e + 1) for e in a)):
            c = val * prod(comb(e, i) for e, i in zip(a, j))
            out[(key[0], *(e - i for e, i in zip(a, j)), *j)] = -c if sum(j) % 2 else c
    return TruncatedSeries(f.ctx, out)


def first_difference(f: TruncatedSeries, g: TruncatedSeries):
    """Earliest monomial (canonical order) where two series differ, as
    (label, f_value, g_value); None when they agree on the common context."""
    ctx = f.ctx.meet(g.ctx)
    fa, ga = f.truncate_to(ctx), g.truncate_to(ctx)
    keys = set(fa.coeffs) | set(ga.coeffs)
    for key in sorted(keys, key=lambda t: (sum(t), t)):
        va = fa.coeffs.get(key, Fraction(0))
        vb = ga.coeffs.get(key, Fraction(0))
        if va != vb:
            return monomial_label(ctx, key), va, vb
    return None


def linear_form(ctx: SeriesContext, t_coeffs: Mapping[int, Fraction] | None = None,
                th_coeffs: Mapping[int, Fraction] | None = None) -> TruncatedSeries:
    """sum_k a_k t_k + sum_k b_k th_k for k = 1..K."""
    out = {}
    for k, c in (t_coeffs or {}).items():
        key = [0] * ctx.nvars
        key[ctx.var_index(f"t{k}")] = 1
        if Fraction(c):
            out[tuple(key)] = Fraction(c)
    for k, c in (th_coeffs or {}).items():
        key = [0] * ctx.nvars
        key[ctx.var_index(f"th{k}")] = 1
        if Fraction(c):
            out[tuple(key)] = Fraction(c)
    return TruncatedSeries(ctx, out)
