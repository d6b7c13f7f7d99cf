"""Exact scalars, value records, the series caps and the model point.

Scalars are plain fractions.Fraction values. Every power of q in the model
is an integer power of p = q^(1/2), so with rational p all arithmetic stays
inside Q and every comparison is an exact equality. ModelParams, the model
point every series route reads, and charge_offset live here, beside
SeriesContext, so the tau construction compiles no partition sum; `fock` is
imported only by ModelParams.config.

Series live in Q[Q, t_1..t_K, th_1..th_K] modulo the ideal spanned by
monomials with Q-degree > NQ or total (t, th)-degree > D; SeriesContext holds
the caps. Truncation is an ideal quotient, so ring identities hold exactly on
the retained monomials. The Fraction form of such a series, in which reports
and exports are written, is `truncated`.

Every route imports this module: the cli reads its run configuration from it,
so `--help` compiles this module and nothing else of the package.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import TYPE_CHECKING

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
