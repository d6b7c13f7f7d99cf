"""Integer partitions: enumeration, conjugation, and Young-diagram statistics."""

from __future__ import annotations

import functools
from typing import Iterator


@functools.total_ordering
class Partition:
    """A weakly decreasing tuple of positive integers; () is the empty partition.

    Instances are immutable value objects, hashable and usable as dict keys.
    The total order is the canonical basis order: graded by weight, then
    lexicographically descending on parts.
    """

    __slots__ = ("parts", "weight")

    def __init__(self, parts=()):
        parts = tuple(int(x) for x in parts)
        for i, x in enumerate(parts):
            if x <= 0:
                raise ValueError(f"parts must be positive, got {parts!r}")
            if i and parts[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {parts!r}")
        self.parts = parts
        self.weight = sum(parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def sort_key(self):
        return (self.weight, tuple(-x for x in self.parts))

    def kappa(self) -> int:
        """sum_i mu_i (mu_i - 2i + 1); always even and odd under conjugation."""
        return sum(m * (m - 2 * i + 1) for i, m in enumerate(self.parts, start=1))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (column lengths)."""
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for m in self.parts:
            for j in range(m):
                cols[j] += 1
        return Partition(cols)

    def cells(self) -> Iterator[tuple[int, int]]:
        """Yield diagram cells (i, j), 1-indexed, row by row."""
        for i, m in enumerate(self.parts, start=1):
            for j in range(1, m + 1):
                yield (i, j)

    def hook_lengths(self) -> tuple[int, ...]:
        """Multiset of hook lengths arm + leg + 1, sorted descending."""
        conj = self.conjugate().parts
        hooks = []
        for i, m in enumerate(self.parts, start=1):
            for j in range(1, m + 1):
                hooks.append((m - j) + (conj[j - 1] - i) + 1)
        return tuple(sorted(hooks, reverse=True))

    def to_json(self) -> list[int]:
        return list(self.parts)


def _gen_exact(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    # First part largest and chosen descending, so the output is
    # lexicographically descending within each weight.
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_exact(n - first, first):
            yield (first,) + rest


def enumerate_partitions(n_max: int) -> list[Partition]:
    """All partitions with weight <= n_max, in canonical order."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return [Partition(t) for n in range(n_max + 1) for t in _gen_exact(n, n)]
