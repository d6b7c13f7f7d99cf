import json
from collections import Counter

import pytest

from toda_crystal import Partition, enumerate_partitions

import oracles


def test_empty_partition():
    assert enumerate_partitions(0) == [Partition([])]
    assert (Partition([]).weight, Partition([]).kappa()) == (0, 0)
    assert Partition([]).conjugate() == Partition([])
    assert Partition([]).hook_lengths() == ()


def test_enumerate_small():
    got = [p.parts for p in enumerate_partitions(2)]
    assert got == [(), (1,), (2,), (1, 1)]


@pytest.fixture(scope="module")
def weight_counts():
    """The number of partitions of each weight n <= 30, counted in one
    enumeration, which lists them weight by weight."""
    weights = [mu.weight for mu in enumerate_partitions(30)]
    assert weights == sorted(weights)
    return Counter(weights)


def test_enumerate_exact_weight_count(weight_counts):
    # oracle: Euler pentagonal recurrence gives p(5) = 7
    assert oracles.partition_count(5) == 7
    assert weight_counts[5] == 7


def test_enumerate_counts_against_oracle(weight_counts):
    assert sorted(weight_counts) == list(range(31))
    for n in range(31):
        assert weight_counts[n] == oracles.partition_count(n)


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)


def test_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_conjugate_examples():
    assert Partition([2, 1]).conjugate() == Partition([2, 1])
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])


def test_weight_kappa_examples():
    assert (Partition([1]).weight, Partition([1]).kappa()) == (1, 0)
    assert (Partition([1, 1]).weight, Partition([1, 1]).kappa()) == (2, -2)


def test_hooks_examples():
    assert Partition([1]).hook_lengths() == (1,)
    assert Partition([2, 1]).hook_lengths() == (3, 1, 1)
    assert Partition([2]).hook_lengths() == (2, 1)


def test_statistics_against_cell_oracles():
    for mu in enumerate_partitions(8):
        assert mu.kappa() == oracles.kappa_by_cells(mu)
        assert mu.hook_lengths() == oracles.hooks_by_grid(mu)


def test_conjugation_involution_and_kappa_antisymmetry():
    for mu in enumerate_partitions(10):
        tm = mu.conjugate()
        assert tm.conjugate() == mu
        assert mu.kappa() + tm.kappa() == 0
        assert mu.kappa() % 2 == 0
        assert mu.hook_lengths() == tm.hook_lengths()


def test_order_is_stable_and_serializable():
    a = json.dumps([p.to_json() for p in enumerate_partitions(8)])
    b = json.dumps([p.to_json() for p in enumerate_partitions(8)])
    assert a == b
    head = [p.to_json() for p in enumerate_partitions(3)]
    assert head == [[], [1], [2], [1, 1], [3], [2, 1], [1, 1, 1]]


def test_partitions_as_keys():
    d = {Partition([2, 1]): "a", Partition([3]): "b"}
    assert d[Partition((2, 1))] == "a"
    assert sorted(d)[0] == Partition([3])
