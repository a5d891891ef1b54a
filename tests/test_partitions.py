"""Unit tests for the set-partition oracle."""

import math

from oracles import set_partitions


def _stirling2(n, k):
    if k == 0:
        return 1 if n == 0 else 0
    total = 0
    for j in range(k + 1):
        total += (-1) ** j * math.comb(k, j) * (k - j) ** n
    return total // math.factorial(k)


def _bell(n):
    return sum(_stirling2(n, k) for k in range(n + 1))


def test_set_partitions_counts_match_bell():
    for n in range(0, 8):
        items = tuple(range(n))
        parts = list(set_partitions(items))
        assert len(parts) == _bell(n)
        # no duplicates
        assert len({tuple(sorted(tuple(sorted(b)) for b in p)) for p in parts}) == len(parts)


def test_set_partitions_blocks_cover_items():
    items = ("a", "b", "c", "d")
    for p in set_partitions(items):
        seen = [x for block in p for x in block]
        assert sorted(seen) == sorted(items)
        assert all(block for block in p)


def test_set_partitions_k_counts_match_stirling():
    for n in range(1, 8):
        parts = list(set_partitions(tuple(range(n))))
        for k in range(1, n + 1):
            assert sum(len(p) == k for p in parts) == _stirling2(n, k), (n, k)


def test_bell_numbers():
    assert [_bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
