"""Set-partition generators and Bell numbers.

The full enumeration walks restricted-growth strings; the fixed-block-count
variant filters it.  They are exported for callers; the library's own
exponential-type coefficients come from a recursion over vertex bitmasks
(``exptype.chi_k_coefficients``) and from the cluster engine instead.
"""

from __future__ import annotations


def set_partitions(items):
    """Yield all partitions of ``items`` as tuples of tuples.

    Partitions are produced in restricted-growth-string order; blocks keep
    the element order of ``items`` and are sorted by first element.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i, maxval):
        if i == n:
            nblocks = maxval + 1
            blocks = [[] for _ in range(nblocks)]
            for pos, b in enumerate(rgs):
                blocks[b].append(items[pos])
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(maxval + 2):
            rgs[i] = b
            yield from rec(i + 1, max(maxval, b))

    yield from rec(1, 0)


def set_partitions_k(items, k: int):
    """Yield partitions of ``items`` into exactly ``k`` nonempty blocks."""
    items = list(items)
    n = len(items)
    if k < 0:
        raise ValueError("block count must be nonnegative")
    if n == 0:
        if k == 0:
            yield ()
        return
    if k == 0 or k > n:
        return
    for part in set_partitions(items):
        if len(part) == k:
            yield part


def bell_number(n: int) -> int:
    """Bell number via the triangle recurrence (used only for sanity checks)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]
