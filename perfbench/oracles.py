"""Reference values computed from the definitions, sharing no code with holant.

Graphs are passed as ``(n, edges)`` with ``edges`` a sequence of ``(u, w)``
pairs; a loop ``(v, v)`` adds 2 to the count vector of ``v``.  Weights are
callables ``weight(v, alpha) -> complex``.
"""

from __future__ import annotations

import itertools

import numpy as np

# einsum sublists take at most 52 distinct index labels per call
_MAX_LABELS = 52


def count_matchings(edges) -> int:
    """Number of matchings, the empty one included, by edge deletion."""

    def rec(rest):
        if not rest:
            return 1
        (u, w), tail = rest[0], rest[1:]
        total = rec(tail)
        if u != w:
            total += rec(tuple(e for e in tail if u not in e and w not in e))
        return total

    return rec(tuple(tuple(e) for e in edges))


def brute_force(n: int, edges, k: int, weight, pinned=None) -> complex:
    """Sum over every coloring of the unpinned edges, one term at a time."""
    pinned = dict(pinned or {})
    free = [i for i in range(len(edges)) if i not in pinned]
    total = 0j
    for colors in itertools.product(range(k), repeat=len(free)):
        coloring = dict(pinned)
        coloring.update(zip(free, colors))
        counts = [[0] * k for _ in range(n)]
        for i, (u, w) in enumerate(edges):
            counts[u][coloring[i]] += 1
            counts[w][coloring[i]] += 1
        term = 1.0 + 0j
        for v in range(n):
            term *= weight(v, tuple(counts[v]))
        total += term
    return total


def _vertex_tensor(v, axes, mults, offset, k, weight):
    """Dense tensor over the colors of ``axes``: the weight of the count vector."""
    table = np.empty((k,) * len(axes), dtype=complex)
    for colors in itertools.product(range(k), repeat=len(axes)):
        alpha = list(offset)
        for c, mult in zip(colors, mults):
            alpha[c] += mult
        table[colors] = weight(v, tuple(alpha))
    return table


def contract(n: int, edges, k: int, weight, pinned=None) -> complex:
    """Exact coloring sum by sweeping vertices 0..n-1 through one open-edge tensor.

    The state tensor has one axis per edge with exactly one swept endpoint.
    Sweeping a vertex contracts the axes of its edges to swept vertices and
    opens axes for its edges to unswept ones.  Pinned edges carry no axis: their
    color is added to the count vectors of both endpoints.  Cost is about
    ``k ** width`` per vertex, where width is the largest number of open edges.
    """
    pinned = dict(pinned or {})
    incident = [[] for _ in range(n)]
    offsets = [[0] * k for _ in range(n)]
    for i, (u, w) in enumerate(edges):
        if i in pinned:
            offsets[u][pinned[i]] += 1
            offsets[w][pinned[i]] += 1
        else:
            incident[u].append(i)
            if w != u:
                incident[w].append(i)
    state = np.ones((), dtype=complex)
    open_edges: list[int] = []
    for v in range(n):
        mine = incident[v]
        mults = [2 if edges[i][0] == edges[i][1] else 1 for i in mine]
        table = _vertex_tensor(v, mine, mults, offsets[v], k, weight)
        closing = [i for i in mine if i in open_edges]
        opening = [i for i in mine if i not in open_edges and max(edges[i]) > v]
        kept = [i for i in open_edges if i not in closing]
        labels = {e: j for j, e in enumerate(dict.fromkeys(open_edges + mine))}
        if len(labels) > _MAX_LABELS:
            raise ValueError(f"sweep width {len(labels)} exceeds the oracle's limit")
        state = np.einsum(state, [labels[e] for e in open_edges],
                          table, [labels[e] for e in mine],
                          [labels[e] for e in kept + opening])
        open_edges = kept + opening
    return complex(state)


def cluster_profile(n: int, edges) -> np.ndarray:
    """Counts of edge subsets by (components, size), vectorized over subsets."""
    m = len(edges)
    hist = np.zeros((n + 1) * (m + 1), dtype=np.int64)
    chunk = 1 << min(m, 18)
    for lo in range(0, 1 << m, chunk):
        masks = np.arange(lo, lo + chunk, dtype=np.int64)
        label = np.tile(np.arange(n, dtype=np.int16), (chunk, 1))
        present = [(masks >> i) & 1 == 1 for i in range(m)]
        changed = True
        while changed:
            changed = False
            for i, (a, b) in enumerate(edges):
                low = np.minimum(label[:, a], label[:, b])
                for end in (a, b):
                    moved = present[i] & (low < label[:, end])
                    if moved.any():
                        label[moved, end] = low[moved]
                        changed = True
        components = (label == np.arange(n, dtype=np.int16)).sum(axis=1)
        sizes = np.zeros(chunk, dtype=np.int64)
        for p in present:
            sizes += p
        hist += np.bincount(components * (m + 1) + sizes, minlength=hist.size)
    return hist.reshape(n + 1, m + 1)


def random_cluster(profile: np.ndarray, q: complex, v: complex) -> complex:
    """Sum over edge subsets A of q^components(A) * v^|A|."""
    total = 0j
    for c, a in zip(*np.nonzero(profile)):
        total += int(profile[c, a]) * complex(q) ** int(c) * complex(v) ** int(a)
    return total


def random_cluster_poly(profile: np.ndarray, v: complex) -> np.ndarray:
    """Coefficients in q, ascending, of the random-cluster sum at edge weight v."""
    powers = complex(v) ** np.arange(profile.shape[1])
    return profile @ powers
