"""Independent reference implementations used to check the package.

Everything here is written directly from definitions with no shared code
paths: matchings by deletion recursion, partition sums by full coloring
enumeration via itertools, random-cluster sums by subset BFS, and graph
canonicalization by explicit permutation minimization.  Two functions are
instead frozen copies of earlier package code, kept to pin results that a
faster version must reproduce bit for bit: ``anchored_chi_k`` and
``perturbed_ones_entries``.
"""

import cmath
import itertools
import math
from functools import lru_cache

import numpy as np

from holant import Multigraph
from holant.models import vectors_up_to


# ---------------------------------------------------------------------------
# matchings


def count_matchings(g: Multigraph) -> int:
    """Number of matchings (including empty) by edge deletion recursion."""

    def rec(edges):
        if not edges:
            return 1
        (u, v), rest = edges[0], edges[1:]
        total = rec(rest)
        if u != v:  # a loop can never be matched
            total += rec(tuple(e for e in rest if u not in e and v not in e))
        return total

    return rec(tuple(g.edges))


# ---------------------------------------------------------------------------
# brute-force sums straight from the definitions


def brute_partition(g: Multigraph, h) -> complex:
    """Full edge-coloring enumeration with per-vertex count vectors."""
    k = h.k
    total = 0j
    for coloring in itertools.product(range(k), repeat=g.m):
        prod = 1.0 + 0j
        for v in range(g.n):
            alpha = [0] * k
            for i, (a, b) in enumerate(g.edges):
                if a == v:
                    alpha[coloring[i]] += 1
                if b == v:
                    alpha[coloring[i]] += 1
            prod *= h.value(tuple(alpha))
        total += prod
    return total


def brute_contract(g: Multigraph, assignment) -> complex:
    k = assignment.k
    total = 0j
    for coloring in itertools.product(range(k), repeat=g.m):
        prod = 1.0 + 0j
        for v in range(g.n):
            alpha = [0] * k
            for i, (a, b) in enumerate(g.edges):
                if a == v:
                    alpha[coloring[i]] += 1
                if b == v:
                    alpha[coloring[i]] += 1
            prod *= assignment.value(v, tuple(alpha))
        total += prod
    return total


def brute_vertex_partition(g: Multigraph, a, B) -> complex:
    n_states = len(a)
    total = 0j
    for phi in itertools.product(range(n_states), repeat=g.n):
        w = 1.0 + 0j
        for v in range(g.n):
            w *= a[phi[v]]
        for u, x in g.edges:
            w *= B[phi[u]][phi[x]]
        total += w
    return total


# ---------------------------------------------------------------------------
# random-cluster / chromatic


def _components(n, edges) -> int:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        stack = [s]
        seen[s] = True
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return comps


def is_connected(g: Multigraph) -> bool:
    return g.n <= 1 or _components(g.n, g.edges) == 1


def disjoint_union(a: Multigraph, b: Multigraph) -> Multigraph:
    shifted = tuple((u + a.n, w + a.n) for u, w in b.edges)
    return Multigraph(a.n + b.n, a.edges + shifted)


def brute_tutte(g: Multigraph, q, v) -> complex:
    total = 0j
    for bits in range(1 << g.m):
        chosen = [g.edges[i] for i in range(g.m) if bits >> i & 1]
        total += q ** _components(g.n, chosen) * v ** len(chosen)
    return total


def brute_connected_spanning(g: Multigraph, v) -> complex:
    total = 0j
    for bits in range(1 << g.m):
        chosen = [g.edges[i] for i in range(g.m) if bits >> i & 1]
        if _components(g.n, chosen) == 1:
            total += v ** len(chosen)
    return total


def count_proper_colorings(g: Multigraph, q: int) -> int:
    count = 0
    for phi in itertools.product(range(q), repeat=g.n):
        if all(phi[u] != phi[v] for u, v in g.edges):
            count += 1
    return count


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
            blocks = [[] for _ in range(maxval + 1)]
            for pos, b in enumerate(rgs):
                blocks[b].append(items[pos])
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(maxval + 2):
            rgs[i] = b
            yield from rec(i + 1, max(maxval, b))

    yield from rec(1, 0)


def brute_chi_k(g: Multigraph, chi) -> list:
    """chi_1..chi_n via full set-partition enumeration (RGS order)."""
    from holant import induced_subgraph

    out = [0j] * g.n
    for part in set_partitions(tuple(range(g.n))):
        prod = 1.0 + 0j
        for block in part:
            prod *= chi(induced_subgraph(g, block))
        out[len(part) - 1] += prod
    return out


def anchored_chi_k(g: Multigraph, chi, prune: bool) -> list:
    """chi_1..chi_n by the anchored recursion, frozen as it was before chi
    values were shared between blocks with equal graphs.

    Every block goes through ``induced_subgraph``; with ``prune`` a
    disconnected block weighs 0 without chi.  The summation order is the
    package's, so its coefficients must equal these bit for bit.
    """
    from holant import induced_subgraph

    n = g.n
    chi_of = {}
    memo = {0: {0: 1.0 + 0j}}

    def weigh(block):
        sub = induced_subgraph(g, [i for i in range(n) if block >> i & 1])
        if prune and not is_connected(sub):
            return 0j
        return complex(chi(sub))

    def solve(mask):
        if mask in memo:
            return memo[mask]
        anchor = mask & -mask
        others = mask ^ anchor
        out = {}
        sub = others
        while True:
            block = sub | anchor
            if block not in chi_of:
                chi_of[block] = weigh(block)
            w = chi_of[block]
            if w != 0:
                for blocks, val in solve(others ^ sub).items():
                    out[blocks + 1] = out.get(blocks + 1, 0j) + w * val
            if not sub:
                break
            sub = (sub - 1) & others
        memo[mask] = out
        return out

    top = solve((1 << n) - 1) if n else {}
    return [top.get(k, 0j) for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# connected subsets


def brute_connected_subsets(g: Multigraph, max_size: int) -> set:
    found = set()
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(range(g.n), size):
            sub = [(u, v) for u, v in g.edges if u in combo and v in combo]
            index = {x: i for i, x in enumerate(combo)}
            local = [(index[u], index[v]) for u, v in sub]
            if _components(size, local) == 1:
                found.add(combo)
    return found


def growth_order_subsets(g: Multigraph, max_size: int):
    """The growth-order sequence that ``connected_subsets`` must yield.

    The rooted depth-first expansion with a frame per depth, full-size sets
    included: from each root in turn, extend through vertices above the
    root not offered before on the current search path, preorder.
    """
    if max_size < 1:
        return []
    adj = [sorted(s) for s in g.adjacency()]
    out = []
    for root in range(g.n):
        out.append((root,))
        if max_size == 1:
            continue
        start = [w for w in adj[root] if w > root]
        current = [root]
        seen = set(start)
        frames = [[start, 0, None]]
        while frames:
            frame = frames[-1]
            frontier, idx, fresh = frame
            if fresh is not None:
                current.pop()
                seen.difference_update(fresh)
            if idx == len(frontier):
                frames.pop()
                continue
            u = frontier[idx]
            current.append(u)
            frame[1] = idx + 1
            if len(current) == max_size:
                frame[2] = ()
                out.append(tuple(current))
                continue
            fresh = frame[2] = [w for w in adj[u] if w > root and w not in seen]
            seen.update(fresh)
            out.append(tuple(current))
            frames.append([frontier[idx + 1:] + fresh, 0, None])
    return out


# ---------------------------------------------------------------------------
# exhaustive small-graph enumeration up to isomorphism


@lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple:
    """All simple graphs on n vertices up to isomorphism (n <= 6)."""
    if n == 0:
        return (Multigraph(0, ()),)
    pairs = list(itertools.combinations(range(n), 2))
    ne = len(pairs)
    index = {p: i for i, p in enumerate(pairs)}
    perm_maps = []
    for sigma in itertools.permutations(range(n)):
        perm_maps.append([index[tuple(sorted((sigma[u], sigma[v])))] for u, v in pairs])

    total = 1 << ne
    masks = np.arange(total, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(ne, dtype=np.int64)) & 1
    weights = (np.int64(1) << np.arange(ne, dtype=np.int64))
    canon = masks.copy()
    for pm in perm_maps:
        relabeled = bits[:, pm] @ weights
        np.minimum(canon, relabeled, out=canon)
    reps = sorted(set(int(c) for c in canon))
    graphs = []
    for mask in reps:
        edges = tuple(pairs[i] for i in range(ne) if mask >> i & 1)
        graphs.append(Multigraph(n, edges))
    return tuple(graphs)


def graphs_up_to(n: int, connected_only: bool = False):
    out = []
    for size in range(1, n + 1):
        for g in enumerate_graphs(size):
            if connected_only and not is_connected(g):
                continue
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# seeded samplers


def random_simple_graph(n: int, p: float, rng) -> Multigraph:
    edges = tuple((u, v) for u, v in itertools.combinations(range(n), 2)
                  if rng.random() < p)
    return Multigraph(n, edges)


def random_graph_bounded(rng, max_n=8, max_m=12, max_degree=None) -> Multigraph:
    """A random simple graph honoring vertex, edge, and degree caps."""
    for _ in range(500):
        n = rng.randint(3, max_n)
        all_pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(all_pairs)
        m = rng.randint(min(2, len(all_pairs)), min(max_m, len(all_pairs)))
        g = Multigraph(n, tuple(all_pairs[:m]))
        if max_degree is None or g.max_degree() <= max_degree:
            return g
    raise RuntimeError("sampler failed to satisfy the degree cap")


def random_multigraph(rng, max_n=6, max_m=8) -> Multigraph:
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_m)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((u, v))
    return Multigraph(n, tuple(edges))


# ---------------------------------------------------------------------------
# the cluster engine's canonical layout, as first written


def canonical_layout(layout):
    """Canonical form of a cluster-engine layout, kept from its first version.

    Colors (leaving edges, loops, internal degree) as tuples, refined at
    most twice by the sorted (color, multiplicity) pairs of the neighbors,
    ties broken by position; the layout is then rewritten in that order.
    ``holant.approx._ClusterEngine._canonical`` must give the same key.
    """
    labels, edges = layout
    size = len(labels)
    adj = [[] for _ in range(size)]
    for i, j, mult in edges:
        adj[i].append((j, mult))
        adj[j].append((i, mult))
    color = [(b, loops, sum(m for _, m in adj[i])) for i, (b, loops) in enumerate(labels)]
    classes = len(set(color))
    for _ in range(2):
        if classes == size:
            break
        sig = [(color[i], tuple(sorted((color[j], m) for j, m in adj[i])))
               for i in range(size)]
        rank = {s: r for r, s in enumerate(sorted(set(sig)))}
        color = [rank[s] for s in sig]
        if len(rank) == classes:
            break
        classes = len(rank)
    perm = sorted(range(size), key=lambda i: (color[i], i))
    pos = {i: p for p, i in enumerate(perm)}
    return (tuple(labels[i] for i in perm),
            tuple(sorted((min(pos[i], pos[j]), max(pos[i], pos[j]), m)
                         for i, j, m in edges)))


# ---------------------------------------------------------------------------
# models


def perturbed_ones_entries(k: int, radius: float, seed: int, max_degree: int) -> dict:
    """The table of ``perturbed_ones``, frozen as it was drawn before: two
    scalar uniforms per vector, in vector order."""
    rng = np.random.default_rng(seed)
    entries = {}
    for alpha in vectors_up_to(max_degree, k):
        rho = radius * math.sqrt(rng.uniform(0.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        entries[alpha] = 1.0 + rho * cmath.exp(1j * phi)
    return entries
