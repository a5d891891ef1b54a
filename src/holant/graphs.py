"""Multigraphs, standard families, and edge-list text I/O.

Graphs are stored as a vertex count plus an ordered tuple of endpoint pairs.
Loops and parallel edges are allowed; a loop contributes 2 to the degree of
its vertex, so the local color-count vector seen at a vertex always has norm
equal to the degree.  Edge indices (positions in the ``edges`` tuple) are the
stable identifiers used by colorings and restrictions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .errors import GraphFormatError


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph on vertices ``0..n-1``.

    Endpoints of each edge are normalized to ``(min, max)`` order; the edge
    list itself keeps its given order so that edge indices are meaningful.
    ``vertex_transitive`` is True only on the graphs that :func:`generate`
    builds from a family that is vertex-transitive by construction; no
    constructor argument sets it, so an edge-list graph never claims it.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _degrees: tuple[int, ...] = field(init=False, repr=False, compare=False)
    vertex_transitive: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = []
        degs = [0] * self.n
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e!r} out of range for n={self.n}")
            if u > v:
                u, v = v, u
            normalized.append((u, v))
            degs[u] += 2 if u == v else 1
            if u != v:
                degs[v] += 1
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "_degrees", tuple(degs))

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Multigraph":
        """The graph on ``n`` vertices with ``edges``, not re-validated.

        For callers that build ``edges`` themselves as a tuple of in-range
        ``(min, max)`` pairs; only the degrees are computed.
        """
        g = object.__new__(cls)
        degs = [0] * n
        for u, w in edges:
            degs[u] += 1
            degs[w] += 1
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "_degrees", tuple(degs))
        object.__setattr__(g, "vertex_transitive", False)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def max_degree(self) -> int:
        return max(self._degrees, default=0)

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, w in self.edges:
            adj[u].add(w)
            adj[w].add(u)
        return adj

    def is_simple(self) -> bool:
        seen = set()
        for u, w in self.edges:
            if u == w or (u, w) in seen:
                return False
            seen.add((u, w))
        return True


def edges_touching(g: Multigraph, vertices) -> tuple[int, ...]:
    """Indices of edges with at least one endpoint in ``vertices``."""
    vs = set(vertices)
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return tuple(i for i, (u, w) in enumerate(g.edges) if u in vs or w in vs)


def induced_subgraph(g: Multigraph, vertices) -> Multigraph:
    """Subgraph induced by ``vertices``, relabeled to ``0..len-1`` ascending.

    Keeps loops and parallel edges with their multiplicities.
    """
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    relabel = {v: i for i, v in enumerate(vs)}
    keep = [(relabel[u], relabel[w]) for u, w in g.edges if u in relabel and w in relabel]
    return Multigraph(len(vs), tuple(keep))


def component_count(n: int, edges) -> int:
    """Number of connected components of ``(range(n), edges)`` (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, w in edges:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
            comps -= 1
    return comps


def connected_subsets(g: Multigraph, max_size: int):
    """Yield every connected vertex subset of size 1..max_size exactly once.

    Subsets come out in growth order, grouped by their minimum vertex: a
    tuple starts at that root, and each later vertex is adjacent to an
    earlier one.  The enumeration is the usual rooted expansion, walked
    depth first in preorder: each subset is generated from the component of
    its smallest vertex, extending only through vertices larger than the
    root that have not been offered before on the current search path.  So
    a tuple of size s > 1 is the last tuple of size s - 1 yielded before it
    plus one vertex, and a consumer can keep per-depth state for prefixes.
    The first group, from ``(0,)`` up to the first tuple that does not start
    at 0, is exactly the connected sets that contain vertex 0.

    The children of a set S of size s - 1 are S plus each vertex of its
    frontier, in order: the vertices offered on the search path after S's
    last vertex u, then u's fresh neighbors (above the root, not offered
    before).  The cluster engine runs this same walk over its own arrays
    (:meth:`holant.approx._ClusterEngine.log_coefficients`); this generator
    is its reference, and gives the growth path of a graph that the engine
    takes as one cluster.  Most sets have the full size, and the full-size
    children of a set of size ``max_size - 1`` come from one tight loop: a
    full set is never extended, so it needs no frame and offers nothing to
    ``seen``.
    """
    if max_size < 1:
        return
    adj = [sorted(s) for s in g.adjacency()]
    for root in range(g.n):
        prefix = (root,)
        yield prefix
        if max_size == 1:
            continue
        start = [w for w in adj[root] if w > root]
        if max_size == 2:
            for w in start:
                yield prefix + (w,)
            continue
        leaf = max_size - 1
        current = [root]
        seen = set(start)
        # one frame per depth below the current set: [frontier, next index,
        # the vertices offered by the frontier vertex last added]; an
        # explicit stack, as a chain of nested generators costs its depth
        # on every yield
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
            if len(current) == leaf:
                # the full-size children, without frames or offers
                frame[2] = ()
                prefix = tuple(current)
                yield prefix
                for w in frontier[idx + 1:]:
                    yield prefix + (w,)
                for w in adj[u]:
                    if w > root and w not in seen:
                        yield prefix + (w,)
                continue
            fresh = frame[2] = [w for w in adj[u] if w > root and w not in seen]
            seen.update(fresh)
            yield tuple(current)
            frames.append([frontier[idx + 1:] + fresh, 0, None])


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class GraphFamilySpec:
    """Recipe for a generated graph: family name, sizes, and optional seed."""

    family: str
    size: int
    size2: int | None = None
    degree: int | None = None
    seed: int | None = None


def _cycle(n: int) -> Multigraph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices to stay simple")
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def _path(n: int) -> Multigraph:
    if n < 1:
        raise ValueError("paths need at least one vertex")
    return Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))


def _complete(n: int) -> Multigraph:
    if n < 1:
        raise ValueError("complete graphs need at least one vertex")
    return Multigraph(n, tuple(itertools.combinations(range(n), 2)))


def _torus2d(a: int, b: int) -> Multigraph:
    if a < 3 or b < 3:
        raise ValueError("torus grids need both sides >= 3 to stay simple")
    edges = []
    for i in range(a):
        for j in range(b):
            v = i * b + j
            edges.append((v, i * b + (j + 1) % b))
            edges.append((v, ((i + 1) % a) * b + j))
    return Multigraph(a * b, tuple(edges))


def _random_regular(n: int, d: int, seed: int | None) -> Multigraph:
    """Uniform-ish d-regular graph by the pairing model with rejection."""
    if n * d % 2 != 0:
        raise ValueError("n*d must be even for a d-regular graph")
    if d >= n:
        raise ValueError("degree must be below the vertex count")
    rng = random.Random(seed)
    for _ in range(10000):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(len(stubs) // 2)]
        seen = set()
        ok = True
        for u, w in pairs:
            if u == w or (min(u, w), max(u, w)) in seen:
                ok = False
                break
            seen.add((min(u, w), max(u, w)))
        if ok:
            return Multigraph(n, tuple(pairs))
    raise RuntimeError("pairing model failed to produce a simple graph")


def generate(spec: GraphFamilySpec) -> Multigraph:
    """Build a graph from a family spec; pure function of (spec, seed).

    ``cycle``, ``complete`` and ``torus`` graphs come out marked
    ``vertex_transitive`` (rotations, permutations and translations map any
    vertex to any other); ``path`` and ``regular`` graphs do not.
    """
    fam = spec.family.lower()
    transitive = fam in ("cycle", "complete", "torus", "torus2d")
    if fam == "cycle":
        g, declared = _cycle(spec.size), 2
    elif fam == "path":
        g, declared = _path(spec.size), 2
    elif fam == "complete":
        g, declared = _complete(spec.size), spec.size - 1
    elif fam in ("torus", "torus2d"):
        b = spec.size2 if spec.size2 is not None else spec.size
        g, declared = _torus2d(spec.size, b), 4
    elif fam in ("regular", "random-regular"):
        if spec.degree is None:
            raise ValueError("random-regular specs need a degree")
        g, declared = _random_regular(spec.size, spec.degree, spec.seed), spec.degree
    else:
        raise ValueError(f"unknown graph family {spec.family!r}")
    if not g.is_simple():
        raise RuntimeError(f"family {spec.family} produced a non-simple graph")
    if g.max_degree() > max(declared, 0):
        raise RuntimeError(f"family {spec.family} exceeded its declared degree")
    object.__setattr__(g, "vertex_transitive", transitive)
    return g


# ---------------------------------------------------------------------------
# text I/O: first line "n m", then one "u v" line per edge, 0-indexed


def parse_edge_list(text: str) -> Multigraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph description")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc
        if not (0 <= u < n and 0 <= w < n):
            raise GraphFormatError(f"edge {ln!r} out of range for n={n}")
        edges.append((u, w))
    return Multigraph(n, tuple(edges))


def format_edge_list(g: Multigraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {w}" for u, w in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Multigraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
