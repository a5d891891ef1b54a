"""Partition-indexed graph polynomials and their certified evaluation.

A block weight chi assigns a complex number to every multigraph with
chi(K_1) = 1.  Summing products of chi over induced blocks of vertex
partitions with exactly k blocks gives coefficients chi_k, and the
polynomial sum chi_k z^k is monic of degree |V|.  The random-cluster sum
Z(G)(q, v) arises from the connected-spanning-subgraph weight; v = -1 is
the chromatic polynomial.  For evaluation points beyond the root radius,
the reversed polynomial is log-expanded at the origin exactly like the
edge-model blend, yielding certified multiplicative results.  Its
coefficients come from the 3^n partition recursion when the whole graph
fits in one cluster, and otherwise from the connected-set engine that the
edge models use (:class:`holant.approx._ClusterEngine`), which computes
one local reversed polynomial per labelled shape of connected set.

The recursion weighs each block by chi of its induced subgraph.  When chi
vanishes on two isolated vertices, as the random-cluster weight does, only
connected blocks are weighed and a disconnected one counts 0 unbuilt.  The
random-cluster weight of a graph on b vertices is a subset sieve over its
2^b vertex sets, 3^b terms however many edges it has, and the sieve of the
whole graph gives chi of every induced subgraph along the way.  So a spec
may carry that table (``chi_table``, as tutte and chromatic do): the
recursion then reads each block's chi from one sieve of the whole graph
and charges 2 * 3^|V|, the sieve and itself.  A spec with chi alone is
called once per distinct block graph, and the recursion charges 3^|V|,
which does not count those calls.  The cluster engine charges 3^b against
the caller's budget before any shape of b vertices is weighed.
"""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from .approx import (ApproxCertificate, _ClusterEngine, _normalized_log, taylor_error_bound,
                     taylor_order)
from .errors import OutsideRegionError
from .exact import ComplexPoly, _charge, poly_roots
from .graphs import Multigraph, component_count

@dataclass(frozen=True)
class ExpTypeSpec:
    """A block weight plus optional root-location knowledge.

    ``root_radius`` is a caller-supplied bound on root moduli of the
    polynomial over the graph class of interest; a negative or NaN one is
    refused with ValueError.  ``root_radius_heuristic``
    marks radii that were estimated rather than proven, and is propagated
    to certificates.

    ``chi`` must be 1 on K_1.  Construction also probes chi on two isolated
    vertices and keeps whether it vanishes there as ``vanishes_disconnected``.
    Two paths rely on chi vanishing on disconnected graphs, as the
    random-cluster weight does, and both read that flag:
    :func:`chi_k_coefficients` then weighs only connected blocks (any other
    chi is evaluated on every block), and the cluster path of
    :func:`eval_exp_type`, which needs the polynomial to factor over
    components, refuses a chi that does not vanish there.  The probe stands
    for every disconnected graph, so a chi that vanishes on two isolated
    vertices must vanish on all of them.

    chi must be a function of the vertex count and the edge multiset, not
    of the order of the edges: :func:`chi_k_coefficients` calls it once per
    distinct block graph and the cluster path once per shape, and every
    block or set with that graph or shape shares the value.

    ``chi_table``, when given, maps a graph g to the list of chi of the
    subgraph that each vertex bitmask of g induces, indexed by the mask;
    :func:`chi_k_coefficients` then reads every block from that one list
    and never calls chi.  The cluster path still calls chi.
    """

    chi: Callable[[Multigraph], complex]
    name: str
    root_radius: float | None = None
    root_radius_heuristic: bool = False
    chi_table: Callable[[Multigraph], list[complex]] | None = None
    vanishes_disconnected: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_radius(self.root_radius)
        probe = complex(self.chi(Multigraph(1, ())))
        if abs(probe - 1.0) > 1e-9:
            raise ValueError(f"chi(K_1) = {probe} but must be 1")
        object.__setattr__(self, "vanishes_disconnected",
                           self.chi(Multigraph(2, ())) == 0)

    def with_root_radius(self, c: float, heuristic: bool = True) -> "ExpTypeSpec":
        """This spec with root radius ``c``; chi is not probed again."""
        c = float(c)
        _check_radius(c)
        out = copy.copy(self)
        object.__setattr__(out, "root_radius", c)
        object.__setattr__(out, "root_radius_heuristic", heuristic)
        return out


def _check_radius(c: float | None) -> None:
    """Refuse a root radius that is negative or NaN; None means no radius."""
    if c is not None and not c >= 0:
        raise ValueError(f"root radius must be nonnegative, not {c}")


# ---------------------------------------------------------------------------
# the random-cluster block weight


def chi_tutte(g: Multigraph, v: complex, budget: float | None = None) -> complex:
    """Sum of v^|A| over edge subsets A that connect and span all of g.

    The subset sieve C(S) = (1+v)^{e(S)} - sum over proper subsets T of S
    holding S's lowest vertex of C(T)(1+v)^{e(S minus T)}, over all vertex
    bitmasks of g: 3^|V| terms and 2^|V| table entries, whatever the
    number of edges.  Raises BudgetExceededError before any table is built
    when 3^|V| exceeds ``budget`` (at the default budget, graphs of 17 or
    more vertices).
    """
    _charge(3 ** g.n, budget, f"3^{g.n} sieve terms for chi")
    return _chi_tutte_sieve(g, complex(v))[-1]


def _chi_tutte_sieve(g: Multigraph, v: complex) -> list[complex]:
    """The sieve of :func:`chi_tutte` under no budget, as its whole table.

    Entry ``mask`` is chi of the subgraph that ``mask`` induces, the empty
    one being 1: each mask is sieved over its own subsets in the order
    that the induced subgraph, relabelled by rank, would sieve them, so
    every entry equals :func:`chi_tutte` of that subgraph bit for bit.
    """
    n = g.n
    # per vertex t: its edges to each lower vertex, and at index t its loops
    links = [[0] * (t + 1) for t in range(n)]
    for u, w in g.edges:
        links[w][u] += 1
    # a mask's inner edges: those of the mask without its top vertex t, plus
    # t's loops and its edges into that rest; masks with top t come in turn
    inner = [0]
    for t, row in enumerate(links):
        into = [row[t]]
        for m in row[:t]:
            into += [c + m for c in into]
        inner += [e + c for e, c in zip(inner, into)]
    powers = [(1.0 + v) ** e for e in range(g.m + 1)]
    full = [powers[e] for e in inner]
    conn = [full[0]] + [0j] * ((1 << n) - 1)
    for mask in range(1, 1 << n):
        anchor = mask & -mask
        others = mask ^ anchor
        acc = full[mask]
        # the proper subsets holding the anchor, largest first
        sub = others
        while sub:
            sub = (sub - 1) & others
            acc -= conn[sub | anchor] * full[others ^ sub]
        conn[mask] = acc
    return conn


def tutte_spec(v: complex, root_radius: float | None = None,
               heuristic: bool = False) -> ExpTypeSpec:
    """Random-cluster family member at a finite edge weight ``v``.

    Its chi and its ``chi_table`` sieve under no budget of their own; the
    caller charges them.  The cluster engine charges 3^|C| against the
    caller's budget before it weighs a shape C, and
    :func:`chi_k_coefficients` charges 2 * 3^|V| before it sieves the
    whole graph once for the table.
    """
    v = complex(v)
    if not cmath.isfinite(v):
        raise ValueError(f"tutte edge weight v must be finite, not {v}")
    return ExpTypeSpec(lambda h: chi_tutte(h, v, math.inf), f"tutte:v={v.real:g},{v.imag:g}",
                       root_radius, heuristic, lambda h: _chi_tutte_sieve(h, v))


def chromatic_spec(root_radius: float | None = None,
                   heuristic: bool = False) -> ExpTypeSpec:
    """Proper-coloring counts: the random-cluster family at v = -1."""
    spec = tutte_spec(-1.0, root_radius, heuristic)
    return replace(spec, name="chromatic")


# ---------------------------------------------------------------------------
# direct random-cluster sums


def random_cluster_profile(g: Multigraph, budget: float | None = None) -> dict:
    """Histogram {(components, edges): count} over all edge subsets."""
    _charge(2 ** g.m, budget, f"2^{g.m} edge subsets")
    profile: dict[tuple[int, int], int] = {}
    for bits in range(1 << g.m):
        chosen = [g.edges[i] for i in range(g.m) if bits >> i & 1]
        key = (component_count(g.n, chosen), len(chosen))
        profile[key] = profile.get(key, 0) + 1
    return profile


def tutte_from_profile(profile: dict, q: complex, v: complex) -> complex:
    return sum(cnt * q ** c * v ** a for (c, a), cnt in sorted(profile.items()))


def tutte_direct(g: Multigraph, q: complex, v: complex,
                 budget: float | None = None) -> complex:
    """Random-cluster sum over edge subsets: q^components * v^size."""
    return tutte_from_profile(random_cluster_profile(g, budget), q, v)


# ---------------------------------------------------------------------------
# partition coefficients


def _block_graphs(g: Multigraph) -> Callable[[int], tuple]:
    """The map from a vertex bitmask of ``g`` to its induced graph's key.

    The key is (vertex count, edge pairs): the block's edges relabelled by
    rank in the block, as (min, max) pairs, sorted, loops and multiplicities
    kept.  ``Multigraph._trusted(*key)`` is the induced subgraph with its
    edges sorted.
    """
    # per vertex bit: the bit of the upper end of each edge whose lower end
    # it is, once per edge, ascending
    ups: dict[int, list[int]] = {1 << i: [] for i in range(g.n)}
    for u, w in sorted(g.edges):
        ups[1 << u].append(1 << w)

    def key(block: int) -> tuple:
        # vertices ascending, each one's upper ends ascending: sorted pairs
        pairs = []
        rest = block
        rank = 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            for up in ups[bit]:
                if block & up:
                    pairs.append((rank, (block & (up - 1)).bit_count()))
            rank += 1
        return rank, tuple(pairs)

    return key


def chi_k_coefficients(g: Multigraph, spec: ExpTypeSpec,
                       budget: float | None = None) -> list[complex]:
    """[chi_1, ..., chi_n]: partition sums with exactly k induced blocks.

    Anchored recursion over vertex bitmasks: the block containing the
    lowest remaining vertex is chosen, chi of its induced subgraph weighs
    it, and the rest recurses; results are memoized per mask.  When the
    spec's chi vanishes on disconnected graphs (``vanishes_disconnected``),
    a disconnected block weighs 0 without its chi being read, so only
    connected blocks are weighed; any other chi is read on every block.

    A spec with a ``chi_table`` is charged 2 * 3^|V| first, the table's
    sieve and the recursion, and each block's chi is read from that one
    table.  A spec with chi alone is charged 3^|V| first: a block's induced
    subgraph, relabelled by rank with its edges sorted, is built from
    per-graph bitmask tables without re-validation, and chi runs once per
    distinct such graph in a call, so blocks with equal graphs share the
    value.  Either way nothing is kept across calls.
    """
    n = g.n
    if n == 0:
        return []
    if spec.chi_table is None:
        _charge(3 ** n, budget, f"3^{n} anchored blocks")
        block_graph = _block_graphs(g)
        # blocks whose graphs are equal share one chi call
        chi_of_graph: dict[tuple, complex] = {}

        def chi_of_block(block: int) -> complex:
            key = block_graph(block)
            w = chi_of_graph.get(key)
            if w is None:
                w = chi_of_graph[key] = complex(spec.chi(Multigraph._trusted(*key)))
            return w
    else:
        _charge(2 * 3 ** n, budget, f"2*3^{n} sieve terms and anchored blocks")
        chi_of_block = spec.chi_table(g).__getitem__
    prune = spec.vanishes_disconnected
    # neighbour bitmask of each vertex bit; a loop's own bit is never
    # flooded, as it is already reached
    nbrs = {1 << i: 0 for i in range(n)}
    for u, w in g.edges:
        nbrs[1 << u] |= 1 << w
        nbrs[1 << w] |= 1 << u
    # the weight of each block bitmask
    chi_of: dict[int, complex] = {}
    memo: dict[int, dict[int, complex]] = {0: {0: 1.0 + 0j}}

    def weigh(block: int) -> complex:
        if prune:
            # flood the component of the block's lowest vertex
            reached = frontier = block & -block
            while frontier:
                bit = frontier & -frontier
                grown = nbrs[bit] & block & ~reached
                reached |= grown
                frontier = (frontier ^ bit) | grown
            if reached != block:
                return 0j
        return chi_of_block(block)

    def solve(mask: int) -> dict[int, complex]:
        found = memo.get(mask)
        if found is not None:
            return found
        anchor = mask & -mask
        others = mask ^ anchor
        out: dict[int, complex] = {}
        # every block holding the anchor, largest first
        sub = others
        while True:
            block = sub | anchor
            w = chi_of.get(block)
            if w is None:
                w = chi_of[block] = weigh(block)
            if w != 0:
                for blocks, val in solve(others ^ sub).items():
                    key = blocks + 1
                    out[key] = out.get(key, 0j) + w * val
            if not sub:
                break
            sub = (sub - 1) & others
        memo[mask] = out
        return out

    top = solve((1 << n) - 1)
    return [top.get(k, 0j) for k in range(1, n + 1)]


def exp_type_poly(g: Multigraph, spec: ExpTypeSpec,
                  budget: float | None = None) -> ComplexPoly:
    """The monic degree-|V| polynomial with the chi_k as coefficients.

    The empty graph gives the constant 1, as the random-cluster sum does.
    """
    chis = chi_k_coefficients(g, spec, budget)
    return ComplexPoly((0j,) + tuple(chis) if chis else (1.0,))


def qhat_derivative(g: Multigraph, spec: ExpTypeSpec, m: int,
                    budget: float | None = None) -> complex:
    """m-th derivative at 0 of the reversed polynomial z^n p(1/z).

    Equals m! times the partition sum with exactly n - m blocks, read from
    one :func:`chi_k_coefficients` call: a reference for the cluster
    expansion that :func:`eval_exp_type` runs on larger graphs.
    """
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    n = g.n
    if m >= n:
        return 1.0 + 0j if m == n == 0 else 0j
    return chi_k_coefficients(g, spec, budget)[n - m - 1] * math.factorial(m)


# ---------------------------------------------------------------------------
# certified evaluation outside the root disk


def _poly_mul(a, b) -> list[complex]:
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exp_shape(spec: ExpTypeSpec, engine, layout) -> list[complex]:
    """Cluster-engine oracle of an exponential-type polynomial.

    A shape's polynomial is qhat(C), the reversed polynomial of the
    multigraph on C: the sum over connected blocks B holding position 0 of
    chi(B) t^(|B|-1) qhat(C minus B), where qhat factors over the components
    of C minus B.  Its top coefficient is chi(C), from the block B = C
    alone.  The qhat of each proper block comes from the engine's shapes,
    and chi(B) is its top coefficient, so chi runs once per shape, on the
    shape itself.  Only masks without position 0 get a qhat: the sum reads
    it at C minus B, and their products at such masks.  Charges 3^|C| first.
    """
    labels, edges = layout
    size = len(labels)
    engine.charge(3 ** size, size)
    # position i as vertex i: the loops by position, then the other edges
    pairs = [(i, i) for i, (_, loops) in enumerate(labels) for _ in range(loops)]
    pairs += [(i, j) for i, j, m in edges for _ in range(m)]
    chi = complex(spec.chi(Multigraph._trusted(size, tuple(pairs))))
    full = (1 << size) - 1
    qhat = [[1.0 + 0j]] + [None] * full
    poly = [0j] * size
    anchored = []
    for mask, comp, local in engine.subsets(layout):
        if not mask & 1:
            qhat[mask] = local if comp == mask else _poly_mul(qhat[comp], qhat[mask ^ comp])
        elif comp == mask:
            anchored.append((mask, chi if local is None else local[-1]))
    for mask, chi_b in anchored:
        for i, a in enumerate(qhat[full ^ mask], mask.bit_count() - 1):
            poly[i] += chi_b * a
    return poly


def eval_exp_type(g: Multigraph, spec: ExpTypeSpec, x: complex, eps: float,
                  budget: float | None = None) -> ApproxCertificate:
    """Evaluate the partition polynomial at ``x`` with certified log error.

    Requires a finite x with |x| strictly beyond the spec's root radius c.  The reversed
    polynomial qhat(t) = t^n p(1/t) has no roots inside the disk of radius
    1/c, so ln(qhat / qhat(0)) is Taylor-expanded there and evaluated at
    t = 1/x; the log of the result adds n ln x + ln qhat(0).  When
    n <= order + 1 the whole graph is one cluster and one
    :func:`chi_k_coefficients` call gives the coefficients (certificate mode
    ``"exp-coefficients"``); otherwise the cluster engine of
    :mod:`holant.approx` runs with reach 1 (``"exp-cluster"``), which needs
    chi to vanish on disconnected graphs (ValueError if it does not).  Both
    expansions share the rule n <= order + reach: the edge models' engine,
    with reach 0, takes a connected graph of at most order vertices as one
    cluster too.
    Certificates inherit the heuristic flag when c was estimated.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    x = complex(x)
    if not cmath.isfinite(x):
        raise ValueError(f"evaluation point x must be finite, not {x}")
    c = spec.root_radius
    if c is None:
        raise ValueError(
            "spec has no root_radius; supply one or run estimate_root_radius"
        )
    if abs(x) <= c:
        raise OutsideRegionError(
            f"|x| = {abs(x):.6g} does not exceed the root radius {c:.6g}"
        )
    n = g.n
    q0 = c / abs(x)
    order = taylor_order(n, q0, eps)
    bound = taylor_error_bound(n, q0, order)

    if n <= order + 1:
        qhat = chi_k_coefficients(g, spec, budget)[::-1] or [1.0 + 0j]
        logs = _normalized_log(qhat, order)
        mode = "exp-coefficients"
    else:
        if not spec.vanishes_disconnected:
            raise ValueError(
                f"chi of {spec.name} is nonzero on two isolated vertices; the "
                "cluster expansion needs it to vanish on disconnected graphs"
            )
        logs = _ClusterEngine(g, partial(_exp_shape, spec), 1, budget).log_coefficients(order)
        mode = "exp-cluster"

    t = 1.0 / x
    series = 0j
    for m in range(order, 0, -1):
        series = series * t + logs[m]
    log_value = n * cmath.log(x) + logs[0] + series * t
    return ApproxCertificate(log_value, math.inf if c == 0 else 1.0 / c, q0, order, bound, 0.0,
                             mode, spec.root_radius_heuristic)


def estimate_root_radius(spec: ExpTypeSpec, max_degree: int, graphs,
                         budget: float | None = None) -> float:
    """Largest observed root modulus over sample graphs, times 1.5.

    A measurement, not a proof: radii from this function mark downstream
    certificates as heuristic.  Samples exceeding ``max_degree`` are skipped.
    """
    worst = 0.0
    for g in graphs:
        if g.n == 0 or g.max_degree() > max_degree:
            continue
        poly = exp_type_poly(g, spec, budget)
        if poly.degree < 1:
            continue
        for root in poly_roots(poly):
            worst = max(worst, abs(root))
    return 1.5 * worst
