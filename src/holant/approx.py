"""Certified evaluation of edge-coloring sums near the all-ones weight.

The pipeline: a zero-free disk of radius M around the all-ones model is
certified from the deviation of the weights, the log of the blended sum
q(z) = sum over colorings of prod (1 + z*(h-1)) is Taylor-expanded at 0 to
an order chosen from the tail bound, and the series is evaluated at z = 1.
The Taylor coefficients of ln q come from the cluster expansion: ln q
restricted to a vertex set is additive over its components, so every
connected set C of at most n vertices contributes the log of its own local
polynomial once, weighted by a signed binomial sum over the outer boundary
of C.  The model is the same at every vertex, so that polynomial depends
only on the labelled shape of C (its internal multigraph and the number of
edges leaving each vertex): it is computed once per shape, and its series
log once per shape and expansion.
The sets are streamed as they grow, and each carries a layout id derived
from its parent's id and its last vertex, so recognising a set's shape
costs one table lookup; only a new id is refined to its shape.  Per-vertex
arrays for the current prefix, undone when the next set is shorter, give a
set's row and boundary in time set by its last vertex's degree, not by the
size of the graph.  A set of the top size enters only the last
coefficient, with boundary weight 1, so unless it is a single vertex it is
never streamed: the engine streams the smaller sets, and counts the
top-size children of each set one size below under (that set's id, row of
the added vertex), reading them from the vertices offered after its last
vertex in the stream's frontier order; its shape is looked up once per
such pair.  A connected graph smaller than the top size is itself a
streamed set whose local polynomial is q, so the stream stops there and
that one shape's series log is the answer.  On a graph that
:func:`holant.graphs.generate` marks vertex-transitive, the sum over all sets
equals n times the sum over the sets containing vertex 0 of the same term
divided by |C| (every term depends only on the shape and the boundary,
which automorphisms keep), so only those sets are streamed.  The budget is
charged 1 per set, streamed or counted, plus each new shape's work.  Only
local neighborhoods are touched, which scales to graphs with hundreds of
vertices.  With another per-shape oracle the same engine expands the
exponential-type polynomials of :mod:`holant.exptype`.  The direct
vertex-subset formula for the derivatives of q stays as an independent
reference (:func:`q_derivative`).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import BudgetExceededError, OutsideRegionError
from .exact import (DEFAULT_BUDGET, _budget_text, _charge, _colored_sum, _degree_tables,
                    _plan, _plan_in_order, _run, _run_blend, _vertex_table)
from .graphs import Multigraph, connected_subsets, edges_touching
from .models import EdgeColoringModel, RegionParams, compositions


# ---------------------------------------------------------------------------
# constants of the zero-free region


@dataclass(frozen=True)
class ZeroFreeConstants:
    """Solution of 2/t = tan(t/2) and the derived radius scale."""

    theta: float
    x: float

    def radius(self, d: int) -> float:
        """Largest certified deviation scale for branching parameter ``d``."""
        if d < 1:
            raise ValueError("d must be at least 1")
        return self.x / (1.0 + self.x / (2.0 * d))


@lru_cache(maxsize=1)
def zero_free_constants() -> ZeroFreeConstants:
    """Bisect for the angle where 2/t = tan(t/2); cache the result."""
    lo, hi = 1.0, 2.0

    def excess(t: float) -> float:
        return math.tan(t / 2.0) - 2.0 / t

    if not (excess(lo) < 0 < excess(hi)):
        raise AssertionError("bisection bracket lost")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return ZeroFreeConstants(theta, theta * math.cos(theta / 2.0))


def certified_radius(d: int) -> float:
    """Deviation radius x / (1 + x/(2d)) below which the blend stays nonzero."""
    return zero_free_constants().radius(d)


def blend_radius(max_degree: int, deviation: float) -> float:
    """Zero-free radius in z of the blend of a model with this deviation.

    certified_radius(max_degree + 1) / (2 (max_degree + 1) deviation), and
    infinite at deviation 0; the Taylor expansion is feasible when it
    exceeds 1.
    """
    if deviation == 0:
        return math.inf
    return certified_radius(max_degree + 1) / (2.0 * (max_degree + 1) * deviation)


def magnitude_lower_bound(g: Multigraph, k: int, params: RegionParams) -> float:
    """Guaranteed lower bound on |partition sum| for weights inside the region."""
    try:
        return math.exp(log_magnitude_lower_bound(g, k, params))
    except OverflowError:
        return math.inf


def log_magnitude_lower_bound(g: Multigraph, k: int, params: RegionParams) -> float:
    inner = math.cos(params.theta / 2.0) * params.eta
    if inner <= 0:
        raise ValueError("cos(theta/2) * eta must be positive")
    return g.n * math.log(inner) + g.m * math.log(k)


# ---------------------------------------------------------------------------
# Taylor order selection


def taylor_error_bound(d: int, q0: float, n: int) -> float:
    """Tail bound d * q0^(n+1) / ((n+1) * (1 - q0)) on the truncated log."""
    if not 0 <= q0 < 1:
        raise ValueError("q0 must lie in [0, 1)")
    return d * q0 ** (n + 1) / ((n + 1) * (1.0 - q0))


MAX_ORDER = 10_000  # taylor_order refuses a bound that needs more terms


def taylor_order(d: int, q0: float, eps: float) -> int:
    """Smallest truncation order whose tail bound drops below ``eps``."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not 0 <= q0 < 1:
        raise OutsideRegionError(f"q0 = {q0:g} is not inside the unit disk")
    if d == 0 or q0 == 0:
        return 1
    for n in range(1, MAX_ORDER + 1):
        if taylor_error_bound(d, q0, n) <= eps:
            return n
    raise OutsideRegionError(
        f"tail bound stays above eps={eps:g} through order {MAX_ORDER}"
    )


# ---------------------------------------------------------------------------
# direct derivatives of the blended sum


def q_derivative(g: Multigraph, h: EdgeColoringModel, m: int,
                 budget: float | None = None) -> complex:
    """m-th derivative at 0 of z -> sum over colorings of prod (1 + z*(h-1)).

    Expands the product over vertices: each subset U of m vertices
    contributes the colorings of the edges touching U weighted by (h-1) at
    every U-vertex, while untouched edges are free and contribute a power of
    k.  This global enumeration is the reference the cluster expansion is
    checked against; it refuses before any work when C(n, m) subsets times
    k^min(m * max degree, |E|) colorings exceed the budget.
    """
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    k = h.k
    if m > g.n:
        return 0j
    if m == 0:
        return complex(k) ** g.m

    free = min(m * g.max_degree(), g.m)
    _charge(math.comb(g.n, m) * k ** free, budget,
            f"C({g.n},{m})*{k}^{free} order-{m} direct expansion terms")

    total = 0j
    deviations = _degree_tables(g, k, lambda a: h.value(a) - 1.0)
    for subset in combinations(range(g.n), m):
        touched = edges_touching(g, subset)
        tables = {v: deviations[v] for v in subset}
        inner = _colored_sum(g, k, touched, {}, tables, budget)
        total += inner * float(k) ** (g.m - len(touched))
    return total * math.factorial(m)


# ---------------------------------------------------------------------------
# connected-subset expansion of the log derivatives


def _normalized_log(poly, order: int) -> list[complex]:
    """Series log of poly / poly(0) through ``order``, entry 0 set to ln poly(0).

    The one series-log routine of the package.  The cluster engine takes
    one per shape; an edge shape's polynomial has constant term exactly 1,
    and an exponential-type one the product of chi over the single
    vertices, 1 without loops.
    """
    lead = poly[0]
    if lead == 0:
        raise OutsideRegionError(
            "chi vanishes on a single vertex (a loop under chromatic), so the "
            "reversed polynomial is 0 at the origin and has no log expansion there"
        )
    p = [1.0 + 0j] + [a / lead for a in poly[1:]] + [0j] * (order + 1 - len(poly))
    logs = [cmath.log(lead)] + [0j] * order
    for j in range(1, order + 1):
        acc = p[j]
        for i in range(1, j):
            acc -= (i / j) * logs[i] * p[j - i]
        logs[j] = acc
    return logs


class _ClusterEngine:
    """Connected-set expansion of one graph, shared by both expansions.

    The oracle maps the layout of a new shape to the shape's local
    polynomial (:class:`_EdgeOracle`, ``exptype._exp_shape``), whose top
    coefficient is the shape's value; the reach is 0 for edge models and 1
    for exponential-type polynomials.

    A layout describes a connected set exactly, its vertices in growth order
    (each adjacent to an earlier one): ``labels[i]`` is (edges leaving the
    set at position i, loops there) and ``edges`` the internal non-loop
    edges as (i, j, multiplicity) with i < j.  Equal layouts are isomorphic
    labelled shapes, position i mapping to position i.  Layouts get ids
    while sets grow: the id of C + u is ``intern[(id(C), row(u))]``, where
    the row is u's loops, its degree and its edges into C by position, so
    an id fixes its layout.  Id 0 is the empty set.
    """

    def __init__(self, g: Multigraph, oracle, reach: int, budget: float | None):
        self.g = g
        self.oracle = oracle
        self.reach = reach
        budget = DEFAULT_BUDGET if budget is None else budget
        self._budget_text = _budget_text(budget)
        try:
            self.budget = float(budget)
        except OverflowError:
            # an int past the float range bounds the float sums as an infinity
            self.budget = math.inf if budget > 0 else -math.inf
        self.streamed = 0
        self.shape_terms = 0.0
        # loop counts and the distinct other neighbors with multiplicities
        self.loops = [0] * g.n
        mult = [{} for _ in range(g.n)]
        for u, w in g.edges:
            if u == w:
                self.loops[u] += 1
            else:
                mult[u][w] = mult[u].get(w, 0) + 1
                mult[w][u] = mult[w].get(u, 0) + 1
        self.neighbors = [dict(sorted(m.items())) for m in mult]
        # a row is packed into one int: the index of (loops, degree) plus
        # len(kinds) * sum of multiplicity * radix^position, radix above
        # every multiplicity, so equal codes are equal rows; _place holds
        # the positions of the largest set streamed so far
        kinds = sorted({(self.loops[v], g.degree(v)) for v in range(g.n)})
        self._kind = {kind: i for i, kind in enumerate(kinds)}
        self._radix = 1 + max((m for nb in self.neighbors for m in nb.values()), default=0)
        # above every leaving, loop and internal degree count of a position
        self._span = 1 + g.max_degree()
        self._place: list[int] = []
        self._intern: dict[tuple[int, int], int] = {}
        self._layouts: list[tuple] = [((), ())]
        self._id_shape: list[int | None] = [None]
        # canonical layout -> shape id; shapes[id] = (size, local polynomial)
        self._shape_of: dict[tuple, int] = {}
        self.shapes: list[tuple[int, list[complex]]] = []

    def charge(self, terms: float, size: int) -> None:
        """Spend ``terms`` at a set of ``size``; refuse once past the budget.

        The total spent is 1 per streamed set plus the shape charges.
        """
        self.shape_terms += terms
        spent = self.streamed + self.shape_terms
        if spent > self.budget:
            raise BudgetExceededError(
                f"connected-set expansion exceeded the budget: "
                f"{spent:g} terms spent against a budget of {self._budget_text}, "
                f"after {self.streamed} sets streamed and {len(self.shapes)} "
                f"shapes computed, at a set of size {size}"
            )

    # -- layout ids --

    def _settle(self, pid: int, code: int, loops: int, degree: int, pairs) -> int:
        """Id of the set with id ``pid`` plus a vertex whose row packs to ``code``.

        The vertex has ``loops`` loops and ``degree``, and ``pairs`` lists
        the (position, multiplicity) of its edges into the parent's set.  A
        new (pid, code) pair is interned, its layout following from the
        parent's, and a new id's shape is resolved (:meth:`_shape`), charged
        after the ``self.streamed`` sets that the caller has recorded.
        """
        cid = self._intern.get((pid, code))
        if cid is None:
            labels, edges = self._layouts[pid]
            labels = list(labels)
            size = len(labels)
            for p, m in pairs:
                leaving, at = labels[p]
                labels[p] = (leaving - m, at)
            labels.append((degree - 2 * loops - sum(m for _, m in pairs), loops))
            edges += tuple((p, size, m) for p, m in sorted(pairs))
            cid = self._intern[pid, code] = len(self._layouts)
            self._layouts.append((tuple(labels), edges))
            self._id_shape.append(None)
        if self._id_shape[cid] is None:
            self._shape(cid)
        return cid

    def _canonical(self, layout) -> tuple:
        """The layout rewritten in a vertex order that isomorphic sets mostly share.

        Positions are colored by (leaving edges, loops, internal degree),
        refined twice by the sorted colors of the neighbors, ties broken by
        position.  Colors are ints ordered as those tuples would be: the
        first packs the triple in base ``_span``, and a neighbor enters a
        signature as color * ``_radix`` + multiplicity, so the order, and
        with it the canonical layout, is that of the tuples.
        """
        labels, edges = layout
        size = len(labels)
        span = self._span
        adj = [[] for _ in range(size)]
        color = [(leaving * span + loops) * span for leaving, loops in labels]
        for i, j, m in edges:
            adj[i].append((j, m))
            adj[j].append((i, m))
            color[i] += m
            color[j] += m
        classes = len(set(color))
        if classes < size:
            radix = self._radix
            # a round that splits no class, or classes that are all single,
            # would leave the order of the next round unchanged
            for _ in range(2):
                sig = [(color[i], tuple(sorted([color[j] * radix + m for j, m in adj[i]])))
                       for i in range(size)]
                distinct = sorted(set(sig))
                rank = {s: r for r, s in enumerate(distinct)}
                color = [rank[s] for s in sig]
                if len(distinct) in (classes, size):
                    break
                classes = len(distinct)
        # sorted() is stable, so ties keep position order
        perm = sorted(range(size), key=color.__getitem__)
        pos = [0] * size
        for p, i in enumerate(perm):
            pos[i] = p
        out = []
        for i, j, m in edges:
            i, j = pos[i], pos[j]
            out.append((i, j, m) if i < j else (j, i, m))
        out.sort()
        return tuple([labels[i] for i in perm]), tuple(out)

    def _shape(self, cid: int) -> int:
        """Shape id of the layout with id ``cid``, met for the first time.

        The layout is looked up by its canonical form (:meth:`_canonical`),
        and if that is new too, the oracle computes the shape.  A tie that
        the refinement leaves open costs one more shape, never a wrong one.
        """
        layout = self._layouts[cid]
        canonical = self._canonical(layout)
        sid = self._shape_of.get(canonical)
        if sid is None:
            # the oracle resolves smaller shapes first, so append after it
            poly = self.oracle(self, layout)
            sid = self._shape_of[canonical] = len(self.shapes)
            self.shapes.append((len(layout[0]), poly))
        self._id_shape[cid] = sid
        return sid

    def subsets(self, layout):
        """Yield (mask, comp, poly) for the nonempty masks of a new shape.

        Only the exponential-type oracle reads these polynomials; the edge
        oracle gets every sub-mask from one blend run.  Masks are over the
        layout's positions, in increasing order.  ``comp`` is the component
        of the mask's lowest position, grown from that of the mask minus its
        highest position v; ``poly`` is the local polynomial of a proper
        connected mask, None for a disconnected mask and for the whole set.
        A connected mask's vertex order is the order of the mask minus its
        highest position that leaves it connected, then that position, so
        its id is folded from the smaller mask's id through the intern
        table.  A prefix of the layout keeps its own order, and with it its
        id.
        """
        labels, edges = layout
        size = len(labels)
        adj = [0] * size
        links = [[] for _ in range(size)]
        degree = [leaving + 2 * loops for leaving, loops in labels]
        for i, j, m in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            links[i].append((j, m))
            links[j].append((i, m))
            degree[i] += m
            degree[j] += m
        kind = [self._kind[loops, degree[i]] for i, (_, loops) in enumerate(labels)]
        place, id_shape, shapes = self._place, self._id_shape, self.shapes
        full = (1 << size) - 1
        comp_of = [0] * (full + 1)
        # per connected proper mask: its layout id and its vertex order
        fold_id = [0] * full
        fold_seq = [()] * full
        for mask in range(1, full + 1):
            v = mask.bit_length() - 1
            rest = mask ^ 1 << v
            comp = comp_of[rest]
            if not rest or adj[v] & comp and comp == rest:
                comp = mask
            elif adj[v] & comp:
                # v joins the lowest component to others of the rest
                comp |= 1 << v
                frontier = 1 << v
                while frontier:
                    i = (frontier & -frontier).bit_length() - 1
                    frontier &= frontier - 1
                    grown = adj[i] & mask & ~comp
                    comp |= grown
                    frontier |= grown
            comp_of[mask] = comp
            if comp != mask or mask == full:
                yield mask, comp, None
                continue
            while comp_of[rest] != rest:
                # the next lower position of the mask
                v = (mask & (1 << v) - 1).bit_length() - 1
                rest = mask ^ 1 << v
            seq = fold_seq[rest]
            pairs = [(seq.index(w), m) for w, m in links[v] if rest >> w & 1]
            code = kind[v]
            for p, m in pairs:
                code += m * place[p]
            cid = fold_id[mask] = self._settle(fold_id[rest], code, labels[v][1], degree[v], pairs)
            fold_seq[mask] = seq + (v,)
            yield mask, comp, shapes[id_shape[cid]][1]

    # -- one series log per shape --

    def log_coefficients(self, order: int) -> list[complex]:
        """Taylor coefficients of ln q through ``order`` from the local series.

        With R the reach, each connected set C of at most order + R vertices
        enters once (Moebius inversion, as ln Q_S is additive over the
        components of S):
        [z^j] ln q = sum over C with |C| <= j + R of c(|dC|, j + R - |C|) [z^j] ln Q_C,
        where dC is the outer vertex boundary of C (:func:`_boundary_sign`).
        Q_C depends only on the labelled shape of C (internal multigraph and
        edges leaving each vertex), so the oracle runs once per shape.  The
        sets below the top size order + R are streamed from
        :func:`connected_subsets` in growth order, a set of size s > 1 being
        the last set of size s - 1 plus one vertex u.  The engine keeps the
        current prefix as a path (its vertices by position), per size its
        layout id and boundary, and per vertex w four entries: ``row[w]``,
        w's edges into the prefix packed by position; ``cover[w]``, the
        number of prefix vertices adjacent to w; ``inside[w]``; and
        ``pos[w]``.  Beside them it keeps ``offered``, the vertices above
        the root offered so far on the path, in the frontier order of
        :func:`connected_subsets` (a vertex above the root is offered once
        a path vertex is adjacent to it, so ``cover`` tells which are), and
        cuts it back whenever the path shrinks.  A shorter set first pops
        the path down to its prefix, undoing those entries.  The code of u
        is then ``kind[u] + row[u]`` and one intern lookup gives the set's
        id; only an id seen for the first time builds a layout and looks up
        its shape.  Pushing u adds its edges to the arrays and its fresh
        offers to the list, and the boundary is the prefix's, minus u, plus
        u's neighbors outside the prefix that no prefix vertex covers.

        A set S of size order + R - 1 is read only: one pass over the
        neighbors of its last vertex u gives its boundary and u's fresh
        offers, and nothing is pushed.  Its children of the top size are S
        plus each vertex offered after u, then each of u's fresh offers;
        they enter only [z^order], where c(b, 0) = 1, so each child S + w
        costs one count under (id of S, code of w in S), the code being
        ``kind[w] + row[w]`` plus w's edges to u at u's position.  The
        first child of each such pair resolves its id and shape, so shapes
        are charged when they are first met; after the stream each pair's
        count joins the tally under (its shape, 0).  At top size 1 (order 1,
        reach 0) there is no such S: the single vertices are streamed and
        tallied like the sets of any other order, with c(b, 0) = 1.

        The stream stops at the whole graph.  A connected graph of at most
        order + R - 1 vertices is itself a streamed set, with no boundary, and
        its local polynomial is q (up to the constant k^|E| for edge models),
        so ln Q_V alone gives every coefficient and the other sets add exactly
        zero to the sum: once the stream yields a set of size n, after the
        n - 1 proper prefixes of its growth path, the engine returns the
        series log of that set's polynomial.  A graph of exactly order + R vertices is not
        streamed at the top size, only counted from offers, so it keeps the
        full stream.

        On a graph marked ``vertex_transitive`` every term depends only on
        the shape and the boundary, which an automorphism keeps, so
        sum over C of f(C) = n * sum over C containing 0 of f(C) / |C|: the
        engine streams only the first group of :func:`connected_subsets`
        (the sets containing vertex 0) and weighs each tally by n / |C|
        once, at the end.  Each set is charged 1, in stream order, and each
        new shape its oracle's charge, refusing once the total passes the
        budget.  Shapes keep their local polynomials, and each call takes
        one series log per shape at its own order (:func:`_normalized_log`).
        """
        reach = self.reach
        g = self.g
        top = order + reach
        rooted = g.vertex_transitive
        if len(self._place) < top:
            self._place = [len(self._kind) * self._radix ** p for p in range(top)]
        neighbors, place, intern, id_shape = (self.neighbors, self._place,
                                              self._intern, self._id_shape)
        kind = [self._kind[self.loops[v], g.degree(v)] for v in range(g.n)]
        # the prefix by position, and the per-vertex arrays of the docstring
        path: list[int] = []
        row = [0] * g.n
        cover = [0] * g.n
        inside = [False] * g.n
        pos = [0] * g.n
        # the offers in frontier order, each vertex's index there, and per
        # path position the list's length before that vertex's offers
        offered: list[int] = []
        slot = [0] * g.n
        cut = [0] * top
        # layout id and outer boundary of the prefix of each size s < top
        ids = [0] * top
        bounds = [0] * top
        tally: dict[tuple[int, int], int] = {}
        # top-size sets: per layout id of the prefix, a count per code of the
        # last vertex, and the (prefix id, code) pairs in the order first met
        leaves: dict[int, dict[int, int]] = {}
        first: list[tuple[int, int]] = []
        streamed = self.streamed
        room = self.budget - self.shape_terms
        leaf = top - 1
        root = 0
        # at top size 1 no set has top-size children: the single vertices stream
        for members in connected_subsets(g, leaf or top):
            size = len(members)
            u = members[-1]
            if size == 1:
                if u and rooted:
                    break
                root = u
            streamed += 1
            if streamed > room:
                # this set's 1 passes the budget: charge() refuses
                self.streamed = streamed
                self.charge(0.0, size)
            depth = size - 1
            if len(path) > depth:
                # a shorter set: drop the path down to its prefix
                while len(path) > depth:
                    v = path.pop()
                    step = place[len(path)]
                    for w, m in neighbors[v].items():
                        row[w] -= m * step
                        cover[w] -= 1
                    inside[v] = False
                del offered[cut[depth]:]
            pid = ids[depth]
            code = kind[u] + row[u]
            link = neighbors[u]
            cid = intern.get((pid, code))
            if cid is None or id_shape[cid] is None:
                pairs = [(pos[w], m) for w, m in link.items() if inside[w]]
                self.streamed = streamed
                cid = self._settle(pid, code, self.loops[u], g.degree(u), pairs)
                room = self.budget - self.shape_terms
            if size == g.n:
                # the whole graph: its local polynomial is q itself
                self.streamed = streamed
                return _normalized_log(self.shapes[id_shape[cid]][1], order)
            # u leaves the boundary and its uncovered outside neighbors join;
            # those above the root are its fresh offers
            boundary = bounds[depth] - 1 if depth else 0
            step = place[depth]
            if size < leaf:
                cut[depth] = len(offered)
                for w, m in link.items():
                    if not cover[w]:
                        if w > root:
                            slot[w] = len(offered)
                            offered.append(w)
                        if not inside[w]:
                            boundary += 1
                    row[w] += m * step
                    cover[w] += 1
                inside[u] = True
                pos[u] = depth
                path.append(u)
                ids[size] = cid
                bounds[size] = boundary
            elif leaf:
                fresh = []
                for w in link:
                    if not cover[w]:
                        if w > root:
                            fresh.append(w)
                        if not inside[w]:
                            boundary += 1
                # the top-size children in stream order, counted in place
                counts = leaves.get(cid)
                if counts is None:
                    counts = leaves[cid] = {}
                for w in offered[slot[u] + 1:] + fresh:
                    streamed += 1
                    if streamed > room:
                        self.streamed = streamed
                        self.charge(0.0, top)
                    code = kind[w] + row[w] + link.get(w, 0) * step
                    count = counts.get(code)
                    if count is None:
                        counts[code] = 1
                        first.append((cid, code))
                        pairs = [(pos[x], m) for x, m in neighbors[w].items() if inside[x]]
                        if w in link:
                            pairs.append((depth, link[w]))
                        self.streamed = streamed
                        self._settle(cid, code, self.loops[w], g.degree(w), pairs)
                        room = self.budget - self.shape_terms
                    else:
                        counts[code] = count + 1
            key = (id_shape[cid], boundary)
            tally[key] = tally.get(key, 0) + 1
        self.streamed = streamed
        # no streamed set, being smaller, shares a top-size shape's key
        for pid, code in first:
            key = (id_shape[intern[pid, code]], 0)
            tally[key] = tally.get(key, 0) + leaves[pid][code]

        def weight(count: int, size: int):
            # no exactness is claimed for n * count / size: a refinement tie
            # may split one class of sets over two shape ids
            return count * g.n / size if rooted else count

        logs = [_normalized_log(poly, order) for _, poly in self.shapes]
        coeffs = [0j] * (order + 1)
        for (sid, boundary), count in tally.items():
            size, series = self.shapes[sid][0], logs[sid]
            count = weight(count, size)
            for j in range(size - reach, order + 1):
                coeffs[j] += count * _boundary_sign(boundary, j + reach - size) * series[j]
        return coeffs


class _EdgeOracle:
    """Per-shape oracle of an edge-coloring model for the cluster engine.

    A shape's local polynomial is Q_C(z) = sum over S in C of z^|S| lambda(S),
    where lambda(S) is the product of the piece weights of the components of
    S, and a piece weight is k^-|touched edges| times the sum over colorings
    of those edges of the product of (h-1) at each piece vertex.  With each
    vertex's boundary edges averaged into its table m_v, expanding the
    product over the vertices gives Q_C(z) = k^-|E(C)| times the blend run
    (:func:`holant.exact._run_blend`) of the piece with tables m_v: one
    contraction per shape, whose top coefficient is the value lambda(C).
    """

    def __init__(self, h: EdgeColoringModel):
        self.h = h
        self.k = h.k
        # per call, so nothing outlives one expansion: marginal tables by
        # (internal degree, leaving edges)
        self._marginal_cache: dict[tuple[int, int], list[complex]] = {}

    def _marginal_table(self, d: int, b: int) -> list[complex]:
        """Table of a vertex with ``d`` internal and ``b`` leaving edges.

        Over the count vectors beta of norm d, packed as by
        :func:`holant.exact._vertex_table`, it holds h - 1 with the colors
        of the leaving edges averaged out:
        m(beta) = k^-b sum over gamma of norm b of multinomial(b, gamma) (h(beta + gamma) - 1).
        Averaging one leaving edge at a time, m(beta) = (1/k) sum over
        colors c of m'(beta + e_c) with m' the (d + 1, b - 1) table, so an
        entry costs k lookups, and h is read only on vectors of norm d + b.
        """
        key = (d, b)
        found = self._marginal_cache.get(key)
        if found is not None:
            return found
        k = self.k
        if b == 0:
            dense = _vertex_table(d, k, lambda alpha: self.h.value(alpha) - 1.0)
        else:
            wider = self._marginal_table(d + 1, b - 1)
            units = [(d + 2) ** c for c in range(k)]

            def average(beta):
                packed = sum(x * unit for x, unit in zip(beta, units))
                return sum(wider[packed + unit] for unit in units) / k

            dense = _vertex_table(d, k, average)
        self._marginal_cache[key] = dense
        return dense

    def __call__(self, engine: _ClusterEngine, layout) -> list[complex]:
        """Q_C, whose top coefficient is lambda(C), from one blend run of the piece.

        Charges k^|internal edges|, the piece's colorings, before the run.
        The piece is contracted in its growth order, each position's loops
        and then its edges to earlier positions, and its degrees are read
        from the layout.  The run's constant term counts its colorings, so
        dividing by it applies k^-|E(C)|, and Q_C(0) is set to exactly 1, so
        that its normalized log divides by 1 exactly (3^m * 3.0^-m need not
        be 1).
        """
        labels, edges = layout
        size = len(labels)
        degree = [2 * loops for _, loops in labels]
        later = [[] for _ in range(size)]
        for i, j, m in edges:
            degree[i] += m
            degree[j] += m
            later[j] += [((i, 1), (j, 1))] * m
        growth = []
        for j, (_, loops) in enumerate(labels):
            growth += [((j, 2),)] * loops
            growth += later[j]
        engine.charge(float(self.k) ** len(growth), size)
        plan = _plan_in_order(self.k, list(enumerate(growth)), range(size))
        coeffs = _run_blend(plan, [self._marginal_table(degree[i], b)
                                   for i, (b, _) in enumerate(labels)])
        return [1.0 + 0j] + [c / coeffs[0] for c in coeffs[1:]]


def _boundary_sign(b: int, t: int) -> int:
    """c(b, t) = sum over a <= t of (-1)^a C(b, a), in closed form.

    This is the signed count of the ways to add at most t of the b boundary
    vertices to a connected set.
    """
    return 1 if b == 0 else (-1) ** t * math.comb(b - 1, t)


def cluster_log_derivatives(g: Multigraph, h: EdgeColoringModel, order: int,
                            budget: float | None = None) -> list[complex]:
    """Derivatives of ln q at 0 through ``order`` via connected subsets.

    The derivatives that the series log of :func:`q_derivative` gives, from
    the local work of the cluster engine: one series log per shape of
    connected set of at most ``order`` vertices, of the polynomial from one
    blend run of the shape's piece (:class:`_EdgeOracle`).  Entry 0 is
    |E| ln k.  Each streamed set charges 1 and each new shape
    k^|internal edges|, the colorings its blend run sums over.  Raises
    ArithmeticError at the first derivative past the float range.
    """
    coeffs = _ClusterEngine(g, _EdgeOracle(h), 0, budget).log_coefficients(order)
    out = [complex(g.m * math.log(h.k))]
    factorial = 1
    for j in range(1, order + 1):
        factorial *= j
        # j! as a float below 2^1000 times 2^shift: no j! past 170 is
        # converted to a float, and up to 170 the product is c_j * float(j!)
        shift = max(0, factorial.bit_length() - 1000)
        scaled = coeffs[j] * float(factorial >> shift)
        try:
            scaled = complex(math.ldexp(scaled.real, shift), math.ldexp(scaled.imag, shift))
        except OverflowError:
            scaled = complex(math.inf)
        if cmath.isinf(scaled):
            raise ArithmeticError(f"derivative {j} of ln q leaves the float range")
        out.append(scaled)
    return out


# ---------------------------------------------------------------------------
# the certified evaluator


@dataclass(frozen=True, slots=True)
class ApproxCertificate:
    """Result of a certified evaluation.

    ``log_value`` approximates the principal-branch log of the partition sum
    with additive error at most ``error_bound``; ``value`` is its exponential.
    ``radius`` is the certified zero-free radius around the all-ones model
    and ``q0`` its reciprocal.  ``mode`` names the engine that ran:
    ``"cluster"`` for the cluster expansion, ``"exact"`` when the model is
    all-ones (zero deviation), and for :func:`holant.exptype.eval_exp_type`
    ``"exp-coefficients"`` (the whole coefficient list) or ``"exp-cluster"``.
    """

    value: complex
    log_value: complex
    radius: float
    q0: float
    order: int
    error_bound: float
    deviation: float
    mode: str
    heuristic: bool = False

    def to_json_dict(self) -> dict:
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "log_value": {"re": self.log_value.real, "im": self.log_value.imag},
            "M": self.radius,
            "q0": self.q0,
            "n": self.order,
            "bound": self.error_bound,
            "deviation": self.deviation,
            "mode": self.mode,
            "heuristic": self.heuristic,
        }


def _exp_or_inf(log_value: complex) -> complex:
    """exp(log_value), overflowing to infinite parts of the same signs.

    A certificate's error bound is on ``log_value``; its ``value`` leaves
    the float range once the real part of the log passes about 709.78 (a
    modulus near 1e308), and is then infinite rather than an error.
    """
    try:
        return cmath.exp(log_value)
    except OverflowError:
        phase = cmath.exp(1j * log_value.imag)
        return complex(math.copysign(math.inf, phase.real) if phase.real else 0.0,
                       math.copysign(math.inf, phase.imag) if phase.imag else 0.0)


def approx_partition(g: Multigraph, h: EdgeColoringModel, eps: float,
                     budget: float | None = None,
                     mode: str = "cluster") -> ApproxCertificate:
    """Partition sum of ``h`` on ``g`` with a certified log-error below ``eps``.

    Requires the deviation r = sup |h(alpha) - 1| over count vectors up to
    the maximum degree to satisfy r < radius / (2 * (max_degree + 1)), so
    that the zero-free disk of the blend (:func:`blend_radius`) strictly
    contains z = 1.  Raises OutsideRegionError otherwise; never silently
    degrades.

    The cluster expansion is the only engine.  On a connected graph with
    fewer vertices than the order it stops at the whole graph, whose local
    polynomial is the blend itself: the certificate takes the series log of
    that one shape, after at most one blend run per prefix of its growth
    path, in place of one run per shape of every connected set.  A graph of
    exactly the order's size is counted, not streamed, at the top size, so
    it takes the full expansion (:meth:`_ClusterEngine.log_coefficients`).
    ``mode`` is accepted for callers that still name it: ``"cluster"`` and
    the former default ``"auto"`` both run it, and anything else raises
    ValueError.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if mode not in ("auto", "cluster"):
        raise ValueError(f"unknown mode {mode!r}")
    k = h.k
    delta = g.max_degree()
    r = h.deviation(delta)

    if r == 0:
        log_value = complex(g.m * math.log(k))
        return ApproxCertificate(_exp_or_inf(log_value), log_value, math.inf, 0.0,
                                 0, 0.0, 0.0, "exact")

    radius = blend_radius(delta, r)
    if radius <= 1.0:
        raise OutsideRegionError(
            f"deviation {r:.6g} leaves the certified radius at {radius:.6g} <= 1"
        )
    q0 = 1.0 / radius
    order = taylor_order(g.n, q0, eps)
    bound = taylor_error_bound(g.n, q0, order)

    # the Taylor coefficients of ln q summed at z = 1, entry 0 being 0
    log_value = complex(g.m * math.log(k))
    for c in _ClusterEngine(g, _EdgeOracle(h), 0, budget).log_coefficients(order):
        log_value += c
    return ApproxCertificate(_exp_or_inf(log_value), log_value, radius, q0,
                             order, bound, r, "cluster")


# ---------------------------------------------------------------------------
# empirical check of the zero-free guarantee


@dataclass(frozen=True)
class ZeroFreeReport:
    """Outcome of sampling weight systems inside a region on one graph."""

    samples: int
    bound: float
    min_abs: float
    min_ratio: float
    failures: tuple[int, ...]

    @property
    def all_pass(self) -> bool:
        return not self.failures


def sample_region_model(k: int, max_degree: int, params: RegionParams, rng) -> EdgeColoringModel:
    """Draw a table, up to norm ``max_degree``, of values in the (delta, eta) region."""
    delta, eta = params.delta, params.eta
    center_mod = eta + delta * (0.5 + 0.4 * rng.random())
    center = center_mod * cmath.exp(2j * math.pi * rng.random())
    entries = {}
    for norm in range(max_degree + 1):
        for alpha in compositions(norm, k):
            rho = 0.49 * delta * math.sqrt(rng.random())
            phi = 2.0 * math.pi * rng.random()
            entries[alpha] = center + rho * cmath.exp(1j * phi)
    return EdgeColoringModel(k, entries, center, f"region-sample:{delta:g}:{eta:g}", max_degree)


def verify_zero_free(g: Multigraph, params: RegionParams, samples: int = 100,
                     seed: int = 0, k: int = 2, budget: float | None = None) -> ZeroFreeReport:
    """Sample weight systems in the region and test the magnitude guarantee.

    Every sampled system is evaluated exactly, by one contraction plan run
    over each sample's tables; a sample index is recorded as a failure if
    the modulus of its partition sum falls below the certified lower bound.
    A healthy implementation returns no failures.  Fewer than one sample
    or color is refused with ValueError before any work.
    """
    if samples < 1 or k < 1:
        raise ValueError(f"need at least one sample and one color, not samples={samples}, k={k}")
    params.validate_for_degree(g.max_degree())
    rng = random.Random(seed)
    bound = magnitude_lower_bound(g, k, params)
    _charge(k ** g.m, budget, f"{k}^{g.m} colorings")
    plan = _plan(g.edges, k, range(g.m), range(g.n))
    min_abs = math.inf
    min_ratio = math.inf
    failures = []
    for i in range(samples):
        h = sample_region_model(k, g.max_degree(), params, rng)
        value = _run(plan, _degree_tables(g, k, h.value), {})
        mag = abs(value)
        min_abs = min(min_abs, mag)
        if bound > 0 and math.isfinite(bound):
            min_ratio = min(min_ratio, mag / bound)
        if mag < bound:
            failures.append(i)
    return ZeroFreeReport(samples, bound, min_abs, min_ratio, tuple(failures))
