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
edges leaving each vertex), and its series log is computed once per shape.
The sets are streamed as they grow, and each carries a layout id derived
from its parent's id and its last vertex, so recognising a set's shape
costs one table lookup; only a new id is refined to its shape.  The
budget is charged 1 per set plus each new shape's work.  Only local
neighborhoods are touched, which scales to graphs with hundreds of
vertices.  With another per-shape oracle the same engine
expands the exponential-type polynomials of :mod:`holant.exptype`.  The
direct vertex-subset formula for the derivatives of q stays as an
independent reference (:func:`q_derivative`).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import BudgetExceededError, OutsideRegionError
from .exact import (DEFAULT_BUDGET, _charge, _colored_sum, _degree_tables, _plan, _run,
                    _vertex_table)
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


def taylor_order(d: int, q0: float, eps: float, max_order: int = 10_000) -> int:
    """Smallest truncation order whose tail bound drops below ``eps``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not 0 <= q0 < 1:
        raise OutsideRegionError(f"q0 = {q0:g} is not inside the unit disk")
    if d == 0 or q0 == 0:
        return 1
    for n in range(1, max_order + 1):
        if taylor_error_bound(d, q0, n) <= eps:
            return n
    raise OutsideRegionError(
        f"tail bound stays above eps={eps:g} through order {max_order}"
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
    budget = DEFAULT_BUDGET if budget is None else budget
    k = h.k
    if m > g.n:
        return 0j
    if m == 0:
        return complex(k) ** g.m

    terms = math.comb(g.n, m) * k ** min(m * g.max_degree(), g.m)
    if terms > budget:
        raise BudgetExceededError(
            f"order-{m} direct expansion needs about 10^{math.log10(terms):.1f} terms"
        )

    shifted = h.shifted(-1.0)
    total = 0j
    for subset in combinations(range(g.n), m):
        touched = edges_touching(g, subset)
        tables = {v: _vertex_table(g.degree(v), k, shifted.value) for v in subset}
        inner = _colored_sum(g, k, touched, {}, tables, budget)
        total += inner * float(k) ** (g.m - len(touched))
    return total * math.factorial(m)


# ---------------------------------------------------------------------------
# connected-subset expansion of the log derivatives


def _series_log(coeffs, order: int) -> list[complex]:
    """Coefficients of log(P) up to ``order`` for P with constant term 1.

    The one series-log routine of the package: the cluster expansion here
    and ``exptype.eval_exp_type`` both call it.
    """
    p = list(coeffs) + [0j] * (order + 1 - len(coeffs))
    if p[0] != 1:
        raise ValueError("series log needs constant term 1")
    out = [0j] * (order + 1)
    for j in range(1, order + 1):
        acc = p[j]
        for i in range(1, j):
            acc -= (i / j) * out[i] * p[j - i]
        out[j] = acc
    return out


def _multinomial(total: int, parts) -> int:
    value = 1
    left = total
    for c in parts:
        value *= math.comb(left, c)
        left -= c
    return value


def _layout_graph(layout) -> Multigraph:
    """The internal multigraph of a layout, position i as vertex i."""
    labels, edges = layout
    loops = tuple((i, i) for i, (_, count) in enumerate(labels) for _ in range(count))
    return Multigraph(len(labels), loops + tuple((i, j) for i, j, m in edges
                                                 for _ in range(m)))


class _ClusterEngine:
    """Connected-set expansion of one graph, shared by both expansions.

    The oracle maps the layout of a new shape to the shape's value and the
    series log of its local polynomial (:class:`_EdgeOracle`,
    ``exptype._exp_shape``); the reach is 0 for edge models and 1 for
    exponential-type polynomials.

    A layout describes a connected set exactly, its vertices in growth order
    (each adjacent to an earlier one): ``labels[i]`` is (edges leaving the
    set at position i, loops there) and ``edges`` the internal non-loop
    edges as (i, j, multiplicity) with i < j.  Equal layouts are isomorphic
    labelled shapes, position i mapping to position i.  Layouts get ids
    while sets grow: the id of C + u is ``intern[(id(C), row(u))]``, where
    the row is u's loops, its degree and its edges into C by position, so
    an id fixes its layout.  Id 0 is the empty set.
    """

    def __init__(self, g: Multigraph, oracle, reach: int, budget: float):
        self.g = g
        self.oracle = oracle
        self.reach = reach
        self.budget = budget
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
        self.neighbors = [sorted(m.items()) for m in mult]
        # a row is packed into one int: the index of (loops, degree) plus
        # len(kinds) * sum of multiplicity * radix^position, radix above
        # every multiplicity, so equal codes are equal rows
        kinds = sorted({(self.loops[v], g.degree(v)) for v in range(g.n)})
        self._kind = {kind: i for i, kind in enumerate(kinds)}
        radix = 1 + max((m for nb in self.neighbors for _, m in nb), default=0)
        self._place = [len(kinds) * radix ** p for p in range(g.n)]
        self._intern: dict[tuple[int, int], int] = {}
        self._layouts: list[tuple] = [((), ())]
        self._id_shape: list[int | None] = [None]
        # layout -> shape id; shapes[id] = (size, value, series log)
        self._shape_of: dict[tuple, int] = {}
        self.shapes: list[tuple[int, object, list[complex]]] = []

    def charge(self, terms: float, size: int) -> None:
        """Spend ``terms`` at a set of ``size``; refuse once past the budget.

        The total spent is 1 per streamed set plus the shape charges.
        """
        self.shape_terms += terms
        spent = self.streamed + self.shape_terms
        if spent > self.budget:
            raise BudgetExceededError(
                f"connected-set expansion exceeded the budget: "
                f"{spent:g} terms spent against a budget of {self.budget:g}, "
                f"after {self.streamed} sets streamed and {len(self.shapes)} "
                f"shapes computed, at a set of size {size}"
            )

    # -- layout ids --

    def _new_id(self, parent: int, code: int, loops: int, degree: int, pairs) -> int:
        """Intern the parent's set plus a vertex whose row packs to ``code``.

        Called for a (parent, code) pair not interned yet.  ``pairs`` lists
        the (position, multiplicity) of the vertex's edges into the parent's
        set; the new layout follows from the parent's.
        """
        labels, edges = self._layouts[parent]
        labels = list(labels)
        size = len(labels)
        for p, m in pairs:
            leaving, at = labels[p]
            labels[p] = (leaving - m, at)
        labels.append((degree - 2 * loops - sum(m for _, m in pairs), loops))
        edges += tuple((p, size, m) for p, m in sorted(pairs))
        cid = self._intern[parent, code] = len(self._layouts)
        self._layouts.append((tuple(labels), edges))
        self._id_shape.append(None)
        return cid

    def _resolve(self, cid: int, order: int) -> int:
        """Shape id of the layout with id ``cid``, computing a new shape."""
        sid = self._id_shape[cid]
        if sid is None:
            layout = self._layouts[cid]
            sid = self._shape_of.get(layout)
            if sid is None:
                sid = self._shape_id(layout, order)
            self._id_shape[cid] = sid
        return sid

    def _shape_id(self, layout, order: int) -> int:
        """Id of the shape of a layout that has not been seen yet.

        The layout is rewritten in a vertex order that isomorphic sets
        mostly share: (leaving edges, loops, internal degree) refined twice
        by the sorted colors of the neighbors, ties broken by position.  If
        that layout is new too, the oracle computes the shape.  A tie that
        the refinement leaves open costs one more shape, never a wrong one.
        """
        labels, edges = layout
        size = len(labels)
        adj = [[] for _ in range(size)]
        for i, j, mult in edges:
            adj[i].append((j, mult))
            adj[j].append((i, mult))
        color = [(b, loops, sum(m for _, m in adj[i]))
                 for i, (b, loops) in enumerate(labels)]
        classes = len(set(color))
        # a round that splits no class, or classes that are all single, would
        # leave the order of the next round unchanged
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
        canonical = (tuple(labels[i] for i in perm),
                     tuple(sorted((min(pos[i], pos[j]), max(pos[i], pos[j]), m)
                                  for i, j, m in edges)))
        sid = self._shape_of.get(canonical)
        if sid is None:
            # the oracle resolves smaller shapes first, so append after it
            value, logs = self.oracle(self, layout, order)
            sid = self._shape_of[canonical] = len(self.shapes)
            self.shapes.append((size, value, logs))
        self._shape_of[layout] = sid
        return sid

    def subsets(self, layout, order: int):
        """Yield (mask, comp, value) for the nonempty masks of a new shape.

        Masks are over the layout's positions, in increasing order.
        ``comp`` is the component of the mask's lowest position, grown from
        that of the mask minus its highest position v; ``value`` is the
        shape value of a proper connected mask, None for a disconnected mask
        and for the whole set.  A connected mask's vertex order is the order
        of the mask minus its highest position that leaves it connected,
        then that position, so its id is folded from the smaller mask's id
        through the intern table.  A prefix of the layout keeps its own
        order, and with it its id.
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
        place, intern, id_shape, shapes = (self._place, self._intern,
                                           self._id_shape, self.shapes)
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
            code = kind[v]
            for w, m in links[v]:
                if rest >> w & 1:
                    code += m * place[seq.index(w)]
            cid = intern.get((fold_id[rest], code))
            if cid is None:
                pairs = [(seq.index(w), m) for w, m in links[v] if rest >> w & 1]
                cid = self._new_id(fold_id[rest], code, labels[v][1], degree[v], pairs)
            fold_id[mask] = cid
            fold_seq[mask] = seq + (v,)
            sid = id_shape[cid]
            if sid is None:
                sid = self._resolve(cid, order)
            yield mask, comp, shapes[sid][1]

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
        sets are streamed in growth order: per depth the engine keeps the
        prefix's layout id, bitmask and neighborhood, so each set costs its
        last vertex's row, one intern lookup and its boundary size; only an
        id seen for the first time builds a layout and looks up its shape.
        Each streamed set is charged 1 and each new shape its oracle's
        charge, refusing once the total passes the budget.
        """
        reach = self.reach
        g = self.g
        neighbors, place, intern, id_shape = (self.neighbors, self._place,
                                              self._intern, self._id_shape)
        kind = [self._kind[self.loops[v], g.degree(v)] for v in range(g.n)]
        near = [sum(1 << w for w, _ in nb) for nb in neighbors]
        pos = [0] * g.n
        # stack[s] = (layout id, bitmask, neighborhood bitmask) of the
        # current prefix of size s
        stack = [(0, 0, 0)] * (order + reach + 1)
        tally: dict[tuple[int, int], int] = {}
        streamed = self.streamed
        room = self.budget - self.shape_terms
        for members in connected_subsets(g, order + reach):
            size = len(members)
            streamed += 1
            if streamed > room:
                # this set's 1 passes the budget: charge() refuses
                self.streamed = streamed
                self.charge(0.0, size)
            u = members[-1]
            pid, pmask, pnear = stack[size - 1]
            pos[u] = size - 1
            code = kind[u]
            for w, m in neighbors[u]:
                if pmask >> w & 1:
                    code += m * place[pos[w]]
            cid = intern.get((pid, code))
            if cid is None:
                pairs = [(pos[w], m) for w, m in neighbors[u] if pmask >> w & 1]
                cid = self._new_id(pid, code, self.loops[u], g.degree(u), pairs)
            mask = pmask | 1 << u
            grown = pnear | near[u]
            stack[size] = (cid, mask, grown)
            sid = id_shape[cid]
            if sid is None:
                self.streamed = streamed
                sid = self._resolve(cid, order)
                room = self.budget - self.shape_terms
            key = (sid, (grown & ~mask).bit_count())
            tally[key] = tally.get(key, 0) + 1
        self.streamed = streamed

        coeffs = [0j] * (order + 1)
        for (sid, boundary), count in tally.items():
            size, _, logs = self.shapes[sid]
            for j in range(size - reach, order + 1):
                coeffs[j] += count * _boundary_sign(boundary, j + reach - size) * logs[j]
        return coeffs


class _EdgeOracle:
    """Per-shape oracle of an edge-coloring model for the cluster engine.

    A shape's value is the piece weight lambda(C); its local polynomial is
    Q_C(z) = sum over S in C of z^|S| lambda(S), where lambda(S) is the
    product of the piece weights of the components of S.
    """

    def __init__(self, h: EdgeColoringModel):
        self.h = h.shifted(-1.0)
        self.k = h.k
        self._marginal_cache: dict[tuple[int, int], list[complex]] = {}

    def _marginal_table(self, d_int: int, b: int) -> list[complex]:
        """Weights over internal count vectors with boundary colors averaged out."""
        key = (d_int, b)
        found = self._marginal_cache.get(key)
        if found is not None:
            return found
        k = self.k
        scale = float(k) ** (-b)

        def marginal(beta):
            acc = 0j
            for gamma in compositions(b, k):
                alpha = tuple(x + y for x, y in zip(beta, gamma))
                acc += _multinomial(b, gamma) * self.h.value(alpha)
            return acc * scale

        dense = _vertex_table(d_int, k, marginal)
        self._marginal_cache[key] = dense
        return dense

    def weight(self, piece: Multigraph, leaving, budget: float) -> complex:
        """Normalized weight of a connected set with internal multigraph ``piece``.

        Equals k^-|touched edges| times the sum over colorings of those edges
        of the product of (h-1) at each piece vertex, where ``leaving[i]``
        edges leave vertex i.  Boundary edges are averaged per vertex, so
        only internal colorings are enumerated.
        """
        k = self.k
        tables = {i: self._marginal_table(piece.degree(i), b)
                  for i, b in enumerate(leaving)}
        value = _colored_sum(piece, k, range(piece.m), {}, tables, budget)
        return value * float(k) ** (-piece.m)

    def __call__(self, engine: _ClusterEngine, layout, order: int):
        """(lambda(C), series log of Q_C); only C itself is a new piece.

        Charges 2^|C| for the subset loop plus k^|internal edges| for the
        piece's colorings before either runs.
        """
        piece = _layout_graph(layout)
        size = piece.n
        engine.charge(2.0 ** size + float(self.k) ** piece.m, size)
        lam = [1.0 + 0j] * (1 << size)
        poly = [1.0 + 0j] + [0j] * size
        for mask, comp, value in engine.subsets(layout, order):
            if comp != mask:
                lam[mask] = lam[comp] * lam[mask ^ comp]
            elif value is not None:
                lam[mask] = value
            else:
                lam[mask] = self.weight(piece, [b for b, _ in layout[0]], engine.budget)
            poly[mask.bit_count()] += lam[mask]
        return lam[-1], _series_log(poly, order)


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
    connected set of at most ``order`` vertices.  Entry 0 is |E| ln k.
    Each streamed set charges 1 and each new shape 2^|C| + k^|internal edges|.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    coeffs = _ClusterEngine(g, _EdgeOracle(h), 0, budget).log_coefficients(order)
    out = [complex(g.m * math.log(h.k))]
    for j in range(1, order + 1):
        out.append(coeffs[j] * math.factorial(j))
    return out


# ---------------------------------------------------------------------------
# the certified evaluator


@dataclass(frozen=True)
class ApproxCertificate:
    """Result of a certified evaluation.

    ``log_value`` approximates the principal-branch log of the partition sum
    with additive error at most ``error_bound``; ``value`` is its exponential.
    ``radius`` is the certified zero-free radius around the all-ones model
    and ``q0`` its reciprocal.  ``mode`` records how the value was obtained:
    ``"cluster"`` for the cluster expansion, ``"exact"`` when the model is
    all-ones (zero deviation), and ``"exp-mult"`` or ``"exp-add"`` for
    exponential-type evaluations.
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
    that the zero-free disk of the blend strictly contains z = 1.  Raises
    OutsideRegionError otherwise; never silently degrades.

    The cluster expansion is the only engine.  ``mode`` is accepted for
    callers that still name it: ``"cluster"`` and the former default
    ``"auto"`` both run it, and anything else raises ValueError.
    """
    if eps <= 0:
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

    radius = certified_radius(delta + 1) / (2.0 * (delta + 1) * r)
    if radius <= 1.0:
        raise OutsideRegionError(
            f"deviation {r:.6g} leaves the certified radius at {radius:.6g} <= 1"
        )
    q0 = 1.0 / radius
    order = taylor_order(g.n, q0, eps)
    bound = taylor_error_bound(g.n, q0, order)

    f = cluster_log_derivatives(g, h, order, budget)
    log_value = f[0]
    for m in range(1, order + 1):
        log_value += f[m] / math.factorial(m)
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


def sample_region_model(k: int, max_degree: int, params: RegionParams, rng,
                        name: str = "") -> EdgeColoringModel:
    """Draw one weight system whose values all lie in the (delta, eta) region."""
    delta, eta = params.delta, params.eta
    center_mod = eta + delta * (0.5 + 0.4 * rng.random())
    center = center_mod * cmath.exp(2j * math.pi * rng.random())
    entries = {}
    for norm in range(max_degree + 1):
        for alpha in compositions(norm, k):
            rho = 0.49 * delta * math.sqrt(rng.random())
            phi = 2.0 * math.pi * rng.random()
            entries[alpha] = center + rho * cmath.exp(1j * phi)
    return EdgeColoringModel(k, entries, center, name or f"region-sample:{delta:g}:{eta:g}")


def verify_zero_free(g: Multigraph, params: RegionParams, samples: int = 100,
                     seed: int = 0, k: int = 2, budget: float | None = None) -> ZeroFreeReport:
    """Sample weight systems in the region and test the magnitude guarantee.

    Every sampled system is evaluated exactly, by one contraction plan run
    over each sample's tables; a sample index is recorded as a failure if
    the modulus of its partition sum falls below the certified lower bound.
    A healthy implementation returns no failures.
    """
    params.validate_for_degree(g.max_degree())
    rng = random.Random(seed)
    bound = magnitude_lower_bound(g, k, params)
    _charge(k, g.m, DEFAULT_BUDGET if budget is None else budget)
    plan = _plan(g, k, range(g.m), range(g.n))
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
