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
Only local neighborhoods are touched, which scales to graphs with
hundreds of vertices.  With another per-shape oracle the same engine
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
from .exact import DEFAULT_BUDGET, _colored_sum, _vertex_table, exact_partition
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


class _ClusterEngine:
    """Connected-set expansion of one graph, shared by both expansions.

    The oracle maps a set of a new shape to the shape's value and the series
    log of its local polynomial (:class:`_EdgeOracle`, ``exptype._exp_shape``);
    the reach is 0 for edge models and 1 for exponential-type polynomials.
    """

    def __init__(self, g: Multigraph, oracle, reach: int, budget: float):
        self.g = g
        self.oracle = oracle
        self.reach = reach
        self.budget = budget
        self.spent = 0.0
        # one pass over the edges: incident edge indices (loops listed once),
        # loop counts, and the distinct other neighbors with multiplicities
        self.edges_at = [[] for _ in range(g.n)]
        self.loops = [0] * g.n
        mult = [{} for _ in range(g.n)]
        for e, (u, w) in enumerate(g.edges):
            self.edges_at[u].append(e)
            if u == w:
                self.loops[u] += 1
            else:
                self.edges_at[w].append(e)
                mult[u][w] = mult[u].get(w, 0) + 1
                mult[w][u] = mult[w].get(u, 0) + 1
        self.neighbors = [sorted(m.items()) for m in mult]
        # shape values keyed by the bitmask in g of every set walked so far
        self.store: dict[int, object] = {}
        # layout -> shape id; shapes[id] = (size, value, series log)
        self._shape_of: dict[tuple, int] = {}
        self.shapes: list[tuple[int, object, list[complex]]] = []

    def charge(self, terms: float, size: int) -> None:
        """Spend ``terms`` on a new shape of a set of ``size``; refuse past the budget."""
        self.spent += terms
        if self.spent > self.budget:
            raise BudgetExceededError(
                f"connected-subset expansion exceeded the budget: "
                f"{self.spent:g} terms spent against a budget of "
                f"{self.budget:g}, after {len(self.shapes)} shapes, at a set "
                f"of size {size}"
            )

    # -- labelled shapes --

    def _layout(self, members):
        """Exact description of a connected set, vertices in ``members`` order.

        Returns ``((labels, edges), bitmask in g, |outer boundary|)``.
        ``labels[i]`` is (edges leaving the set at members[i], loops there)
        and ``edges`` the internal non-loop edges as (i, j, multiplicity)
        with i < j, sorted when ``members`` is.  Equal layouts are
        isomorphic labelled shapes: position i maps to position i.
        """
        index = {v: i for i, v in enumerate(members)}
        labels = []
        edges = []
        outside = set()
        in_g = 0
        for i, v in enumerate(members):
            in_g |= 1 << v
            leaving = 0
            for u, mult in self.neighbors[v]:
                j = index.get(u)
                if j is None:
                    outside.add(u)
                    leaving += mult
                elif j > i:
                    edges.append((i, j, mult))
            labels.append((leaving, self.loops[v]))
        return (tuple(labels), tuple(edges)), in_g, len(outside)

    def _shape_id(self, members, layout, order: int) -> int:
        """Id of the shape of a set whose layout has not been seen yet.

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
        for _ in range(2):
            sig = [(color[i], tuple(sorted((color[j], m) for j, m in adj[i])))
                   for i in range(size)]
            rank = {s: r for r, s in enumerate(sorted(set(sig)))}
            color = [rank[s] for s in sig]
        perm = sorted(range(size), key=lambda i: (color[i], i))
        pos = {i: p for p, i in enumerate(perm)}
        canonical = (tuple(labels[i] for i in perm),
                     tuple(sorted((min(pos[i], pos[j]), max(pos[i], pos[j]), m)
                                  for i, j, m in edges)))
        sid = self._shape_of.get(canonical)
        if sid is None:
            sid = self._shape_of[canonical] = len(self.shapes)
            self.shapes.append((size, *self.oracle(self, members, layout, order)))
        self._shape_of[layout] = sid
        return sid

    def subsets(self, members, edges):
        """Yield (mask, comp, stored) for the nonempty masks of a new shape's set C.

        ``comp`` is the component of the mask's lowest member; ``stored`` is
        the store's value for a proper connected mask (smaller than C, so
        walked before it), None for a disconnected mask and for C itself.
        """
        size = len(members)
        local_adj = [0] * size
        for i, j, _ in edges:
            local_adj[i] |= 1 << j
            local_adj[j] |= 1 << i
        full = (1 << size) - 1
        store = self.store
        in_g = [0] * (full + 1)
        for mask in range(1, full + 1):
            comp = mask & -mask
            in_g[mask] = in_g[mask ^ comp] | 1 << members[comp.bit_length() - 1]
            frontier = comp
            while frontier:
                i = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                grown = local_adj[i] & mask & ~comp
                comp |= grown
                frontier |= grown
            yield mask, comp, store[in_g[mask]] if comp == mask != full else None

    # -- one series log per shape --

    def log_coefficients(self, order: int) -> list[complex]:
        """Taylor coefficients of ln q through ``order`` from the local series.

        With R the reach, each connected set C of at most order + R vertices
        enters once (Moebius inversion, as ln Q_S is additive over the
        components of S):
        [z^j] ln q = sum over C with |C| <= j + R of c(|dC|, j + R - |C|) [z^j] ln Q_C,
        where dC is the outer vertex boundary of C (:func:`_boundary_sign`).
        Q_C depends only on the labelled shape of C (internal multigraph and
        edges leaving each vertex), so the oracle runs once per shape; other
        sets compute their layout and boundary size, and a refined layout
        only when theirs is new.  Sets are walked smallest first, each
        storing its shape's value under its bitmask in g for larger shapes.
        Every set is first counted and charged 2^|C|, refusing before any
        shape is computed once the total passes the budget.
        """
        reach = self.reach
        sets = []
        for members in connected_subsets(self.g, order + reach):
            self.spent += float(1 << len(members))
            if self.spent > self.budget:
                raise BudgetExceededError(
                    f"order-{order} cluster expansion: the subset loops of "
                    f"{len(sets) + 1} connected sets (size {len(members)} reached) "
                    f"exceed the budget of {self.budget:g} terms"
                )
            sets.append(members)

        store = self.store
        tally: dict[tuple[int, int], int] = {}
        for members in sorted(sets, key=len):
            layout, in_g, boundary = self._layout(members)
            sid = self._shape_of.get(layout)
            if sid is None:
                sid = self._shape_id(members, layout, order)
            store[in_g] = self.shapes[sid][1]
            tally[sid, boundary] = tally.get((sid, boundary), 0) + 1

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

    def weight(self, engine: _ClusterEngine, members) -> complex:
        """Normalized weight of one connected vertex set.

        Equals k^-|touched edges| times the sum over colorings of those edges
        of the product of (h-1) at each piece vertex.  Boundary edges are
        averaged per vertex, so only internal colorings are enumerated.
        """
        g, k = engine.g, self.k
        piece = set(members)
        internal = []
        d_int = {v: 0 for v in piece}
        boundary = {v: 0 for v in piece}
        for v in piece:
            for e in engine.edges_at[v]:
                u, w = g.edges[e]
                if u == w:
                    d_int[v] += 2
                    if v == u:
                        internal.append(e)
                elif u in piece and w in piece:
                    d_int[v] += 1
                    if v == min(u, w):
                        internal.append(e)
                else:
                    boundary[v] += 1
        engine.charge(float(k) ** len(internal), len(piece))
        tables = {v: self._marginal_table(d_int[v], boundary[v]) for v in piece}
        value = _colored_sum(g, k, internal, {}, tables, engine.budget)
        return value * float(k) ** (-len(internal))

    def __call__(self, engine: _ClusterEngine, members, layout, order: int):
        """(lambda(C), series log of Q_C); only C itself is a new piece."""
        size = len(members)
        lam = [1.0 + 0j] * (1 << size)
        poly = [1.0 + 0j] + [0j] * size
        for mask, comp, stored in engine.subsets(members, layout[1]):
            if comp != mask:
                lam[mask] = lam[comp] * lam[mask ^ comp]
            elif stored is not None:
                lam[mask] = stored
            else:
                lam[mask] = self.weight(engine, members)
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
    Each new shape charges k^|internal edges| on top of the engine's 2^|C|.
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

    Every sampled system is evaluated exactly; a sample index is recorded as
    a failure if the modulus of its partition sum falls below the certified
    lower bound.  A healthy implementation returns no failures.
    """
    params.validate_for_degree(g.max_degree())
    rng = random.Random(seed)
    bound = magnitude_lower_bound(g, k, params)
    min_abs = math.inf
    min_ratio = math.inf
    failures = []
    for i in range(samples):
        h = sample_region_model(k, g.max_degree(), params, rng)
        value = exact_partition(g, h, budget)
        mag = abs(value)
        min_abs = min(min_abs, mag)
        if bound > 0 and math.isfinite(bound):
            min_ratio = min(min_ratio, mag / bound)
        if mag < bound:
            failures.append(i)
    return ZeroFreeReport(samples, bound, min_abs, min_ratio, tuple(failures))
