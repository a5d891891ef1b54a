"""Certified evaluation of edge-coloring sums near the all-ones weight.

The pipeline: a zero-free disk of radius M around the all-ones model is
certified from the deviation of the weights, the log of the blended sum
q(z) = sum over colorings of prod (1 + z*(h-1)) is Taylor-expanded at 0 to
an order chosen from the tail bound, and the series is evaluated at z = 1.
Derivatives of ln q come either from the direct vertex-subset expansion of
q's derivatives or, when that enumeration is too large, from an inclusion-
exclusion over connected vertex subsets that touches only local
neighborhoods and scales to graphs with hundreds of vertices.
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

_COST_CAP = 1e18


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
                 budget: float | None = None, *, normalized: bool = False) -> complex:
    """m-th derivative at 0 of z -> sum over colorings of prod (1 + z*(h-1)).

    Expands the product over vertices: each subset U of m vertices
    contributes the colorings of the edges touching U weighted by (h-1) at
    every U-vertex, while untouched edges are free and contribute a power of
    k.  With ``normalized`` the result is divided by k^|E| (the value at 0),
    which keeps magnitudes tame on large graphs.
    """
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    budget = DEFAULT_BUDGET if budget is None else budget
    k = h.k
    if m > g.n:
        return 0j
    if m == 0:
        return 1.0 + 0j if normalized else complex(k) ** g.m

    cost = _direct_cost_at(g, k, m)
    if cost > budget:
        raise BudgetExceededError(
            f"order-{m} direct expansion needs about {cost:.3g} terms"
        )

    shifted = h.shifted(-1.0)
    total = 0j
    for subset in combinations(range(g.n), m):
        touched = edges_touching(g, subset)
        tables = {v: _vertex_table(g.degree(v), k, shifted.value) for v in subset}
        inner = _colored_sum(g, k, touched, {}, tables, budget)
        total += inner * float(k) ** (-len(touched) if normalized else g.m - len(touched))
    return total * math.factorial(m)


def _direct_cost_at(g: Multigraph, k: int, m: int) -> float:
    count = math.comb(g.n, m)
    if count > _COST_CAP:
        return math.inf
    per = float(k) ** min(m * g.max_degree(), g.m)
    cost = count * per
    return math.inf if cost > _COST_CAP else cost


def direct_cost_estimate(g: Multigraph, k: int, order: int) -> float:
    """Rough term count for the direct expansion through ``order``."""
    total = 0.0
    for m in range(1, min(order, g.n) + 1):
        total += _direct_cost_at(g, k, m)
        if total > _COST_CAP:
            return math.inf
    return total


# ---------------------------------------------------------------------------
# triangular conversion between derivatives of q and of ln q


def log_derivatives_from_p(p_derivs, f0: complex | None = None) -> list[complex]:
    """Derivatives of ln q at 0 from derivatives of q at 0.

    Solves the triangular recurrence coming from q' = (ln q)' q.  The zeroth
    log value is ambiguous up to branch; pass ``f0`` to pin it (default: the
    principal log of q(0)).
    """
    p = [complex(x) for x in p_derivs]
    if not p or p[0] == 0:
        raise ValueError("q(0) must be nonzero")
    f = [cmath.log(p[0]) if f0 is None else complex(f0)]
    for m in range(1, len(p)):
        acc = p[m]
        for j in range(1, m):
            acc -= math.comb(m - 1, j) * p[j] * f[m - j]
        f.append(acc / p[0])
    return f


def reconstruct_p_derivatives(f_derivs, p0: complex | None = None) -> list[complex]:
    """Inverse of :func:`log_derivatives_from_p`: rebuild q-derivatives."""
    f = [complex(x) for x in f_derivs]
    if not f:
        return []
    p = [cmath.exp(f[0]) if p0 is None else complex(p0)]
    for m in range(1, len(f)):
        acc = p[0] * f[m]
        for j in range(1, m):
            acc += math.comb(m - 1, j) * p[j] * f[m - j]
        p.append(acc)
    return p


# ---------------------------------------------------------------------------
# connected-subset expansion of the log derivatives


def _series_log(coeffs, order: int) -> list[complex]:
    """Coefficients of log(P) up to ``order`` for P with constant term 1."""
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
    """Shared caches for the connected-subset expansion of one (g, h) pair."""

    def __init__(self, g: Multigraph, h: EdgeColoringModel, budget: float):
        self.g = g
        self.h = h.shifted(-1.0)
        self.k = h.k
        self.budget = budget
        self.spent = 0.0
        self.adj = g.adjacency()
        self.edges_at = [g.incident_edges(v) for v in range(g.n)]
        self._marginal_cache: dict[tuple[int, int], list[complex]] = {}
        self._weight_cache: dict[frozenset, complex] = {}

    # -- boundary-marginalized vertex tables --

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

    # -- connected-piece weight --

    def weight(self, piece: frozenset) -> complex:
        """Normalized weight of one connected vertex set.

        Equals k^-|touched edges| times the sum over colorings of those edges
        of the product of (h-1) at each piece vertex.  Boundary edges are
        averaged per vertex, so only internal colorings are enumerated.
        """
        found = self._weight_cache.get(piece)
        if found is not None:
            return found
        g, k = self.g, self.k
        internal = []
        d_int = {v: 0 for v in piece}
        boundary = {v: 0 for v in piece}
        for v in piece:
            for e in self.edges_at[v]:
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
        self.spent += float(k) ** len(internal)
        if self.spent > self.budget:
            raise BudgetExceededError(
                "connected-subset expansion exceeded the coloring budget"
            )
        tables = {v: self._marginal_table(d_int[v], boundary[v]) for v in piece}
        value = _colored_sum(g, k, internal, {}, tables, self.budget)
        value *= float(k) ** (-len(internal))
        self._weight_cache[piece] = value
        return value

    def subset_weight(self, vertices) -> complex:
        """Multiplicative weight of an arbitrary vertex set (by components)."""
        remaining = set(vertices)
        out = 1.0 + 0j
        while remaining:
            seed_v = remaining.pop()
            comp = {seed_v}
            frontier = [seed_v]
            while frontier:
                v = frontier.pop()
                for u in self.adj[v]:
                    if u in remaining:
                        remaining.discard(u)
                        comp.add(u)
                        frontier.append(u)
            out *= self.weight(frozenset(comp))
        return out

    # -- the inclusion-exclusion over connected witnesses --

    def log_coefficients(self, order: int) -> list[complex]:
        """Taylor coefficients of ln(q(z) / q(0)) through ``order``."""
        coeffs = [0j] * (order + 1)
        for witness in connected_subsets(self.g, order):
            members = tuple(sorted(witness))
            local = self._witness_contribution(members, order)
            for j in range(len(members), order + 1):
                coeffs[j] += local[j]
        return coeffs

    def _witness_contribution(self, members: tuple, order: int) -> list[complex]:
        """Alternating-signed log coefficients over subsets of one witness."""
        size = len(members)
        index = {v: i for i, v in enumerate(members)}
        local_adj = [0] * size
        for i, v in enumerate(members):
            for u in self.adj[v]:
                j = index.get(u)
                if j is not None:
                    local_adj[i] |= 1 << j

        # weight of every subset, split into connected components
        lam = [1.0 + 0j] * (1 << size)
        for mask in range(1, 1 << size):
            low = (mask & -mask).bit_length() - 1
            comp = 1 << low
            frontier = comp
            while frontier:
                i = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                grown = local_adj[i] & mask & ~comp
                comp |= grown
                frontier |= grown
            piece = frozenset(members[i] for i in range(size) if comp >> i & 1)
            lam[mask] = self.weight(piece) * lam[mask ^ comp]

        out = [0j] * (order + 1)
        for chosen in range(1 << size):
            coeff = [0j] * (size + 1)
            coeff[0] = 1.0 + 0j
            sub = chosen
            while sub:
                coeff[bin(sub).count("1")] += lam[sub]
                sub = (sub - 1) & chosen
            logs = _series_log(coeff, order)
            sign = -1.0 if (size - bin(chosen).count("1")) % 2 else 1.0
            for j in range(size, order + 1):
                out[j] += sign * logs[j]
        return out


def cluster_log_derivatives(g: Multigraph, h: EdgeColoringModel, order: int,
                            budget: float | None = None) -> list[complex]:
    """Derivatives of ln q at 0 through ``order`` via connected subsets.

    Returns the same values as converting :func:`q_derivative` output, but
    the work is local: only connected vertex sets of at most ``order``
    vertices and the edges they touch are ever enumerated.  Entry 0 is the
    real log of q(0), namely |E| ln k.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    engine = _ClusterEngine(g, h, budget)
    coeffs = engine.log_coefficients(order)
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
    and ``q0`` its reciprocal.  ``mode`` records which derivative engine ran.
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


def approx_partition(g: Multigraph, h: EdgeColoringModel, eps: float,
                     budget: float | None = None, mode: str = "auto") -> ApproxCertificate:
    """Partition sum of ``h`` on ``g`` with a certified log-error below ``eps``.

    Requires the deviation r = sup |h(alpha) - 1| over count vectors up to
    the maximum degree to satisfy r < radius / (2 * (max_degree + 1)), so
    that the zero-free disk of the blend strictly contains z = 1.  Raises
    OutsideRegionError otherwise; never silently degrades.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    budget = DEFAULT_BUDGET if budget is None else budget
    if mode not in ("auto", "direct", "cluster"):
        raise ValueError(f"unknown mode {mode!r}")
    k = h.k
    delta = g.max_degree()
    r = h.deviation(delta)

    if r == 0:
        log_value = complex(g.m * math.log(k))
        return ApproxCertificate(cmath.exp(log_value), log_value, math.inf, 0.0,
                                 0, 0.0, 0.0, "exact")

    radius = certified_radius(delta + 1) / (2.0 * (delta + 1) * r)
    if radius <= 1.0:
        raise OutsideRegionError(
            f"deviation {r:.6g} leaves the certified radius at {radius:.6g} <= 1"
        )
    q0 = 1.0 / radius
    order = taylor_order(g.n, q0, eps)
    bound = taylor_error_bound(g.n, q0, order)

    if mode == "auto":
        mode = "direct" if direct_cost_estimate(g, k, order) <= budget else "cluster"

    if mode == "direct":
        reach = min(order, g.n)
        p_derivs = [q_derivative(g, h, m, budget, normalized=True) for m in range(reach + 1)]
        p_derivs += [0j] * (order - reach)
        f = log_derivatives_from_p(p_derivs, f0=g.m * math.log(k))
    else:
        f = cluster_log_derivatives(g, h, order, budget)

    log_value = f[0]
    for m in range(1, order + 1):
        log_value += f[m] / math.factorial(m)
    return ApproxCertificate(cmath.exp(log_value), log_value, radius, q0,
                             order, bound, r, mode)


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
