"""Partition-indexed graph polynomials and their certified evaluation.

A block weight chi assigns a complex number to every multigraph with
chi(K_1) = 1.  Summing products of chi over induced blocks of vertex
partitions with exactly k blocks gives coefficients chi_k, and the
polynomial sum chi_k z^k is monic of degree |V|.  The random-cluster sum
Z(G)(q, v) arises from the connected-spanning-subgraph weight; v = -1 is
the chromatic polynomial.  For evaluation points beyond the root radius,
the reversed polynomial is log-expanded at the origin exactly like the
edge-model blend, yielding certified multiplicative results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable

from .approx import ApproxCertificate, _series_log, taylor_error_bound, taylor_order
from .errors import BudgetExceededError, OutsideRegionError
from .exact import DEFAULT_BUDGET, ComplexPoly, poly_roots
from .graphs import Multigraph, induced_subgraph
from .partitions import partitions_min_block

# Universal scale relating a family's growth constant to a disk containing
# every root of its polynomials on bounded-degree graphs.  Kept as reference
# documentation; certified radii should be measured or supplied explicitly.
EXP_ROOT_SCALE = 7.30319

_SMALL_DP_LIMIT = 13


@dataclass(frozen=True)
class ExpTypeSpec:
    """A block weight plus optional root-location knowledge.

    ``root_radius`` is a caller-supplied bound on root moduli of the
    polynomial over the graph class of interest; ``R_delta`` is the growth
    constant of a bounded family, convertible to a radius via
    EXP_ROOT_SCALE.  ``root_radius_heuristic`` marks radii that were
    estimated rather than proven, and is propagated to certificates.
    """

    chi: Callable[[Multigraph], complex]
    name: str
    root_radius: float | None = None
    R_delta: float | None = None
    root_radius_heuristic: bool = False

    def __post_init__(self):
        probe = complex(self.chi(Multigraph(1, ())))
        if abs(probe - 1.0) > 1e-9:
            raise ValueError(f"chi(K_1) = {probe} but must be 1")

    def effective_radius(self) -> float | None:
        if self.root_radius is not None:
            return self.root_radius
        if self.R_delta is not None:
            return EXP_ROOT_SCALE * self.R_delta
        return None

    def with_root_radius(self, c: float, heuristic: bool = True) -> "ExpTypeSpec":
        return replace(self, root_radius=float(c), root_radius_heuristic=heuristic)


# ---------------------------------------------------------------------------
# the random-cluster block weight


def chi_tutte(g: Multigraph, v: complex) -> complex:
    """Sum of v^|A| over edge subsets A that connect and span all of g.

    Uses the subset sieve C(S) = (1+v)^{e(S)} - sum over proper anchored
    subsets T of C(T)(1+v)^{e(S minus T)} when the vertex count permits a
    bitmask table, and falls back to direct edge-subset enumeration.
    """
    v = complex(v)
    if g.n == 0:
        return 1.0 + 0j
    if g.n <= _SMALL_DP_LIMIT:
        return _chi_tutte_sieve(g, v)
    if 2 ** g.m > DEFAULT_BUDGET:
        raise BudgetExceededError(f"2^{g.m} edge subsets exceed the budget")
    total = 0j
    for bits in range(1 << g.m):
        chosen = [g.edges[i] for i in range(g.m) if bits >> i & 1]
        if _spans_connected(g.n, chosen):
            total += v ** len(chosen)
    return total


def _chi_tutte_sieve(g: Multigraph, v: complex) -> complex:
    n = g.n
    edge_masks = [(1 << u) | (1 << w) for u, w in g.edges]
    inner = [0] * (1 << n)
    for mask in range(1 << n):
        inner[mask] = sum(1 for em in edge_masks if em & mask == em)
    full = [ (1.0 + v) ** inner[mask] for mask in range(1 << n) ]
    conn = [0j] * (1 << n)
    for mask in range(1, 1 << n):
        anchor = mask & -mask
        acc = full[mask]
        sub = (mask - 1) & mask
        while sub:
            if sub & anchor:
                acc -= conn[sub] * full[mask ^ sub]
            sub = (sub - 1) & mask
        conn[mask] = acc
    return conn[(1 << n) - 1]


def _spans_connected(n: int, edges) -> bool:
    if n == 1:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for u, w in edges:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
            merges += 1
    return merges == n - 1


def tutte_spec(v: complex, root_radius: float | None = None,
               heuristic: bool = False) -> ExpTypeSpec:
    """Random-cluster family member at edge weight ``v``."""
    v = complex(v)
    return ExpTypeSpec(lambda h: chi_tutte(h, v), f"tutte:v={v.real:g},{v.imag:g}",
                       root_radius, None, heuristic)


def chromatic_spec(root_radius: float | None = None,
                   heuristic: bool = False) -> ExpTypeSpec:
    """Proper-coloring counts: the random-cluster family at v = -1."""
    spec = tutte_spec(-1.0, root_radius, heuristic)
    return replace(spec, name="chromatic")


# ---------------------------------------------------------------------------
# direct random-cluster sums


def random_cluster_profile(g: Multigraph, budget: float | None = None) -> dict:
    """Histogram {(components, edges): count} over all edge subsets."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if 2 ** g.m > budget:
        raise BudgetExceededError(f"2^{g.m} edge subsets exceed the budget")
    profile: dict[tuple[int, int], int] = {}
    for bits in range(1 << g.m):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = g.n
        count = 0
        for i in range(g.m):
            if bits >> i & 1:
                count += 1
                ru, rw = find(g.edges[i][0]), find(g.edges[i][1])
                if ru != rw:
                    parent[ru] = rw
                    comps -= 1
        key = (comps, count)
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


def _chi_cache(g: Multigraph, spec: ExpTypeSpec):
    cache: dict[frozenset, complex] = {}

    def lookup(block) -> complex:
        key = frozenset(block)
        found = cache.get(key)
        if found is None:
            found = complex(spec.chi(induced_subgraph(g, key)))
            cache[key] = found
        return found

    return lookup


def chi_k_coefficients(g: Multigraph, spec: ExpTypeSpec,
                       budget: float | None = None) -> list[complex]:
    """[chi_1, ..., chi_n]: partition sums with exactly k induced blocks.

    Anchored recursion over vertex bitmasks: the block containing the
    lowest remaining vertex is chosen, chi of its induced subgraph weighs
    it, and the rest recurses; results are memoized per mask.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    n = g.n
    if n == 0:
        return []
    if 3 ** n > budget:
        raise BudgetExceededError(f"3^{n} anchored blocks exceed the budget")
    chi_of = _chi_cache(g, spec)
    memo: dict[int, dict[int, complex]] = {0: {0: 1.0 + 0j}}

    def solve(mask: int) -> dict[int, complex]:
        found = memo.get(mask)
        if found is not None:
            return found
        anchor = mask & -mask
        out: dict[int, complex] = {}
        sub = mask
        while sub:
            if sub & anchor:
                verts = [i for i in range(n) if sub >> i & 1]
                w = chi_of(verts)
                if w != 0:
                    for blocks, val in solve(mask ^ sub).items():
                        key = blocks + 1
                        out[key] = out.get(key, 0j) + w * val
            sub = (sub - 1) & mask
        memo[mask] = out
        return out

    top = solve((1 << n) - 1)
    return [top.get(k, 0j) for k in range(1, n + 1)]


def exp_type_poly(g: Multigraph, spec: ExpTypeSpec,
                  budget: float | None = None) -> ComplexPoly:
    """The monic degree-|V| polynomial with the chi_k as coefficients."""
    chis = chi_k_coefficients(g, spec, budget)
    return ComplexPoly((0j,) + tuple(chis))


def qhat_derivative(g: Multigraph, spec: ExpTypeSpec, m: int,
                    budget: float | None = None) -> complex:
    """m-th derivative at 0 of the reversed polynomial z^n p(1/z).

    Equals m! times the partition sum with exactly n - m blocks.  Small
    graphs reuse the full coefficient recursion; otherwise only supports of
    non-singleton blocks are enumerated: between m+1 and 2m vertices get
    partitioned into blocks of size at least 2 and singletons fill the rest.
    """
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    budget = DEFAULT_BUDGET if budget is None else budget
    n = g.n
    if m == 0:
        return 1.0 + 0j
    if m >= n:
        return 0j
    return _qhat_coefficients(g, spec, [m], budget)[0] * math.factorial(m)


def _qhat_coefficients(g: Multigraph, spec: ExpTypeSpec, orders,
                       budget: float) -> list[complex]:
    """[t^m] of the reversed polynomial for each m in ``orders``, 0 < m < n.

    The one place that picks the engine: graphs small enough for the 3^n
    recursion read every coefficient from a single chi_k_coefficients call,
    larger ones enumerate the supports of each order, sharing one chi cache
    across the orders.
    """
    n = g.n
    if 3 ** n <= min(budget, 3 ** _SMALL_DP_LIMIT):
        chis = chi_k_coefficients(g, spec, budget)
        return [chis[n - m - 1] for m in orders]
    chi_of = _chi_cache(g, spec)
    return [qhat_coefficient_by_support(g, spec, m, budget, chi_of) for m in orders]


def qhat_coefficient_by_support(g: Multigraph, spec: ExpTypeSpec, m: int,
                                budget: float | None = None,
                                chi_of=None) -> complex:
    """Support-set enumeration of [t^m] of the reversed polynomial.

    That coefficient is the partition sum with exactly n - m blocks.  Its
    non-singleton blocks cover between m+1 and 2m vertices; everything
    outside the support is a singleton with weight chi(K_1) = 1, so only the
    support is partitioned.  ``chi_of`` is a ``_chi_cache`` lookup to reuse
    across calls on the same graph.
    """
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    budget = DEFAULT_BUDGET if budget is None else budget
    n = g.n
    if m == 0:
        return 1.0 + 0j
    if m >= n:
        return 0j
    cost = sum(math.comb(n, s) for s in range(m + 1, 2 * m + 1))
    if cost > budget:
        raise BudgetExceededError(
            f"support enumeration needs {cost:.3g} vertex subsets"
        )
    chi_of = _chi_cache(g, spec) if chi_of is None else chi_of
    total = 0j
    for s in range(m + 1, 2 * m + 1):
        blocks = s - m
        for support in combinations(range(n), s):
            for part in partitions_min_block(support, blocks, 2):
                prod = 1.0 + 0j
                for block in part:
                    prod *= chi_of(block)
                    if prod == 0:
                        break
                total += prod
    return total


# ---------------------------------------------------------------------------
# certified evaluation outside the root disk


def eval_exp_type(g: Multigraph, spec: ExpTypeSpec, x: complex, eps: float,
                  mode: str = "mult", budget: float | None = None) -> ApproxCertificate:
    """Evaluate the partition polynomial at ``x`` with certified log error.

    Requires |x| strictly beyond the spec's root radius c.  The reversed
    polynomial has no roots inside the disk of radius 1/c, so its log is
    Taylor-expanded there and evaluated at t = 1/x; the result is returned
    as x^n times the exponential.  Certificates inherit the heuristic flag
    when c was estimated rather than supplied.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mode not in ("mult", "add"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = DEFAULT_BUDGET if budget is None else budget
    x = complex(x)
    c = spec.effective_radius()
    if c is None:
        raise ValueError(
            "spec has no root_radius; supply one or run estimate_root_radius"
        )
    if abs(x) <= c:
        raise OutsideRegionError(
            f"|x| = {abs(x):.6g} does not exceed the root radius {c:.6g}"
        )
    n = g.n

    if c == 0:
        # every root sits at the origin, so the reversed polynomial is 1
        log_value = n * cmath.log(x)
        return ApproxCertificate(x ** n, log_value, math.inf, 0.0, 0, 0.0, 0.0,
                                 f"exp-{mode}", spec.root_radius_heuristic)

    t = 1.0 / x
    radius = 1.0 / c
    q0 = c / abs(x)
    order = taylor_order(n, q0, eps)
    bound = taylor_error_bound(n, q0, order)

    orders = range(1, min(order, n - 1) + 1)
    logs = _series_log([1.0 + 0j] + _qhat_coefficients(g, spec, orders, budget), order)
    series = 0j
    for m in range(order, 0, -1):
        series = series * t + logs[m]
    series *= t

    log_value = n * cmath.log(x) + series
    value = x ** n * cmath.exp(series)
    return ApproxCertificate(value, log_value, radius, q0, order, bound, 0.0,
                             f"exp-{mode}", spec.root_radius_heuristic)


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
