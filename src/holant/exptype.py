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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .approx import (ApproxCertificate, _ClusterEngine, _exp_or_inf, _layout_graph,
                     _series_log, taylor_error_bound, taylor_order)
from .errors import BudgetExceededError, OutsideRegionError
from .exact import DEFAULT_BUDGET, ComplexPoly, poly_roots
from .graphs import Multigraph, component_count, induced_subgraph

_SMALL_DP_LIMIT = 13


@dataclass(frozen=True)
class ExpTypeSpec:
    """A block weight plus optional root-location knowledge.

    ``root_radius`` is a caller-supplied bound on root moduli of the
    polynomial over the graph class of interest.  ``root_radius_heuristic``
    marks radii that were estimated rather than proven, and is propagated
    to certificates.

    ``chi`` must be 1 on K_1 and vanish on disconnected graphs, as the
    random-cluster weight does; the polynomial then factors over
    components, which the cluster path of :func:`eval_exp_type` needs.
    """

    chi: Callable[[Multigraph], complex]
    name: str
    root_radius: float | None = None
    root_radius_heuristic: bool = False

    def __post_init__(self):
        probe = complex(self.chi(Multigraph(1, ())))
        if abs(probe - 1.0) > 1e-9:
            raise ValueError(f"chi(K_1) = {probe} but must be 1")

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
        if component_count(g.n, chosen) == 1:
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


def tutte_spec(v: complex, root_radius: float | None = None,
               heuristic: bool = False) -> ExpTypeSpec:
    """Random-cluster family member at edge weight ``v``."""
    v = complex(v)
    return ExpTypeSpec(lambda h: chi_tutte(h, v), f"tutte:v={v.real:g},{v.imag:g}",
                       root_radius, heuristic)


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
    chi_of: dict[int, complex] = {}
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
                w = chi_of.get(sub)
                if w is None:
                    block = [i for i in range(n) if sub >> i & 1]
                    w = chi_of[sub] = complex(spec.chi(induced_subgraph(g, block)))
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


def _normalized_log(qhat, order: int) -> list[complex]:
    """Series log of qhat / qhat(0) through ``order``, entry 0 set to ln qhat(0).

    qhat(0) is the product of chi over single vertices, 1 without loops.
    """
    lead = qhat[0]
    if lead == 0:
        raise OutsideRegionError(
            "chi vanishes on a single vertex (a loop under chromatic), so the "
            "reversed polynomial is 0 at the origin and has no log expansion there"
        )
    logs = _series_log([1.0 + 0j] + [a / lead for a in qhat[1:]], order)
    logs[0] = cmath.log(lead)
    return logs


def _poly_mul(a, b) -> list[complex]:
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exp_shape(spec: ExpTypeSpec, engine, layout, order: int):
    """Cluster-engine oracle of an exponential-type polynomial.

    A shape's value is (chi(C), qhat(C)), qhat(C) the reversed polynomial of
    the multigraph on C: the sum over connected blocks B holding position 0
    of chi(B) t^(|B|-1) qhat(C minus B), where qhat factors over the
    components of C minus B.  Both come from the engine's shapes, so chi
    runs once per shape, on the shape itself.  Charges 3^|C| first.
    """
    size = len(layout[0])
    engine.charge(3.0 ** size, size)
    chi = complex(spec.chi(_layout_graph(layout)))
    full = (1 << size) - 1
    qhat = [[1.0 + 0j]] + [None] * full
    poly = [0j] * size
    anchored = []
    for mask, comp, value in engine.subsets(layout, order):
        if comp != mask:
            qhat[mask] = _poly_mul(qhat[comp], qhat[mask ^ comp])
            continue
        chi_b, qhat[mask] = (chi, None) if value is None else value
        if mask & 1:
            anchored.append((mask, chi_b))
    for mask, chi_b in anchored:
        for i, a in enumerate(qhat[full ^ mask], mask.bit_count() - 1):
            poly[i] += chi_b * a
    return (chi, poly), _normalized_log(poly, order)


def eval_exp_type(g: Multigraph, spec: ExpTypeSpec, x: complex, eps: float,
                  mode: str = "mult", budget: float | None = None) -> ApproxCertificate:
    """Evaluate the partition polynomial at ``x`` with certified log error.

    Requires |x| strictly beyond the spec's root radius c.  The reversed
    polynomial qhat(t) = t^n p(1/t) has no roots inside the disk of radius
    1/c, so ln(qhat / qhat(0)) is Taylor-expanded there and evaluated at
    t = 1/x; the log of the result adds n ln x + ln qhat(0).  When
    n <= order + 1 the whole graph is one cluster and one
    :func:`chi_k_coefficients` call gives the coefficients; otherwise the
    cluster engine of :mod:`holant.approx` runs with reach 1, which needs
    chi to vanish on disconnected graphs (ValueError if it does not).
    Certificates inherit the heuristic flag when c was estimated.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mode not in ("mult", "add"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = DEFAULT_BUDGET if budget is None else budget
    x = complex(x)
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
    else:
        if spec.chi(Multigraph(2, ())) != 0:
            raise ValueError(
                f"chi of {spec.name} is nonzero on two isolated vertices; the "
                "cluster expansion needs it to vanish on disconnected graphs"
            )
        logs = _ClusterEngine(g, partial(_exp_shape, spec), 1, budget).log_coefficients(order)

    t = 1.0 / x
    series = 0j
    for m in range(order, 0, -1):
        series = series * t + logs[m]
    log_value = n * cmath.log(x) + logs[0] + series * t
    return ApproxCertificate(_exp_or_inf(log_value), log_value,
                             math.inf if c == 0 else 1.0 / c, q0, order, bound, 0.0,
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
