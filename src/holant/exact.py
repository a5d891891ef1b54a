"""Exact engines: edge-coloring sums, blend polynomials, and root finding.

Every coloring sum is one contraction of the per-vertex tables, edge by
edge, refused before any work when its ``k ** #free edges`` colorings
exceed the budget.  A contraction is planned from the structure alone
(:func:`_plan`: edge order, slot offsets, per-color step vectors and the
vertices that close at each step) and then run over the weight tables
(:func:`_run`), so callers that evaluate many weight systems on one graph,
such as the sampled region models, plan once and run the plan per system.
The coefficients of the blend ``z -> sum prod_v (1 + z * (h - 1))`` come
from one run of the same plan whose states carry coefficient lists
(:func:`_run_blend`).  Polynomial roots are the eigenvalues of the
companion matrix (``np.roots``), each validated against a residual bound.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from functools import partial
from operator import add
from typing import NamedTuple

from .errors import BudgetExceededError, RootFindingError
from .graphs import Multigraph
from .models import EdgeColoringModel, TensorAssignment, compositions

DEFAULT_BUDGET = 10 ** 8


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class ComplexPoly:
    """Dense univariate polynomial, coefficients in ascending degree order."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            cs = (0j,)
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


# ---------------------------------------------------------------------------
# restriction spec


@dataclass(frozen=True)
class RestrictedSpec:
    """Partial edge coloring: a map from edge index to a fixed color."""

    fixed: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, mapping) -> "RestrictedSpec":
        return cls(tuple(sorted((int(e), int(c)) for e, c in dict(mapping).items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.fixed)

    def validate(self, g: Multigraph, k: int) -> None:
        seen = set()
        for e, c in self.fixed:
            if not 0 <= e < g.m:
                raise ValueError(f"edge index {e} out of range")
            if e in seen:
                raise ValueError(f"edge index {e} fixed twice")
            if not 0 <= c < k:
                raise ValueError(f"color {c} out of range(k={k})")
            seen.add(e)


# ---------------------------------------------------------------------------
# vertex tables


def _vertex_table(d: int, k: int, value) -> list[complex]:
    """Dense weight table of a degree-``d`` vertex, indexed by packed count vector.

    Entry ``sum(alpha[c] * (d + 1) ** c)`` holds ``value(alpha)`` for every
    count vector ``alpha`` of norm ``d``; the other entries are never read.
    """
    base = d + 1
    dense = [0j] * (base ** k)
    for alpha in compositions(d, k):
        packed = 0
        for c in reversed(alpha):
            packed = packed * base + c
        dense[packed] = value(alpha)
    return dense


# ---------------------------------------------------------------------------
# the contraction: a plan from the structure, run once per set of tables


class _Plan(NamedTuple):
    """Contraction order of one edge set, independent of the weights.

    ``idle`` lists the participating vertices with no edge in the set, whose
    tables contribute their zero entry.  ``steps`` holds, in contraction
    order, each edge with its packed per-color step vector and the
    ``(slot offset, vertex)`` of every end that closes at that edge.
    ``radix`` is the width of one slot in a packed state.
    """

    radix: int
    idle: tuple[int, ...]
    steps: tuple[tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]], ...]


def _charge(k: int, free: int, budget: float | None) -> None:
    """Refuse ``k ** free`` colorings over ``budget`` before any work."""
    if budget is not None and free * math.log(k) > math.log(max(budget, 1.0)) + 1e-9:
        raise BudgetExceededError(
            f"{k}^{free} colorings exceed the budget of {budget:g} terms"
        )


def _plan(g: Multigraph, k: int, edge_indices, vertices) -> _Plan:
    """Order the contraction of ``edge_indices`` over the tables of ``vertices``.

    Only the structure enters: which vertices have tables (ends at other
    vertices contribute no factor), their degrees within the edge set, and
    hence the table sizes ``(degree + 1) ** k`` that fix the slot radix.
    The next edge is the one that opens the fewest new vertices, then the
    one with an endpoint that has the fewest edges left, then the lowest
    index, so reruns are bit-for-bit stable.  Ranks are kept per edge, and
    after each step only the edges at its ends are ranked again.  Each
    opening vertex takes the lowest free slot; a closing vertex frees its
    slot only after the step, so an end opening in a step cannot take the
    slot of an end closing in it.
    """
    vertices = tuple(vertices)
    ends = {}
    degree = dict.fromkeys(vertices, 0)
    incident = {v: [] for v in vertices}
    for e in sorted(edge_indices):
        u, w = g.edges[e]
        ends[e] = [(v, mult) for v, mult in (((u, 2),) if u == w else ((u, 1), (w, 1)))
                   if v in degree]
        for v, mult in ends[e]:
            degree[v] += mult
            incident[v].append(e)
    left = {v: len(incident[v]) for v in vertices}
    radix = max(((degree[v] + 1) ** k for v in vertices if left[v]), default=1)

    slot_of = {}
    freed = []

    def rank(e):
        # the ends of an edge not yet contracted have edges left, so a
        # low of 0 means none seen (an edge with no ends ranks (0, 0, e))
        fresh = low = 0
        for v, _ in ends[e]:
            if v not in slot_of:
                fresh += 1
            if not low or left[v] < low:
                low = left[v]
        return fresh, low, e

    current = {e: rank(e) for e in ends}
    steps = []
    while current:
        e = min(current.values())[2]
        del current[e]
        step = [0] * k
        closing = []
        for v, mult in ends[e]:
            if v not in slot_of:
                slot_of[v] = heapq.heappop(freed) if freed else len(slot_of)
            offset = radix ** slot_of[v]
            base = degree[v] + 1
            for c in range(k):
                step[c] += mult * base ** c * offset
            left[v] -= 1
            if left[v] == 0:
                closing.append((offset, v))
        for v, _ in ends[e]:
            if left[v] == 0:
                heapq.heappush(freed, slot_of.pop(v))
            for f in incident[v]:
                if f in current:
                    current[f] = rank(f)
        steps.append((e, tuple(step), tuple(closing)))
    idle = tuple(v for v in vertices if not incident[v])
    return _Plan(radix, idle, tuple(steps))


def _run(plan: _Plan, tables, fixed: dict[int, int]) -> complex:
    """Run ``plan`` over ``tables`` with the colors of ``fixed`` edges pinned.

    A state maps the packed partial count vectors of the open vertices, one
    slot each, to a summed weight.  A free edge adds each of its ``k`` step
    vectors, a pinned edge only the step of its color.  When a vertex's
    last edge is contracted its table value is applied and its slot returns
    to 0, so equal states merge.  Zero-weight states are dropped.  A sum
    that leaves the float range raises ArithmeticError.
    """
    start = 1.0 + 0j
    for v in plan.idle:
        start *= tables[v][0]
    if start == 0:
        return 0j
    radix = plan.radix
    states = {0: start}
    for e, steps, closing in plan.steps:
        if e in fixed:
            steps = (steps[fixed[e]],)
        closing = [(offset, tables[v]) for offset, v in closing]
        merged = {}
        for state, weight in states.items():
            for step in steps:
                key = state + step
                value = weight
                for offset, dense in closing:
                    packed = key // offset % radix
                    value *= dense[packed]
                    key -= packed * offset
                if value != 0:
                    merged[key] = merged.get(key, 0j) + value
        states = merged
    total = states.get(0, 0j)
    if not cmath.isfinite(total):
        raise ArithmeticError(f"the coloring sum left the float range ({total})")
    return total


def _run_blend(plan: _Plan, tables) -> list[complex]:
    """Coefficients of z -> sum over colorings of prod_v (1 + z * m_v(alpha_v)).

    The run of :func:`_run` over the same plan and packed state keys, with
    every edge free, ``tables`` holding each vertex's ``m = h - 1`` and
    each state carrying a coefficient list in place of a summed weight.
    Closing a vertex multiplies its state's list by ``1 + z * m_v(alpha)``,
    one shift-add, so every coefficient is a sum of products, as in
    ``q_derivative``; idle vertices apply ``m_v(0)`` the same way.  Every
    state holds ``1 + #vertices closed so far`` coefficients.  A
    coefficient that leaves the float range raises ArithmeticError.
    """
    start = [1.0 + 0j]
    for v in plan.idle:
        m = tables[v][0]
        start = [a + m * b for a, b in zip(start + [0j], [0j] + start)]
    radix = plan.radix
    states = {0: start}
    for _, steps, closing in plan.steps:
        closing = [(offset, tables[v]) for offset, v in closing]
        merged = {}
        for state, coeffs in states.items():
            for step in steps:
                key = state + step
                value = coeffs
                for offset, dense in closing:
                    packed = key // offset % radix
                    m = dense[packed]
                    value = [a + m * b for a, b in zip(value + [0j], [0j] + value)]
                    key -= packed * offset
                old = merged.get(key)
                merged[key] = value if old is None else list(map(add, old, value))
        states = merged
    coeffs = states[0]
    if not all(cmath.isfinite(c) for c in coeffs):
        raise ArithmeticError("a blend coefficient left the float range")
    return coeffs


def _colored_sum(g: Multigraph, k: int, edge_indices, fixed: dict[int, int],
                 tables, budget: float) -> complex:
    """Sum over colorings of ``edge_indices`` of the product of vertex weights.

    ``tables`` maps each participating vertex to its :func:`_vertex_table`
    over the count vectors of its incidences within ``edge_indices``;
    vertices absent from ``tables`` contribute no factor.  ``fixed`` pins
    colors of individual edges.  The budget is charged ``k ** #free``, the
    size of the coloring space, before any work; then the contraction is
    planned (:func:`_plan`) and run once (:func:`_run`).  Callers that sum
    many weight systems over one edge set charge and plan once themselves.
    """
    edges = sorted(edge_indices)
    _charge(k, sum(e not in fixed for e in edges), budget)
    return _run(_plan(g, k, edges, tables), tables, fixed)


def _degree_tables(g: Multigraph, k: int, value) -> dict[int, list[complex]]:
    """Tables of a vertex-independent weight for every vertex, one per degree."""
    by_degree = {d: _vertex_table(d, k, value) for d in set(g.degrees())}
    return {v: by_degree[g.degree(v)] for v in range(g.n)}


# ---------------------------------------------------------------------------
# public operations


def exact_partition(g: Multigraph, h: EdgeColoringModel, budget: float | None = None) -> complex:
    """Partition function of ``h`` on ``g``, summed exactly over every edge coloring."""
    budget = DEFAULT_BUDGET if budget is None else budget
    return _colored_sum(g, h.k, range(g.m), {}, _degree_tables(g, h.k, h.value), budget)


def contract_network(g: Multigraph, t: TensorAssignment, budget: float | None = None) -> complex:
    """Contract a per-vertex tensor assignment over all edge colorings."""
    if t.graph != g:
        raise ValueError("tensor assignment was built for a different graph")
    budget = DEFAULT_BUDGET if budget is None else budget
    tables = {v: _vertex_table(g.degree(v), t.k, partial(t.value, v)) for v in range(g.n)}
    return _colored_sum(g, t.k, range(g.m), {}, tables, budget)


def restricted_partition(g: Multigraph, t: TensorAssignment, restriction: RestrictedSpec,
                         budget: float | None = None) -> complex:
    """Contraction with some edge colors pinned by ``restriction``."""
    if t.graph != g:
        raise ValueError("tensor assignment was built for a different graph")
    restriction.validate(g, t.k)
    budget = DEFAULT_BUDGET if budget is None else budget
    tables = {v: _vertex_table(g.degree(v), t.k, partial(t.value, v)) for v in range(g.n)}
    return _colored_sum(g, t.k, range(g.m), restriction.as_dict(), tables, budget)


def exact_poly_by_interpolation(g: Multigraph, h: EdgeColoringModel,
                                budget: float | None = None) -> ComplexPoly:
    """Coefficients of z -> partition sum of the blend 1 + z*(h - 1).

    One contraction that carries polynomials (:func:`_run_blend`) gives
    every coefficient as a sum of products, so the polynomial has degree at
    most |V| and nothing is interpolated: the name is kept for its callers.
    The budget is charged ``k ** |E|`` and the contraction planned once.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    _charge(h.k, g.m, budget)
    plan = _plan(g, h.k, range(g.m), range(g.n))
    tables = _degree_tables(g, h.k, lambda alpha: h.value(alpha) - 1.0)
    return ComplexPoly(tuple(_run_blend(plan, tables)))


# ---------------------------------------------------------------------------
# roots


def poly_roots(p: ComplexPoly) -> tuple[complex, ...]:
    """All roots of ``p`` (with multiplicity): companion-matrix eigenvalues.

    ``np.roots`` supplies the candidates, roots at the origin included.
    Each must pass the residual bound
    |p(root)| <= 1e-9 * max|coeff| * max(1, |root|)^degree, or
    :class:`RootFindingError` is raised carrying all of them.  Roots are
    ordered by modulus, then by argument.  A polynomial whose monic form
    leaves the float range (max|coeff| / |leading coeff| overflows) is
    refused with ValueError before any root finding.
    """
    if not all(cmath.isfinite(c) for c in p.coeffs):
        raise ValueError("polynomial coefficients must be finite")
    if p.is_zero():
        raise ValueError("the zero polynomial has no well-defined root set")
    d = p.degree
    if d < 1:
        raise ValueError("constant polynomials have no roots")
    scale = max(abs(c) for c in p.coeffs)
    lead = abs(p.coeffs[-1])
    if not math.isfinite(scale / lead):
        raise ValueError(
            f"the monic form leaves the float range: max|coeff| = {scale:g} over "
            f"|leading coeff| = {lead:g} overflows"
        )
    import numpy as np

    roots = [complex(z) for z in np.roots(p.coeffs[::-1])]
    if any(abs(p(z)) > 1e-9 * scale * max(1.0, abs(z)) ** d for z in roots):
        raise RootFindingError("companion-matrix roots fail the residual check",
                               tuple(roots))
    roots.sort(key=lambda z: (abs(z), cmath.phase(z)))
    return tuple(roots)
