"""Exact engines: edge-coloring sums, blend polynomials, and root finding.

Every coloring sum is one contraction of the per-vertex tables, edge by
edge, refused before any work when its ``k ** #free edges`` colorings
exceed the budget.  A contraction is planned from the structure alone
(edge order, slot offsets, per-color step vectors and the vertices that
close at each step) and then run over the weight tables (:func:`_run`), so
callers that evaluate many weight systems on one graph, such as the
sampled region models, plan once and run the plan per system.  Planning is
two steps: an edge order, then :func:`_plan_in_order`, which turns any
order into the steps.  Whole graphs and vertex subsets use the greedy
order of :func:`_greedy_order` (:func:`_plan`); the cluster expansion's
shapes use their growth order, each position's loops and then its edges
to earlier positions, which costs no search.  The coefficients of the
blend ``z -> sum prod_v (1 + z * (h - 1))`` come from one run of a plan
whose states are split by their power of z (:func:`_run_blend`); the
cluster expansion takes each shape's local polynomial from the same run.
Polynomial roots are the eigenvalues of the companion matrix
(``np.roots``), each validated against a residual bound.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from functools import partial
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


def _charge(terms: int, budget: float | None, what: str) -> None:
    """Refuse ``terms`` of work over ``budget`` before the work starts.

    The one up-front budget rule of every engine: None stands for
    ``DEFAULT_BUDGET``, an inf or NaN budget bounds nothing, and otherwise
    the work is refused exactly when terms > max(budget, 1), an int compared
    with a float, so nothing is rounded.  ``what`` names the terms, as in
    ``"3^17 anchored blocks"``, and starts the message.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    if terms > max(budget, 1):
        raise BudgetExceededError(f"{what} exceed the budget of {_budget_text(budget)} terms")


def _budget_text(budget: float) -> str:
    """``budget`` as ``{:g}`` writes it, also for an int past the float range.

    Such an int is rounded to six digits as a Decimal, never converted to a
    float (which raises OverflowError): -(10**400) reads ``-1e+400``.
    """
    try:
        return f"{budget:g}"
    except OverflowError:
        from decimal import Context
        return f"{Context(prec=6).create_decimal(budget).normalize():g}"


def _greedy_order(edges, edge_indices, vertices) -> list[tuple[int, tuple]]:
    """Greedy contraction order of ``edge_indices``, as :func:`_plan_in_order` takes it.

    ``edges`` holds the endpoint pairs that the indices refer to, as
    ``Multigraph.edges`` does; only ends at ``vertices`` are kept.  The next
    edge is the one that opens the fewest new vertices, then the one with an
    endpoint that has the fewest edges left, then the lowest index, so
    reruns are bit-for-bit stable.  Ranks are kept per edge, and after each
    step only the edges at its ends are ranked again.
    """
    ends = {}
    incident = {v: [] for v in vertices}
    for e in sorted(edge_indices):
        u, w = edges[e]
        if u == w:
            found = ((u, 2),) if u in incident else ()
        elif u in incident:
            found = ((u, 1), (w, 1)) if w in incident else ((u, 1),)
        else:
            found = ((w, 1),) if w in incident else ()
        ends[e] = found
        for v, _ in found:
            incident[v].append(e)
    left = {v: len(found) for v, found in incident.items()}
    opened = set()

    def rank(e):
        # the ends of an edge not yet contracted have edges left, so a
        # low of 0 means none seen (an edge with no ends ranks (0, 0, e))
        fresh = low = 0
        for v, _ in ends[e]:
            if v not in opened:
                fresh += 1
            if not low or left[v] < low:
                low = left[v]
        return fresh, low, e

    current = {e: rank(e) for e in ends}
    order = []
    while current:
        e = min(current.values())[2]
        del current[e]
        order.append((e, ends[e]))
        for v, _ in ends[e]:
            opened.add(v)
            left[v] -= 1
        for v, _ in ends[e]:
            for f in incident[v]:
                if f in current:
                    current[f] = rank(f)
    return order


def _plan_in_order(k: int, order, vertices) -> _Plan:
    """The :class:`_Plan` that contracts the edges of ``order`` in that order.

    ``order`` is a sequence, read twice, of (edge index, ends) pairs,
    ``ends`` giving the (vertex, multiplicity) of the edge's ends at
    ``vertices``: multiplicity 2 for a loop, and no entry for an end at a
    vertex without a table, which contributes no factor.  Only the
    structure enters: the degrees within the edge set, and hence the table
    sizes ``(degree + 1) ** k`` that fix the slot radix.  Each opening
    vertex takes the lowest free slot; a closing vertex frees its slot only
    after the step, so an end opening in a step cannot take the slot of an
    end closing in it.
    """
    degree = dict.fromkeys(vertices, 0)
    left = dict.fromkeys(degree, 0)
    for _, ends in order:
        for v, mult in ends:
            degree[v] += mult
            left[v] += 1
    radix = max(((d + 1) ** k for d in degree.values() if d), default=1)

    slot_of = {}
    freed = []
    steps = []
    for e, ends in order:
        step = [0] * k
        closing = []
        for v, mult in ends:
            if v not in slot_of:
                slot_of[v] = heapq.heappop(freed) if freed else len(slot_of)
            offset = radix ** slot_of[v]
            base = degree[v] + 1
            for c in range(k):
                step[c] += mult * base ** c * offset
            left[v] -= 1
            if left[v] == 0:
                closing.append((offset, v))
        for offset, v in closing:
            heapq.heappush(freed, slot_of.pop(v))
        steps.append((e, tuple(step), tuple(closing)))
    idle = tuple(v for v, d in degree.items() if not d)
    return _Plan(radix, idle, tuple(steps))


def _plan(edges, k: int, edge_indices, vertices) -> _Plan:
    """Plan the contraction of ``edge_indices`` over the tables of ``vertices``.

    Whole graphs and vertex subsets are contracted in the greedy order of
    :func:`_greedy_order`; :func:`_plan_in_order` builds the steps.
    """
    vertices = tuple(vertices)
    return _plan_in_order(k, _greedy_order(edges, edge_indices, vertices), vertices)


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

    The run of :func:`_run` over the same plan, with every edge free and
    ``tables`` holding each vertex's ``m = h - 1``.  A key is the packed
    state times ``width`` (one more than the number of vertices) plus a
    power of z, so each (state, power) pair sums one scalar.  Closing a
    vertex keeps a pair's weight under its power (the 1) and adds the
    weight times ``m_v(alpha)`` under the next power, so every coefficient
    is a sum of products, as in ``q_derivative``; idle vertices apply
    ``m_v(0)`` the same way.  A coefficient that leaves the float range
    raises ArithmeticError.
    """
    width = 1 + len(plan.idle) + sum(len(closing) for _, _, closing in plan.steps)
    radix = plan.radix

    def advance(states, steps, offset, dense):
        # add each step to each state, then close the vertex whose slot
        # starts at ``offset`` (already scaled by width)
        out = {}
        get = out.get
        for state, weight in states.items():
            for step in steps:
                key = state + step
                packed = key // offset % radix
                key -= packed * offset
                out[key] = get(key, 0j) + weight
                key += 1
                out[key] = get(key, 0j) + weight * dense[packed]
        return out

    states = {0: 1.0 + 0j}
    for v in plan.idle:
        # every key is a bare power below width, so its slot reads 0
        states = advance(states, (0,), width, tables[v])
    for _, steps, closing in plan.steps:
        steps = [step * width for step in steps]
        if closing:
            offset, v = closing[0]
            states = advance(states, steps, offset * width, tables[v])
            for offset, v in closing[1:]:
                states = advance(states, (0,), offset * width, tables[v])
            continue
        merged = {}
        get = merged.get
        for state, weight in states.items():
            for step in steps:
                key = state + step
                merged[key] = get(key, 0j) + weight
        states = merged
    coeffs = [states.get(power, 0j) for power in range(width)]
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
    free = sum(e not in fixed for e in edges)
    _charge(k ** free, budget, f"{k}^{free} colorings")
    return _run(_plan(g.edges, k, edges, tables), tables, fixed)


def _degree_tables(g: Multigraph, k: int, value) -> dict[int, list[complex]]:
    """Tables of a vertex-independent weight for every vertex, one per degree."""
    by_degree = {d: _vertex_table(d, k, value) for d in set(g.degrees())}
    return {v: by_degree[g.degree(v)] for v in range(g.n)}


# ---------------------------------------------------------------------------
# public operations


def exact_partition(g: Multigraph, h: EdgeColoringModel, budget: float | None = None) -> complex:
    """Partition function of ``h`` on ``g``, summed exactly over every edge coloring."""
    return _colored_sum(g, h.k, range(g.m), {}, _degree_tables(g, h.k, h.value), budget)


def contract_network(g: Multigraph, t: TensorAssignment, budget: float | None = None) -> complex:
    """Contract a per-vertex tensor assignment over all edge colorings."""
    if t.graph != g:
        raise ValueError("tensor assignment was built for a different graph")
    tables = {v: _vertex_table(g.degree(v), t.k, partial(t.value, v)) for v in range(g.n)}
    return _colored_sum(g, t.k, range(g.m), {}, tables, budget)


def restricted_partition(g: Multigraph, t: TensorAssignment, restriction: RestrictedSpec,
                         budget: float | None = None) -> complex:
    """Contraction with some edge colors pinned by ``restriction``."""
    if t.graph != g:
        raise ValueError("tensor assignment was built for a different graph")
    restriction.validate(g, t.k)
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
    _charge(h.k ** g.m, budget, f"{h.k}^{g.m} colorings")
    plan = _plan(g.edges, h.k, range(g.m), range(g.n))
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
