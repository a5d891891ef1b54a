"""Exact engines: edge-coloring sums, interpolation, and root finding.

Every coloring sum is one contraction of the per-vertex tables, edge by
edge, refused before any work when its ``k ** #free edges`` colorings
exceed the budget.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

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

    @classmethod
    def from_coefficients(cls, coeffs, rel_tol: float = 0.0) -> "ComplexPoly":
        cs = [complex(c) for c in coeffs]
        if rel_tol > 0 and cs:
            top = max(abs(c) for c in cs)
            cut = rel_tol * top
            while len(cs) > 1 and abs(cs[-1]) <= cut:
                cs.pop()
        return cls(tuple(cs))

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
# the contraction


def _colored_sum(g: Multigraph, k: int, edge_indices, fixed: dict[int, int],
                 tables, budget: float) -> complex:
    """Sum over colorings of ``edge_indices`` of the product of vertex weights.

    ``tables`` maps each participating vertex to its :func:`_vertex_table`
    over the count vectors of its incidences within ``edge_indices``;
    vertices absent from ``tables`` contribute no factor.  ``fixed`` pins
    colors of individual edges.  The budget is charged ``k ** #free``, the
    size of the coloring space, before any work.

    Edges are contracted one at a time.  A state maps the packed partial
    count vectors of the open vertices, one slot each, to a summed weight;
    when a vertex's last edge is contracted its table value is applied and
    its slot returns to 0, so equal states merge.  Zero-weight states are
    dropped.  The next edge is the one that opens the fewest new vertices,
    then the one with an endpoint that has the fewest edges left, then the
    lowest index, so reruns are bit-for-bit stable.
    """
    edges = sorted(edge_indices)
    free = [e for e in edges if e not in fixed]
    if budget is not None and len(free) * math.log(k) > math.log(max(budget, 1.0)) + 1e-9:
        raise BudgetExceededError(
            f"{k}^{len(free)} colorings exceed the budget of {budget:g} terms"
        )

    ends = {}
    degree = dict.fromkeys(tables, 0)
    left = dict.fromkeys(tables, 0)
    for e in edges:
        u, w = g.edges[e]
        ends[e] = [(v, mult) for v, mult in (((u, 2),) if u == w else ((u, 1), (w, 1)))
                   if v in tables]
        for v, mult in ends[e]:
            degree[v] += mult
            left[v] += 1

    start = 1.0 + 0j
    for v, dense in tables.items():
        if left[v] == 0:
            start *= dense[0]
    if start == 0:
        return 0j
    radix = max((len(tables[v]) for v in tables if left[v]), default=1)

    def rank(e):
        fresh = sum(v not in slot_of for v, _ in ends[e])
        return fresh, min((left[v] for v, _ in ends[e]), default=0), e

    states = {0: start}
    slot_of = {}
    while edges:
        e = min(edges, key=rank)
        edges.remove(e)
        steps = [0] * k
        closing = []
        for v, mult in ends[e]:
            if v not in slot_of:
                slot_of[v] = min(set(range(len(slot_of) + 1)).difference(slot_of.values()))
            offset = radix ** slot_of[v]
            base = degree[v] + 1
            for c in range(k):
                steps[c] += mult * base ** c * offset
            left[v] -= 1
            if left[v] == 0:
                closing.append((offset, tables[v]))
        # free closed slots only now, so that an end opening in this step
        # cannot take the slot of an end closing in it
        for v, _ in ends[e]:
            if left[v] == 0:
                del slot_of[v]
        if e in fixed:
            steps = [steps[fixed[e]]]
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
    return states.get(0, 0j)


# ---------------------------------------------------------------------------
# public operations


def exact_partition(g: Multigraph, h: EdgeColoringModel, budget: float | None = None) -> complex:
    """Partition function of ``h`` on ``g``, summed exactly over every edge coloring."""
    budget = DEFAULT_BUDGET if budget is None else budget
    tables = {v: _vertex_table(g.degree(v), h.k, h.value) for v in range(g.n)}
    return _colored_sum(g, h.k, range(g.m), {}, tables, budget)


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


def partition_vertex_model(g: Multigraph, a, B, budget: float | None = None) -> complex:
    """Vertex-coloring partition sum: states per vertex, pair weights per edge."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    B = np.asarray(B, dtype=complex)
    n_states = a.shape[0]
    if B.shape != (n_states, n_states):
        raise ValueError("B must be square with side len(a)")
    budget = DEFAULT_BUDGET if budget is None else budget
    if g.n * math.log(max(n_states, 1)) > math.log(max(budget, 1.0)) + 1e-9:
        raise BudgetExceededError(f"{n_states}^{g.n} states exceed the budget")
    edges_at = [[] for _ in range(g.n)]
    for u, x in g.edges:
        edges_at[max(u, x)].append((u, x))

    total = 0j

    def walk(v, weight, states):
        nonlocal total
        if v == g.n:
            total += weight
            return
        for s in range(n_states):
            w = weight * a[s]
            for u, x in edges_at[v]:
                w *= B[states[u] if u != v else s, states[x] if x != v else s]
                if w == 0:
                    break
            if w != 0:
                walk(v + 1, w, states + (s,))

    walk(0, 1.0 + 0j, ())
    return total


def exact_poly_by_interpolation(g: Multigraph, h: EdgeColoringModel,
                                budget: float | None = None) -> ComplexPoly:
    """Coefficients of z -> partition sum of the blend 1 + z*(h - 1).

    Evaluates the blend exactly at the integer nodes 0..|V| and solves the
    Vandermonde system; the polynomial has degree at most |V|.  Raises if the
    solve leaves a relative residual above 1e-8 at any node.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    n = g.n
    nodes = np.arange(n + 1, dtype=float)
    values = []
    for z in nodes:
        blended = EdgeColoringModel(
            h.k,
            {a: 1.0 + z * (val - 1.0) for a, val in h.entries.items()},
            1.0 + z * (h.default - 1.0),
        )
        values.append(exact_partition(g, blended, budget))
    values = np.array(values, dtype=complex)
    V = np.vander(nodes, n + 1, increasing=True).astype(complex)
    coeffs = np.linalg.solve(V, values)
    resid = np.max(np.abs(V @ coeffs - values))
    tol = 1e-8 * max(1.0, float(np.max(np.abs(values))))
    if resid > tol:
        raise ArithmeticError(f"interpolation residual {resid:.3e} exceeds {tol:.3e}")
    return ComplexPoly.from_coefficients(list(coeffs), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# simultaneous root iteration


def poly_roots(p: ComplexPoly, max_iterations: int = 800, step_tol: float = 1e-13) -> tuple[complex, ...]:
    """All roots of ``p`` (with multiplicity) by Durand-Kerner iteration.

    Starts from a deterministic circle of perturbed initial guesses, iterates
    the simultaneous correction, and validates every root against the
    residual bound |p(root)| <= 1e-9 * max|coeff| * max(1, |root|)^degree.
    Roots are ordered by modulus, then by argument.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no well-defined root set")
    coeffs = list(p.coeffs)
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("constant polynomials have no roots")
    scale = max(abs(c) for c in coeffs)

    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]

    # peel off exact roots at the origin
    origin = 0
    while monic[0] == 0:
        origin += 1
        monic = monic[1:]
    deg = len(monic) - 1

    roots = [0j] * origin
    if deg >= 1:
        cauchy = 1.0 + max(abs(c) for c in monic[:-1])
        geo = abs(monic[0]) ** (1.0 / deg) if monic[0] != 0 else 1.0
        found = None
        for attempt in range(4):
            radius = min(cauchy, max(geo, 1e-3) * (1.6 + 0.9 * attempt))
            if attempt == 3:
                radius = cauchy
            offset = 0.40 + 0.31 * attempt
            zs = [radius * cmath.exp(2j * math.pi * (i + offset) / deg) for i in range(deg)]
            if _durand_kerner(monic, zs, max_iterations, step_tol):
                if _roots_ok(coeffs, zs, scale, d):
                    found = zs
                    break
        if found is None:
            raise RootFindingError("root iteration failed to converge", tuple(roots + zs))
        roots.extend(found)

    roots.sort(key=lambda z: (abs(z), cmath.phase(z)))
    return tuple(roots)


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _durand_kerner(monic, zs, max_iterations, step_tol) -> bool:
    deg = len(zs)
    for _ in range(max_iterations):
        worst = 0.0
        for i in range(deg):
            zi = zs[i]
            num = _horner(monic, zi)
            den = 1.0 + 0j
            for j in range(deg):
                if j != i:
                    den *= zi - zs[j]
            if den == 0:
                den = step_tol + 0j
            step = num / den
            zs[i] = zi - step
            rel = abs(step) / (1.0 + abs(zs[i]))
            worst = max(worst, rel)
        if worst < step_tol:
            return True
    return True  # let the residual check decide (clusters converge slowly)


def _roots_ok(coeffs, roots, scale, d) -> bool:
    for z in roots:
        bound = 1e-9 * scale * max(1.0, abs(z)) ** d
        if abs(_horner(coeffs, z)) > bound:
            return False
    return True
