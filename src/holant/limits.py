"""Per-vertex normalized sums along graph families, and two exact oracles.

Cycles admit a k x k transfer matrix whose trace-of-power reproduces the
partition sum at any length, which makes them the reference family for
convergence experiments.  The root-potential identity cross-checks the
whole stack: the average log-distance from 1 to the roots of the reversed
blend polynomial must equal the normalized log-magnitude minus the edge-
density log-term, with both sides computed by independent code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .approx import approx_partition
from .errors import BudgetExceededError, OutsideRegionError
from .exact import ComplexPoly, exact_partition, exact_poly_by_interpolation, poly_roots
from .graphs import GraphFamilySpec, Multigraph, generate
from .models import EdgeColoringModel

if TYPE_CHECKING:
    import numpy as np


def normalized_pf(g: Multigraph, h: EdgeColoringModel, budget: float | None = None) -> float:
    """ln|partition sum| divided by the vertex count, from the exact sum."""
    if g.n == 0:
        raise ValueError("normalization needs at least one vertex")
    mag = abs(exact_partition(g, h, budget))
    if mag == 0:
        raise OutsideRegionError("the partition sum vanishes; no log to take")
    return math.log(mag) / g.n


# ---------------------------------------------------------------------------
# cycles via transfer matrix


def cycle_transfer_matrix(h: EdgeColoringModel) -> np.ndarray:
    """k x k matrix with entry (i, j) the weight of one i and one j incidence."""
    import numpy as np

    k = h.k
    T = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            alpha = [0] * k
            alpha[i] += 1
            alpha[j] += 1
            T[i, j] = h.value(tuple(alpha))
    return T


def cycle_transfer_pf(h: EdgeColoringModel, n: int) -> complex:
    """Partition sum on the length-n cycle: trace of the n-th matrix power."""
    if n < 1:
        raise ValueError("cycle length must be at least 1")
    import numpy as np

    T = cycle_transfer_matrix(h)
    return complex(np.trace(np.linalg.matrix_power(T, n)))


def transfer_log_growth(h: EdgeColoringModel) -> float:
    """ln of the spectral radius of the cycle transfer matrix."""
    import numpy as np

    T = cycle_transfer_matrix(h)
    top = max(abs(w) for w in np.linalg.eigvals(T))
    if top == 0:
        raise ValueError("transfer matrix is nilpotent; growth rate is -inf")
    return math.log(top)


# ---------------------------------------------------------------------------
# convergence experiments


@dataclass(frozen=True)
class ConvergenceReport:
    """Normalized values along one family, with successive differences.

    ``values`` holds None where the engine failed for that size (the error
    text lands in ``engine_per_size``); diffs are None when either neighbor
    is missing.  ``cauchy`` says whether the final three differences (or all
    of them, when fewer exist) stayed below ``tol`` in absolute value.
    """

    family: str
    sizes: tuple[int, ...]
    values: tuple
    diffs: tuple
    cauchy: bool
    engine_per_size: tuple[str, ...]
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "sizes": list(self.sizes),
            "values": list(self.values),
            "diffs": list(self.diffs),
            "cauchy": self.cauchy,
            "engine_per_size": list(self.engine_per_size),
        }

    def table(self) -> str:
        lines = [f"{'size':>6}  {'value':>22}  {'diff':>22}  engine"]
        for i, size in enumerate(self.sizes):
            val = "failed" if self.values[i] is None else f"{self.values[i]:.12f}"
            diff = ""
            if i > 0 and self.diffs[i - 1] is not None:
                diff = f"{self.diffs[i - 1]:+.3e}"
            lines.append(f"{size:>6}  {val:>22}  {diff:>22}  {self.engine_per_size[i]}")
        lines.append(f"cauchy(tol={self.tol:g}): {self.cauchy}")
        return "\n".join(lines)


def convergence_run(specs, h: EdgeColoringModel, eps: float = 1e-3,
                    tol: float = 1e-3, budget: float | None = None) -> ConvergenceReport:
    """Normalized values for each family member, engine chosen per size.

    Cycles go through the transfer matrix (exact at any length); everything
    else through the certified scheme.  Region or budget failures do not
    abort the run; they are recorded for their size and skipped in diffs.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one family member")
    family = specs[0].family
    sizes = [s.size for s in specs]
    if any(s.family != family for s in specs):
        raise ValueError("family members must share one family")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")

    values = []
    engines = []
    for spec in specs:
        try:
            if family == "cycle":
                value = cycle_transfer_pf(h, spec.size)
                mag = abs(value)
                if mag == 0:
                    raise OutsideRegionError("cycle partition sum vanishes")
                values.append(math.log(mag) / spec.size)
                engines.append("transfer")
            else:
                # the certificate bounds the log error by eps, so eps / |V| here
                g = generate(spec)
                values.append(approx_partition(g, h, eps, budget).log_value.real / g.n)
                engines.append("approx")
        except (OutsideRegionError, BudgetExceededError, ArithmeticError) as exc:
            values.append(None)
            engines.append(f"error: {exc}")

    diffs = []
    for a, b in zip(values, values[1:]):
        diffs.append(None if a is None or b is None else b - a)
    window = [d for d in diffs[-3:]]
    cauchy = bool(window) and all(d is not None and abs(d) < tol for d in window)

    return ConvergenceReport(family, tuple(sizes), tuple(values), tuple(diffs), cauchy,
                             tuple(engines), tol)


# ---------------------------------------------------------------------------
# the root-potential identity


def log_potential_check(g: Multigraph, h: EdgeColoringModel,
                        budget: float | None = None) -> tuple[float, float, float]:
    """Both sides of the root-average identity, and their discrepancy.

    Left side: mean over roots of the reversed normalized blend polynomial
    of ln|1 - root|.  Right side: normalized log-magnitude minus the edge
    density times ln k.  The blend coefficients are sums of products from
    one contraction, so the two agree up to rounding and root-finding
    error; a root at 1 means the partition sum vanishes and raises.
    """
    if g.n == 0:
        raise ValueError("need at least one vertex")
    k = h.k
    q = exact_poly_by_interpolation(g, h, budget)
    coeffs = list(q.coeffs) + [0j] * (g.n + 1 - len(q.coeffs))
    scale = float(k) ** (-g.m)
    reversed_scaled = tuple(coeffs[g.n - j] * scale for j in range(g.n + 1))
    qhat = ComplexPoly(reversed_scaled)

    lhs = 0.0
    for root in poly_roots(qhat):
        gap = abs(1.0 - root)
        if gap < 1e-12:
            raise OutsideRegionError("a root of the blend sits at 1: p(G)(h) = 0")
        lhs += math.log(gap)
    lhs /= g.n

    rhs = normalized_pf(g, h, budget) - (g.m / g.n) * math.log(k)
    return lhs, rhs, abs(lhs - rhs)
