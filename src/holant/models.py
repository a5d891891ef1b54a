"""Edge-coloring models, vertex-coloring models, and symmetry machinery.

An edge-coloring model with k colors assigns a complex weight to every
color-count vector alpha in N^k; the weight of a graph coloring is the
product over vertices of the model value at the local count vector.  The
builtin closed forms are rules evaluated at any vector; random tables cover
the norms they were drawn for, and a model file what it declares.  Every
engine reads weights through ``EdgeColoringModel.value``, which refuses a
vector past the model's coverage, so a graph of larger degree is refused.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from .errors import DecompositionError, OutsideRegionError
from .graphs import Multigraph

if TYPE_CHECKING:
    import numpy as np


def compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total`` (lex order)."""
    if parts <= 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def vectors_up_to(norm: int, parts: int):
    for d in range(norm + 1):
        yield from compositions(d, parts)


@dataclass
class EdgeColoringModel:
    """Complex weights on the color-count vectors of norm at most ``max_norm``.

    A table lists ``entries`` and gives every unlisted vector ``default``; a
    closed form has no entries and computes ``rule(alpha)``.  ``max_norm``
    None covers every vector.  ``k`` is the color count (k >= 1; one color
    is degenerate but legal, as Gram factors of 1x1 matrices produce it).
    """

    k: int
    entries: dict[tuple[int, ...], complex]
    default: complex = 0j
    name: str = ""
    max_norm: int | None = None
    rule: Callable[[tuple[int, ...]], complex] | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("models need at least one color")
        if self.rule is not None and self.entries:
            raise ValueError("a closed-form model takes no entries")
        if self.max_norm is not None and self.max_norm < 0:
            raise ValueError("max_norm must be nonnegative")
        # every vector is checked by C-level scans; only a refusal walks the
        # entries again, to name the first bad one
        k, top = self.k, self.max_norm
        keys = [tuple(map(int, alpha)) for alpha in self.entries]
        if keys and (set(map(len, keys)) != {k} or min(map(min, keys)) < 0
                     or top is not None and max(map(sum, keys)) > top):
            for alpha in keys:
                # k >= 1, so a vector of length k has a min
                if len(alpha) != k or min(alpha) < 0:
                    raise ValueError(f"bad count vector {alpha!r} for k={k}")
                if top is not None and sum(alpha) > top:
                    raise ValueError(f"entry {alpha!r} lies past max_norm={top}")
        self.entries = cleaned = dict(zip(keys, map(complex, self.entries.values())))
        self.default = complex(self.default)
        if not (all(map(cmath.isfinite, cleaned.values())) and cmath.isfinite(self.default)):
            raise ValueError("model weights must be finite")

    def value(self, alpha) -> complex:
        alpha = tuple(alpha)
        if len(alpha) != self.k:
            raise ValueError(f"count vector {alpha!r} has wrong length for k={self.k}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"count vector {alpha!r} has a negative entry")
        if self.max_norm is not None and sum(alpha) > self.max_norm:
            raise OutsideRegionError(
                f"model {self.name or 'custom'} covers count vectors up to norm "
                f"{self.max_norm}, not {alpha!r} of norm {sum(alpha)}"
            )
        if self.rule is None:
            return self.entries.get(alpha, self.default)
        try:
            val = complex(self.rule(alpha))
            if cmath.isfinite(val):
                return val
        except OverflowError:
            pass
        raise ValueError(f"model weight at {alpha!r} is not finite")

    def deviation(self, max_norm: int) -> float:
        """sup |h(alpha) - 1| over all vectors with |alpha| <= max_norm."""
        worst = 0.0
        for alpha in vectors_up_to(max_norm, self.k):
            worst = max(worst, abs(self.value(alpha) - 1.0))
        return worst


def all_ones(k: int) -> EdgeColoringModel:
    return EdgeColoringModel(k, {}, 1.0 + 0j, name="ones")


def model_from_predicate(kind: str) -> EdgeColoringModel:
    """0/1 models keyed on the count of the first color.

    ``matching``: value 1 when at most one incident edge has color 0 (graph
    edges picked into the matching), else 0.  ``dregular:<d>``: value 1 when
    exactly d incident edges have color 0.  Both use two colors.
    """
    kind = kind.strip().lower()
    if kind == "matching":
        return EdgeColoringModel(2, {}, name="matching", rule=lambda alpha: float(alpha[0] <= 1))
    if kind.startswith("dregular:"):
        d = int(kind.split(":", 1)[1])
        if d < 0:
            raise ValueError("dregular needs a nonnegative degree")
        return EdgeColoringModel(2, {}, name=f"dregular:{d}",
                                 rule=lambda alpha: float(alpha[0] == d))
    raise ValueError(f"unknown predicate model {kind!r}")


def rank_one_model(x) -> EdgeColoringModel:
    """Evaluation model h(alpha) = prod_j x_j^alpha_j for a point x in C^k."""
    x = [complex(v) for v in x]
    return EdgeColoringModel(len(x), {}, name="rank-one",
                             rule=lambda alpha: math.prod(map(pow, x, alpha)))


def perturbed_ones(k: int, radius: float, seed: int | None = None,
                   max_degree: int = 12) -> EdgeColoringModel:
    """All-ones model with an independent uniform disk perturbation per vector.

    Draws one value within ``radius`` of 1 for every vector of norm up to
    ``max_degree``, which is the model's coverage.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    import numpy as np

    alphas = list(vectors_up_to(max_degree, k))
    # one draw of two uniforms per vector, in the order of one scalar
    # uniform(0, 1) and one uniform(0, 2 pi) per vector; uniform(0, b) is b U
    draws = np.random.default_rng(seed).random(2 * len(alphas)).tolist()
    entries = {}
    for alpha, u, w in zip(alphas, draws[::2], draws[1::2]):
        rho = radius * math.sqrt(u)
        entries[alpha] = 1.0 + rho * cmath.exp(1j * (2.0 * math.pi * w))
    return EdgeColoringModel(k, entries, 1.0 + 0j, f"ones+uniform:{radius}", max_degree)


# ---------------------------------------------------------------------------
# vertex-coloring models and the conversion to edge-coloring models


@dataclass
class VertexModel:
    """Vertex weights ``a`` (length n) and symmetric edge matrix ``B`` (n x n)."""

    a: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        import numpy as np

        self.a = np.asarray(self.a, dtype=complex).reshape(-1)
        self.B = np.asarray(self.B, dtype=complex)
        n = self.a.shape[0]
        if self.B.shape != (n, n):
            raise ValueError("B must be square with side len(a)")
        if not (np.isfinite(np.abs(self.a)).all() and np.isfinite(np.abs(self.B)).all()):
            raise ValueError("vertex model weights and their moduli must be finite")
        if not np.allclose(self.B, self.B.T, atol=1e-12):
            raise ValueError("B must be symmetric")

    @property
    def n(self) -> int:
        return self.a.shape[0]


def symmetric_decompose(B) -> np.ndarray:
    """Gram factor U with U^T U = B for a complex symmetric matrix.

    Outer-product elimination with diagonal pivoting; when every remaining
    diagonal entry is negligible next to the off-diagonal mass, a 2x2 block
    pivot is eliminated instead, mixing the two rows through a quarter-turn
    rotation and complex square roots (the same trick that factors
    [[0, b], [b, 0]] into rows proportional to (1, +-i)).  The block is that
    of the largest off-diagonal entry w, and every diagonal entry is below
    |w| / 100, so both square roots have modulus near sqrt(|w|) or more.
    Raises ``DecompositionError`` for an input that is not square,
    symmetric and finite (moduli included), or when |U^T U - B| passes
    1e-10 of the scale.
    """
    import numpy as np

    B = np.array(B, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DecompositionError("input must be a square matrix")
    n = B.shape[0]
    scale = max(np.max(np.abs(B)), 1.0)
    if not math.isfinite(scale):
        raise DecompositionError("matrix entries and their moduli must be finite")
    if not np.allclose(B, B.T, atol=1e-10):
        raise DecompositionError("input must be symmetric")
    work = B.copy()
    active = list(range(n))
    rows = []
    while active:
        sub = work[np.ix_(active, active)]
        diag = np.abs(np.diag(sub))
        off = np.abs(sub) - np.diag(diag)
        if np.max(np.abs(sub)) <= 1e-13 * scale:
            break
        p_local = int(np.argmax(diag))
        if diag[p_local] >= 1e-2 * np.max(off, initial=0.0):
            p = active[p_local]
            piv = work[p, p]
            row = work[p, :] / cmath.sqrt(piv)
            rows.append(row.copy())
            work = work - np.outer(row, row)
            active.remove(p)
        else:
            i_local, j_local = divmod(int(np.argmax(off)), len(active))
            p, q = active[i_local], active[j_local]
            block = np.array([[work[p, p], work[p, q]], [work[q, p], work[q, q]]], dtype=complex)
            # rotate by pi/4 so the block diagonal picks up the off-diagonal mass
            G = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / math.sqrt(2.0)
            Mr = G @ block @ G.T
            s = cmath.sqrt(Mr[0, 0])
            l21 = Mr[1, 0] / s
            t = cmath.sqrt(Mr[1, 1] - l21 * l21)
            L = np.array([[s, 0.0], [l21, t]], dtype=complex)
            N = G.T @ L  # N @ N.T == block
            Ninv_T = np.linalg.inv(N).T
            X = work[:, [p, q]]
            W = X @ Ninv_T
            rows.append(W[:, 0].copy())
            rows.append(W[:, 1].copy())
            work = work - W @ W.T
            active.remove(p)
            active.remove(q)
    if not rows:
        rows.append(np.zeros(n, dtype=complex))
    U = np.vstack(rows)
    resid = np.max(np.abs(U.T @ U - B))
    if resid > 1e-10 * scale:
        raise DecompositionError(f"factorization residual {resid:.3e} too large")
    return U


def vertex_to_edge(model: VertexModel, U: np.ndarray | None = None) -> EdgeColoringModel:
    """Edge-coloring model with the same partition function as ``model``.

    Uses any U with U^T U = B (computed by ``symmetric_decompose`` when not
    supplied); with columns u_1..u_n of U, the value at alpha is
    sum_i a_i * prod_j u_i(j)^alpha_j.
    """
    import numpy as np

    if U is None:
        U = symmetric_decompose(model.B)
    U = np.asarray(U, dtype=complex)
    if U.shape[1] != model.n:
        raise ValueError("U must have one column per vertex-model state")
    if not np.isfinite(U).all():
        raise ValueError("U must be finite")
    resid = np.max(np.abs(U.T @ U - model.B))
    if resid > 1e-8 * max(1.0, np.max(np.abs(model.B))):
        raise ValueError(f"U^T U differs from B by {resid:.3e}")
    return EdgeColoringModel(
        U.shape[0], {}, name="from-vertex-model",
        rule=lambda alpha: model.a @ np.prod(U ** np.array(alpha)[:, None], axis=0))


# ---------------------------------------------------------------------------
# tensor assignments: one symmetric tensor per vertex


@dataclass
class TensorAssignment:
    """Per-vertex weight tables for a specific graph.

    ``tensors[v]`` maps count vectors of norm ``deg(v)`` to complex weights.
    """

    graph: Multigraph
    k: int
    tensors: tuple[dict[tuple[int, ...], complex], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("tensor assignments need at least one color")
        if len(self.tensors) != self.graph.n:
            raise ValueError("need exactly one tensor per vertex")
        cleaned = []
        for v, t in enumerate(self.tensors):
            d = self.graph.degree(v)
            out = {}
            for alpha, val in t.items():
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != self.k or any(a < 0 for a in alpha):
                    raise ValueError(f"bad count vector {alpha!r} at vertex {v}")
                if sum(alpha) != d:
                    raise ValueError(
                        f"vertex {v} has degree {d} but tensor key {alpha!r} has norm {sum(alpha)}"
                    )
                out[alpha] = complex(val)
            cleaned.append(out)
        self.tensors = tuple(cleaned)

    def value(self, v: int, alpha) -> complex:
        alpha = tuple(alpha)
        try:
            return self.tensors[v][alpha]
        except KeyError as exc:
            raise KeyError(f"vertex {v} tensor has no value at {alpha}") from exc

    @classmethod
    def from_model(cls, g: Multigraph, h: EdgeColoringModel) -> "TensorAssignment":
        return cls.from_function(g, h.k, lambda v, alpha: h.value(alpha))

    @classmethod
    def from_function(cls, g: Multigraph, k: int, fn) -> "TensorAssignment":
        """Build tables by calling ``fn(v, alpha)`` on every needed vector."""
        tensors = []
        for v in range(g.n):
            tensors.append({alpha: fn(v, alpha) for alpha in compositions(g.degree(v), k)})
        return cls(g, k, tuple(tensors))


# ---------------------------------------------------------------------------
# orthogonal action


def random_orthogonal(k: int, seed: int | None = None) -> np.ndarray:
    """Complex orthogonal matrix exp(A) with A antisymmetric, entries in the unit disk."""
    import numpy as np

    rng = np.random.default_rng(seed)
    re = rng.uniform(-0.5, 0.5, size=(k, k))
    im = rng.uniform(-0.5, 0.5, size=(k, k))
    A = re + 1j * im
    A = A - A.T  # antisymmetric; entries stay within the unit disk
    g = _expm(A)
    resid = np.max(np.abs(g.T @ g - np.eye(k)))
    if resid > 1e-9:
        raise RuntimeError(f"orthogonality residual {resid:.3e} too large")
    return g


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: halve A until its 1-norm is
    at most 1/2, sum 20 Taylor terms (truncation below 1e-25), square back."""
    import numpy as np

    norm = np.linalg.norm(A, 1)
    squarings = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    X = A / 2.0 ** squarings
    term = np.eye(A.shape[0], dtype=complex)
    total = term.copy()
    for j in range(1, 21):
        term = term @ X / j
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def _poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0j) + ca * cb
    return out


def _transformed_monomial(g: np.ndarray, alpha: tuple[int, ...]) -> dict:
    """Expansion of prod_j (g v)_j^alpha_j as a polynomial in v (dict beta -> coeff)."""
    import numpy as np

    k = len(alpha)
    zero = tuple(0 for _ in range(k))
    result = {zero: 1.0 + 0j}
    unit = np.eye(k, dtype=int)
    for j in range(k):
        if alpha[j] == 0:
            continue
        linear = {tuple(unit[i]): complex(g[j, i]) for i in range(k) if g[j, i] != 0}
        for _ in range(alpha[j]):
            result = _poly_mul(result, linear)
    return result


def transformed_value(g: np.ndarray, value_fn, alpha) -> complex:
    """Value of the transformed model at ``alpha``: expand the monomial and recombine."""
    total = 0j
    for beta, coeff in _transformed_monomial(g, tuple(alpha)).items():
        total += coeff * value_fn(beta)
    return total


def apply_orthogonal(g: np.ndarray, target, max_degree: int | None = None):
    """Transform a model or tensor assignment by a complex orthogonal matrix.

    For an ``EdgeColoringModel`` the result is a closed form that expands
    each value from the target's values of the same norm; it covers
    ``max_degree``, or the target's own coverage when that is not given.
    For a ``TensorAssignment`` each vertex table is transformed in full.
    """
    import numpy as np

    g = np.asarray(g, dtype=complex)
    if not isinstance(target, (EdgeColoringModel, TensorAssignment)):
        raise TypeError(f"cannot transform {type(target).__name__}")
    if g.shape != (target.k, target.k):
        raise ValueError("matrix size must match the color count")
    if isinstance(target, TensorAssignment):
        return TensorAssignment.from_function(
            target.graph, target.k,
            lambda v, alpha: transformed_value(g, partial(target.value, v), alpha))
    cover = target.max_norm if max_degree is None else max_degree
    return EdgeColoringModel(target.k, {}, 0j, target.name, cover,
                             partial(transformed_value, g, target.value))


# ---------------------------------------------------------------------------
# zero-free region parameters


@dataclass(frozen=True)
class RegionParams:
    """Parameters (delta, eta, theta, beta) of the diagonal zero-free region.

    Constraints: 0 < theta < 2*pi/3, eta > 0, delta > 0, and
    beta <= eta * theta * cos(theta / 2).
    """

    delta: float
    eta: float
    theta: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 2.0 * math.pi / 3.0:
            raise ValueError("theta must lie in (0, 2*pi/3)")
        if self.eta <= 0.0 or self.delta <= 0.0:
            raise ValueError("eta and delta must be positive")
        cap = self.eta * self.theta * math.cos(self.theta / 2.0)
        if self.beta > cap * (1.0 + 1e-12):
            raise ValueError(f"beta={self.beta} exceeds eta*theta*cos(theta/2)={cap}")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")

    @classmethod
    def from_theorem(cls, eta: float, theta: float, max_degree: int) -> "RegionParams":
        """Largest admissible beta and the matching delta for graphs of given degree."""
        beta = eta * theta * math.cos(theta / 2.0)
        return cls(delta=_delta_cap(eta, beta, max_degree), eta=eta, theta=theta, beta=beta)

    def validate_for_degree(self, max_degree: int) -> None:
        cap = _delta_cap(self.eta, self.beta, max_degree)
        if self.delta > cap * (1.0 + 1e-12):
            raise ValueError(
                f"delta={self.delta} exceeds min(eta, beta/(Delta+1))={cap} at Delta={max_degree}"
            )


def _delta_cap(eta: float, beta: float, max_degree: int) -> float:
    """min(eta, beta / (Delta + 1)), the largest delta at max degree Delta >= 0."""
    if max_degree < 0:
        raise ValueError(f"max degree must be nonnegative, not {max_degree}")
    return min(eta, beta / (max_degree + 1))


def values_in_region(values, delta: float, eta: float) -> bool:
    """Membership test for one vertex table: pairwise spread < delta, moduli >= eta."""
    vals = list(values)
    if not vals:
        return True
    if any(abs(v) < eta * (1.0 - 1e-12) for v in vals):
        return False
    hi_re = max(v.real for v in vals)
    lo_re = min(v.real for v in vals)
    hi_im = max(v.imag for v in vals)
    lo_im = min(v.imag for v in vals)
    # cheap reject before the quadratic pass
    if math.hypot(hi_re - lo_re, hi_im - lo_im) < delta:
        return True
    return all(abs(x - y) < delta for x, y in itertools.combinations(vals, 2))


def assignment_in_region(t: TensorAssignment, params: RegionParams) -> bool:
    return all(values_in_region(t.tensors[v].values(), params.delta, params.eta)
               for v in range(t.graph.n))


# ---------------------------------------------------------------------------
# JSON serialization


def _c2j(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _j2c(obj) -> complex:
    return complex(float(obj["re"]), float(obj["im"]))


def model_to_json_dict(h: EdgeColoringModel) -> dict:
    if h.rule is not None:
        raise ValueError(f"model {h.name or 'custom'} is a closed form, not a table")
    entries = [{"alpha": list(a), "re": v.real, "im": v.imag}
               for a, v in sorted(h.entries.items())]
    obj = {"k": h.k, "default": _c2j(h.default), "entries": entries}
    if h.max_norm is not None:
        obj["max_norm"] = h.max_norm
    return obj


def model_from_json_dict(obj) -> EdgeColoringModel:
    try:
        k = int(obj["k"])
        default = _j2c(obj["default"])
        entries = {tuple(int(a) for a in e["alpha"]): complex(float(e["re"]), float(e["im"]))
                   for e in obj["entries"]}
        max_norm = obj.get("max_norm")
        max_norm = None if max_norm is None else operator.index(max_norm)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model JSON: {exc}") from exc
    return EdgeColoringModel(k, entries, default, max_norm=max_norm)


def load_model(path) -> EdgeColoringModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json_dict(json.load(fh))


def save_model(h: EdgeColoringModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json_dict(h), fh, indent=1)
        fh.write("\n")
