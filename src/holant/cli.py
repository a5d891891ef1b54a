"""Command-line front end.

Thin adapters around the library: each subcommand parses its inputs, calls
one library function, and prints the result through a fixed-format JSON
emitter (17 significant digits) or as plain text.  Exit codes: 0 success,
1 region or precondition violation, 2 budget exceeded, 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache, partial

from . import approx, exact, exptype, graphs, limits, models
from .errors import (BudgetExceededError, GraphFormatError, HolantError,
                     OutsideRegionError)


class _ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseFailure(message)


# ---------------------------------------------------------------------------
# shared input handling


def _resolve_budget(arg_value) -> float:
    env = os.environ.get("HOLANT_BUDGET")
    try:
        budget = float(arg_value if arg_value is not None else env or exact.DEFAULT_BUDGET)
    except ValueError:
        raise _ParseFailure(f"HOLANT_BUDGET={env!r} is not a number")
    if math.isnan(budget):
        # every comparison with NaN is false, so it would bound nothing
        source = "--budget" if arg_value is not None else "HOLANT_BUDGET"
        raise _ParseFailure(f"{source} is NaN; give a number or inf")
    return budget


def _parse_family(text: str, seed) -> graphs.GraphFamilySpec:
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    try:
        if name in ("cycle", "path", "complete"):
            return graphs.GraphFamilySpec(name, int(rest))
        if name in ("torus", "torus2d"):
            rest = rest.replace("x", ",")
            a, b = (int(p) for p in rest.split(","))
            return graphs.GraphFamilySpec("torus", a, size2=b)
        if name in ("regular", "random-regular"):
            parts = [int(p) for p in rest.split(",")]
            if len(parts) in (2, 3):
                s = parts[2] if len(parts) > 2 else (seed if seed is not None else 0)
                return graphs.GraphFamilySpec("regular", parts[0], degree=parts[1], seed=s)
    except ValueError:
        pass
    raise _ParseFailure(
        f"bad family {text!r}; try cycle:N, path:N, complete:N, torus:AxB, regular:N,D[,seed]"
    )


def _load_graph(args) -> graphs.Multigraph:
    has_file = getattr(args, "graph", None) is not None
    has_family = getattr(args, "family", None) is not None
    if has_file == has_family:
        raise _ParseFailure("need exactly one of --graph or --family")
    if has_file:
        try:
            return graphs.read_edge_list(args.graph)
        except OSError as exc:
            raise _ParseFailure(f"cannot read graph file: {exc}")
    return graphs.generate(_parse_family(args.family, getattr(args, "seed", None)))


def _builtin_model(name: str, seed) -> models.EdgeColoringModel:
    """Builtin model ``name``: malformed is a _ParseFailure, refused a ValueError."""
    kind, *fields = name.strip().lower().replace("±", "+-").split(":")
    build = None
    try:
        if kind == "ones" and len(fields) < 2:
            build = partial(models.all_ones, int(fields[0]) if fields else 2)
        elif kind == "matching" and not fields:
            build = partial(models.model_from_predicate, "matching")
        elif kind == "dregular" and len(fields) == 1:
            build = partial(models.model_from_predicate, f"dregular:{int(fields[0])}")
        elif kind == "ones+-uniform" and len(fields) in (1, 2):
            s = int(fields[1]) if len(fields) > 1 else (seed if seed is not None else 0)
            build = partial(models.perturbed_ones, 2, float(fields[0]), s)
    except ValueError:
        pass
    if build is None:
        raise _ParseFailure(f"bad model {name!r}; builtins: ones[:k], matching, dregular:<d>, "
                            "ones+-uniform:<r>[:<seed>], or a JSON file path")
    return build()


def _load_model(args) -> models.EdgeColoringModel:
    source = getattr(args, "model", None)
    if source is None:
        raise _ParseFailure("--model is required")
    if source.endswith(".json") or os.path.sep in source or os.path.exists(source):
        try:
            return models.load_model(source)
        except OSError as exc:
            raise _ParseFailure(f"cannot read model file: {exc}")
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise _ParseFailure(f"bad model file {source!r}: {exc}")
    return _builtin_model(source, getattr(args, "seed", None))


def _parse_complex(text: str) -> complex:
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            return complex(float(re_s), float(im_s))
        return complex(float(text), 0.0)
    except ValueError:
        raise _ParseFailure(f"bad complex number {text!r}; use 're' or 're,im'")


# ---------------------------------------------------------------------------
# output formatting


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def _emit_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return _emit_json({"re": obj.real, "im": obj.imag})
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_emit_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _fmt_value_text(z: complex) -> str:
    if z.imag == 0 or abs(z.imag) <= 1e-12 * abs(z.real):
        return f"{z.real:.17g}"
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _print(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        sys.stdout.write(_emit_json(payload) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _cert_text(cert, mode: str):
    lines = []
    if mode == "add":
        lines.append(f"log|p| = {cert.log_value.real:.17g}")
    else:
        lines.append(f"value = {_fmt_value_text(cert.value)}")
    lines.append(f"M = {cert.radius:.17g}" if math.isfinite(cert.radius) else "M = inf")
    lines.append(f"q0 = {cert.q0:.17g}")
    lines.append(f"order = {cert.order}")
    lines.append(f"bound = {cert.error_bound:.17g}")
    lines.append(f"mode = {cert.mode}")
    if cert.heuristic:
        lines.append("radius: HEURISTIC (not certified)")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _cmd_exact(args) -> int:
    g = _load_graph(args)
    h = _load_model(args)
    value = exact.exact_partition(g, h, args.budget)
    _print(args, {"value": value, "vertices": g.n, "edges": g.m, "k": h.k},
           [_fmt_value_text(value)])
    return 0


def _cmd_approx(args) -> int:
    g = _load_graph(args)
    h = _load_model(args)
    cert = approx.approx_partition(g, h, args.eps, args.budget)
    payload = cert.to_json_dict()
    payload["requested_mode"] = args.mode
    _print(args, payload, _cert_text(cert, args.mode))
    return 0


def _cmd_tutte(args) -> int:
    g = _load_graph(args)
    q = _parse_complex(args.q)
    v = _parse_complex(args.v)
    value = exptype.tutte_direct(g, q, v, args.budget)
    _print(args, {"value": value, "q": q, "v": v},
           [_fmt_value_text(value)])
    return 0


def _parse_chi_spec(text: str) -> exptype.ExpTypeSpec:
    lowered = text.strip().lower()
    if lowered == "chromatic":
        return exptype.chromatic_spec()
    if lowered.startswith("tutte:v="):
        v = _parse_complex(lowered[len("tutte:v="):])
        return exptype.tutte_spec(v)
    raise _ParseFailure(f"unknown chi spec {text!r}; use tutte:v=<re>,<im> or chromatic")


def _cmd_exptype(args) -> int:
    g = _load_graph(args)
    spec = _parse_chi_spec(args.chi)
    if args.radius is not None:
        spec = spec.with_root_radius(args.radius, heuristic=False)
    elif args.estimate_radius:
        c = exptype.estimate_root_radius(spec, g.max_degree(), [g], args.budget)
        spec = spec.with_root_radius(c, heuristic=True)
    x = _parse_complex(args.x)
    cert = exptype.eval_exp_type(g, spec, x, args.eps, args.budget)
    payload = cert.to_json_dict()
    payload["requested_mode"] = args.mode
    payload["chi"] = spec.name
    payload["x"] = x
    payload["root_radius"] = spec.root_radius
    _print(args, payload, _cert_text(cert, args.mode))
    return 0


def _limits_family(text: str, seed) -> graphs.GraphFamilySpec:
    """The family of ``limits``, whose size each of ``--sizes`` replaces.

    A bare ``cycle``, ``path``, ``complete`` or ``torus`` needs no size; a
    bare torus means square tori.  Any other family is given in full.
    """
    if ":" in text:
        return _parse_family(text, seed)
    name = text.strip().lower()
    if name in ("cycle", "path", "complete"):
        return graphs.GraphFamilySpec(name, 0)
    if name in ("torus", "torus2d"):
        return graphs.GraphFamilySpec("torus", 0)
    raise _ParseFailure(
        f"bad family {text!r}; limits takes cycle, path, complete or torus bare, "
        f"or a full spec such as torus:AxB or regular:N,D[,seed] whose first size "
        f"--sizes replaces"
    )


def _cmd_limits(args) -> int:
    h = _load_model(args)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise _ParseFailure(f"bad --sizes {args.sizes!r}; use comma-separated integers")
    if not sizes:
        raise _ParseFailure("--sizes must name at least one size")
    base = _limits_family(args.family, args.seed)
    specs = [graphs.GraphFamilySpec(base.family, s, size2=base.size2,
                                    degree=base.degree, seed=base.seed)
             for s in sizes]
    report = limits.convergence_run(specs, h, args.eps, args.tol, args.budget)
    _print(args, report.to_json_dict(), [report.table()])
    return 0


def _cmd_roots(args) -> int:
    g = _load_graph(args)
    h = _load_model(args)
    poly = exact.exact_poly_by_interpolation(g, h, args.budget)
    roots = exact.poly_roots(poly)
    payload = {
        "degree": poly.degree,
        "coefficients": list(poly.coeffs),
        "roots": list(roots),
    }
    _print(args, payload, [_fmt_value_text(r) for r in roots])
    return 0


def _cmd_region_check(args) -> int:
    constants = approx.zero_free_constants()
    theta = args.theta if args.theta is not None else constants.theta

    if args.graph is not None or args.family is not None:
        g = _load_graph(args)
        delta = g.max_degree()
        params = models.RegionParams.from_theorem(args.eta, theta, delta)
        report = approx.verify_zero_free(g, params, args.samples, args.seed or 0,
                                         args.k, args.budget)
        payload = {
            "vertices": g.n,
            "edges": g.m,
            "max_degree": delta,
            "delta": params.delta,
            "eta": params.eta,
            "theta": params.theta,
            "beta": params.beta,
            "samples": report.samples,
            "bound": report.bound,
            "min_abs": report.min_abs,
            "min_ratio": report.min_ratio,
            "failures": list(report.failures),
            "all_pass": report.all_pass,
        }
        lines = [
            f"samples = {report.samples}",
            f"bound = {report.bound:.17g}",
            f"min |p| = {report.min_abs:.17g}",
            f"failures = {len(report.failures)}",
        ]
        _print(args, payload, lines)
        return 0 if report.all_pass else 1

    if args.model is None:
        raise _ParseFailure("region-check needs --graph/--family (sampling) or --model")
    h = _load_model(args)
    delta_g = args.max_degree
    params = models.RegionParams.from_theorem(args.eta, theta, delta_g)
    inside = models.values_in_region(
        [h.value(a) for a in models.vectors_up_to(delta_g, h.k)],
        params.delta, params.eta)
    r = h.deviation(delta_g)
    radius = approx.blend_radius(delta_g, r)
    payload = {
        "model": h.name or "custom",
        "max_degree": delta_g,
        "delta": params.delta,
        "eta": params.eta,
        "theta": params.theta,
        "beta": params.beta,
        "in_region": inside,
        "deviation": r,
        "certified_radius": radius,
        "taylor_feasible": radius > 1.0,
    }
    lines = [
        f"in_region = {inside}",
        f"deviation = {r:.17g}",
        "certified_radius = " + (f"{radius:.17g}" if math.isfinite(radius) else "inf"),
        f"taylor_feasible = {radius > 1.0}",
    ]
    _print(args, payload, lines)
    return 0


def _cmd_constants(args) -> int:
    c = approx.zero_free_constants()
    beta = {str(d): c.radius(d) for d in range(1, 9)}
    payload = {"theta_star": c.theta, "x_star": c.x, "beta_star": beta}
    lines = [f"theta* = {c.theta:.17g}", f"x*     = {c.x:.17g}"]
    for d in range(1, 9):
        lines.append(f"beta*({d}) = {c.radius(d):.17g}")
    _print(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest(args) -> int:
    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        if ok:
            sys.stdout.write(f"ok   {name}\n")
        else:
            failures.append(name)
            sys.stdout.write(f"FAIL {name} {detail}\n")

    c = approx.zero_free_constants()
    check("constants.theta", abs(c.theta - 1.72067) <= 1e-4, f"{c.theta}")
    check("constants.x", abs(c.x - 1.12219) <= 1e-4, f"{c.x}")
    check("constants.beta1", abs(c.radius(1) - 0.71885) <= 1e-4, f"{c.radius(1)}")

    triangle = graphs.Multigraph(3, ((0, 1), (0, 2), (1, 2)))
    square = graphs.generate(graphs.GraphFamilySpec("cycle", 4))
    matching = models.model_from_predicate("matching")
    m3 = exact.exact_partition(triangle, matching)
    m4 = exact.exact_partition(square, matching)
    check("exact.matchings", round(m3.real) == 4 and round(m4.real) == 7,
          f"{m3} {m4}")

    t3 = limits.cycle_transfer_pf(matching, 3)
    check("transfer.matchings", abs(t3 - m3) <= 1e-10 * abs(m3), f"{t3}")

    profile_value = exptype.tutte_direct(triangle, 2.0, 1.0)
    spec1 = exptype.tutte_spec(1.0)
    assembled = exptype.exp_type_poly(triangle, spec1)(2.0)
    check("tutte.pipeline", abs(profile_value - assembled) <= 1e-8 * abs(profile_value),
          f"{profile_value} vs {assembled}")
    chrom = exptype.tutte_direct(triangle, 3.0, -1.0)
    check("tutte.chromatic", round(chrom.real) == 6, f"{chrom}")

    g = graphs.Multigraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)))
    h = models.perturbed_ones(2, 0.05, seed=5)
    poly = exact.exact_poly_by_interpolation(g, h)
    ok_deriv = True
    for m in range(g.n + 1):
        direct = approx.q_derivative(g, h, m)
        coeff = poly.coeffs[m] * math.factorial(m) if m <= poly.degree else 0j
        if abs(direct - coeff) > 1e-7 * max(1.0, abs(coeff)):
            ok_deriv = False
    check("derivatives.match", ok_deriv)

    cert = approx.approx_partition(g, h, 1e-3)
    truth = exact.exact_partition(g, h)
    ratio = cert.value / truth
    err = abs(math.log(abs(ratio)))
    check("approx.bound", err <= cert.error_bound + 1e-12, f"err={err:.3e}")

    roots = exact.poly_roots(exact.ComplexPoly((0j, 1.0 + 0j, 1.0 + 0j)))
    check("roots.quadratic",
          abs(roots[0]) <= 1e-9 and abs(roots[1] + 1.0) <= 1e-9, f"{roots}")

    lhs, rhs, disc = limits.log_potential_check(triangle, matching)
    check("limits.potential", disc <= 1e-7, f"{disc:.3e}")

    ortho = models.random_orthogonal(2, seed=3)
    base = models.TensorAssignment.from_model(g, h)
    moved = models.apply_orthogonal(ortho, base)
    p0 = exact.contract_network(g, base)
    p1 = exact.contract_network(g, moved)
    check("orthogonal.invariance", abs(p0 - p1) <= 1e-8 * max(1.0, abs(p0)),
          f"{abs(p0 - p1):.3e}")

    sys.stdout.write(f"{len(failures)} failures\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once per process and reused by every run."""
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("json", "text"), default="json")
    common = argparse.ArgumentParser(add_help=False, parents=[formatted])
    common.add_argument("--budget", type=float, default=None,
                        help="term budget (default 1e8; env HOLANT_BUDGET overrides)")
    common.add_argument("--seed", type=int, default=None)

    graphy = argparse.ArgumentParser(add_help=False)
    graphy.add_argument("--graph", help="edge-list file: 'n m' header then 'u v' lines")
    graphy.add_argument("--family", help="cycle:N path:N complete:N torus:AxB regular:N,D[,s]")

    modely = argparse.ArgumentParser(add_help=False)
    modely.add_argument("--model",
                        help="JSON file or builtin: ones[:k], matching, dregular:<d>, "
                             "ones+-uniform:<r>[:<seed>]")

    parser = _Parser(prog="holant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("exact", parents=[common, graphy, modely])

    p = sub.add_parser("approx", parents=[common, graphy, modely])
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--mode", choices=("mult", "add"), default="mult")

    p = sub.add_parser("tutte", parents=[common, graphy])
    p.add_argument("--q", required=True, help="complex 're' or 're,im'")
    p.add_argument("--v", required=True, help="complex 're' or 're,im'")

    p = sub.add_parser("exptype", parents=[common, graphy])
    p.add_argument("--chi", required=True, help="tutte:v=<re>,<im> or chromatic")
    p.add_argument("--x", required=True, help="evaluation point, 're' or 're,im'")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--mode", choices=("mult", "add"), default="mult")
    p.add_argument("--radius", type=float, default=None,
                   help="certified root-radius bound c")
    p.add_argument("--estimate-radius", action="store_true",
                   help="estimate c from the input graph (marks output heuristic)")

    p = sub.add_parser("limits", parents=[common, modely])
    p.add_argument("--family", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated, increasing")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-3)

    sub.add_parser("roots", parents=[common, graphy, modely])

    p = sub.add_parser("region-check", parents=[common, graphy, modely])
    p.add_argument("--eta", type=float, default=0.9)
    p.add_argument("--theta", type=float, default=None,
                   help="default: the critical angle")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=4,
                   help="degree bound for the model-membership check")

    sub.add_parser("constants", parents=[formatted])
    sub.add_parser("selftest")
    return parser


_COMMANDS = {
    "exact": _cmd_exact,
    "approx": _cmd_approx,
    "tutte": _cmd_tutte,
    "exptype": _cmd_exptype,
    "limits": _cmd_limits,
    "roots": _cmd_roots,
    "region-check": _cmd_region_check,
    "constants": _cmd_constants,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "budget" in vars(args):
            args.budget = _resolve_budget(args.budget)
        return _COMMANDS[args.command](args)
    except _ParseFailure as exc:
        sys.stderr.write(f"argument error: {exc}\n")
        return 3
    except GraphFormatError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 3
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except OutsideRegionError as exc:
        sys.stderr.write(f"outside certified region: {exc}\n")
        return 1
    except (ValueError, ArithmeticError, HolantError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
