"""Exact and certified-approximate evaluation of edge-coloring sums.

Multigraphs carry local weight systems on color-count vectors; summing the
product of vertex weights over all edge colorings gives the central
quantity.  The package provides exact contraction engines, a certified Taylor
scheme valid near the all-ones system, partition-indexed graph polynomials
(random-cluster and chromatic included), transfer matrices for cycles, and
a command-line front end.
"""

from .errors import (BudgetExceededError, DecompositionError, GraphFormatError,
                     HolantError, OutsideRegionError, RootFindingError)
from .graphs import (GraphFamilySpec, Multigraph, component_count,
                     connected_subsets, edges_touching, generate,
                     induced_subgraph, parse_edge_list, read_edge_list,
                     write_edge_list)
from .models import (EdgeColoringModel, RegionParams, TensorAssignment,
                     VertexModel, all_ones, apply_orthogonal, load_model,
                     model_from_predicate, perturbed_ones, random_orthogonal,
                     rank_one_model, save_model, symmetric_decompose,
                     values_in_region, vertex_to_edge)
from .exact import (ComplexPoly, RestrictedSpec, contract_network,
                    exact_partition, exact_poly_by_interpolation, poly_roots,
                    restricted_partition)
from .approx import (ApproxCertificate, ZeroFreeConstants, ZeroFreeReport,
                     approx_partition, certified_radius,
                     cluster_log_derivatives, magnitude_lower_bound,
                     q_derivative, sample_region_model, taylor_error_bound,
                     taylor_order, verify_zero_free, zero_free_constants)
from .exptype import (ExpTypeSpec, chi_k_coefficients, chi_tutte,
                      chromatic_spec, estimate_root_radius, eval_exp_type,
                      exp_type_poly, qhat_derivative, tutte_direct,
                      tutte_spec)
from .limits import (ConvergenceReport, convergence_run, cycle_transfer_matrix,
                     cycle_transfer_pf, log_potential_check, normalized_pf,
                     transfer_log_growth)

__version__ = "0.1.0"

__all__ = [
    "ApproxCertificate", "BudgetExceededError", "ComplexPoly",
    "ConvergenceReport", "DecompositionError", "EdgeColoringModel",
    "ExpTypeSpec", "GraphFamilySpec", "GraphFormatError", "HolantError",
    "Multigraph", "OutsideRegionError", "RegionParams", "RestrictedSpec",
    "RootFindingError", "TensorAssignment", "VertexModel", "ZeroFreeConstants",
    "ZeroFreeReport", "all_ones", "apply_orthogonal", "approx_partition",
    "certified_radius", "chi_k_coefficients", "chi_tutte", "chromatic_spec",
    "cluster_log_derivatives", "component_count", "connected_subsets",
    "contract_network", "convergence_run", "cycle_transfer_matrix",
    "cycle_transfer_pf", "edges_touching", "estimate_root_radius",
    "eval_exp_type", "exact_partition", "exact_poly_by_interpolation",
    "exp_type_poly", "generate", "induced_subgraph", "load_model",
    "log_potential_check", "magnitude_lower_bound", "model_from_predicate",
    "normalized_pf", "parse_edge_list", "perturbed_ones", "poly_roots",
    "q_derivative", "random_orthogonal", "rank_one_model", "read_edge_list",
    "restricted_partition", "sample_region_model", "save_model",
    "symmetric_decompose", "taylor_error_bound", "taylor_order",
    "transfer_log_growth", "tutte_direct", "tutte_spec", "values_in_region",
    "verify_zero_free", "vertex_to_edge", "write_edge_list",
    "zero_free_constants",
]
