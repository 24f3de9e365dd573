"""Exact-arithmetic cellular models for disk configurations in a strip.

The complexes, their rational homology, the wheel and filter generating
cycles, the basis theorems, the relation calculus with chain-level
witnesses, and the stability parameters all live in submodules; the names
most code needs are re-exported here.
"""

from .cells import (ORDERED, PERMUTOHEDRON, ComplexSpec, cell_complex,
                    format_cell, parse_cell, parse_weighted_set, permutohedron,
                    wheel_decomposition)
from .chains import (ChainVector, boundary, boundary_matrix, concat, is_cycle,
                     verify_boundary_squared)
from .cycles import (AvgFilter, Filter, GeneratorWord, Wheel,
                     WordSyntaxError, averaged_filter_cycle, filter_cycle,
                     format_word, parse_word, wheel_cycle, word_cycle)
from .maps import (averaged_inclusion_q, include_permutohedron, project_p,
                   spin, spin_sigma, spin_tau_sigma)
from .homology import (DEFAULT_MAX_CELLS, BoundaryAnswer, CertificateError,
                       ExpressResult, HomologyProfile, IsotypicProfile,
                       ResourceRefusal, betti_number, boundary_rank,
                       decomposition_check, estimate_cells, express,
                       homology_profile, is_boundary, isotypic_profile)
from .basis import (AM, AMW, BasisReport, basis_change, basis_cycle,
                    enumerate_basis, verify_basis)
from .algebra import (RelationInstance, StabilityParams, WordCombination, act,
                      barrier_decompose, count_barriers, generation_check,
                      higher_stability_params, properize, quotient_reduce,
                      r1_instance, r2_instance, r3_instance, r4_instance,
                      r5_closed_form, r5_instance, reduce, relation_instance,
                      stability_params)

__version__ = "0.1.0"

__all__ = [
    "ORDERED", "PERMUTOHEDRON", "ComplexSpec", "cell_complex", "permutohedron",
    "parse_cell", "format_cell", "parse_weighted_set", "wheel_decomposition",
    "ChainVector", "boundary", "boundary_matrix", "concat", "is_cycle",
    "verify_boundary_squared",
    "Wheel", "Filter", "AvgFilter", "GeneratorWord",
    "WordSyntaxError", "parse_word", "format_word", "wheel_cycle",
    "filter_cycle", "averaged_filter_cycle", "word_cycle",
    "spin", "spin_sigma", "spin_tau_sigma", "include_permutohedron",
    "averaged_inclusion_q", "project_p",
    "DEFAULT_MAX_CELLS", "ResourceRefusal", "CertificateError",
    "HomologyProfile", "IsotypicProfile", "BoundaryAnswer",
    "ExpressResult", "estimate_cells", "homology_profile", "betti_number",
    "boundary_rank", "isotypic_profile",
    "is_boundary", "express", "decomposition_check",
    "AM", "AMW", "BasisReport", "enumerate_basis", "basis_cycle",
    "verify_basis", "basis_change",
    "WordCombination", "RelationInstance", "StabilityParams", "properize",
    "act", "reduce", "relation_instance", "r1_instance", "r2_instance",
    "r3_instance", "r4_instance", "r5_instance", "r5_closed_form",
    "stability_params", "higher_stability_params", "generation_check",
    "quotient_reduce", "count_barriers", "barrier_decompose",
]
