"""Workbench for filter bases with prescribed partial-sum norms.

The package builds rebuilt basis systems in the sequence spaces whose
stage-n projection norms hit prescribed targets, decides admissibility
of target sequences for concrete free filters, and produces verifiable
witnesses or separators for every claim that has a finite certificate.

Every name below is importable from the package (``from fbasis import
build_basis``), but each one's submodule is imported only when the name
is first asked for, so that ``import fbasis.cli`` compiles no engine its
subcommand does not run.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {name: module for module, names in {
    "natset": "CoFinite Complement DensityVerdict Finite GeometricIndex HorizonExceeded "
              "Intersection NATURALS Range Residue Sampled SetConstructionError SetExpr "
              "Shifted SumVerdict Union canonicalize enumerate_prefix member natural_density",
    "sequences": "Constant DomainError ExplicitPrefix Piecewise PowerLog ScalarSeq "
                 "SeqConstructionError SpikeSeq eval_at seq_pow seq_scale threshold_ge",
    "series": "sum_inverse_p_verdict weight_sum",
    "filters": "DominationVerdict FilterSpec Frechet LimitVerdict NotStationary SetClass "
               "Statistical Summable Trace classify_set dominates f_limit_scalar trace_filter",
    "admissibility": "AdmissVerdict BandReport NotDivergent admissibility_band "
                     "associated_summable_filter check_admissible nonadmissibility_witness "
                     "slow_certificate",
    "witnesses": "CriterionHolds GreedyBlockSet SparseThresholdSet",
    "lp_operators": "DimensionMismatch NormReport SpaceKind TailOp apply l1 l2 lp op_norm "
                    "remainder_norm solve_b_next",
    "oracles": "op_norm_bruteforce",
    "basis_builder": "BasisSystem ConvergenceReport NotAdmissible build_basis "
                     "convergence_demo defect_report verify_biorthogonality",
    "separation": "ClusterNotFound ClusterWitness NotSeparable SeparatorSpec cluster_witness "
                  "lemma1_profile lift_functionals_to_operators plank_separator",
    "vectors": "BasisVector PowerTail Spike TestVector",
    "parsing": "ParseError parse_filter parse_scalar_seq parse_set_expr parse_test_vector",
    "reports": "emit_report",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, imported from its submodule on first use (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _EXPORTS[name], __name__)
    value = globals()[name] = getattr(module, name)
    return value
