"""Workbench for filter bases with prescribed partial-sum norms.

The package builds rebuilt basis systems in the sequence spaces whose
stage-n projection norms hit prescribed targets, decides admissibility
of target sequences for concrete free filters, and produces verifiable
witnesses or separators for every claim that has a finite certificate.
"""

from .natset import (
    CoFinite,
    Complement,
    DensityVerdict,
    Finite,
    GeometricIndex,
    HorizonExceeded,
    Intersection,
    NATURALS,
    Range,
    Residue,
    Sampled,
    SetConstructionError,
    SetExpr,
    Shifted,
    SumVerdict,
    Union,
    canonicalize,
    enumerate_prefix,
    member,
    natural_density,
)
from .sequences import (
    Constant,
    DomainError,
    ExplicitPrefix,
    Piecewise,
    PowerLog,
    ScalarSeq,
    SeqConstructionError,
    SpikeSeq,
    eval_at,
    seq_pow,
    seq_scale,
    threshold_ge,
)
from .series import sum_inverse_p_verdict, weight_sum
from .filters import (
    DominationVerdict,
    FilterSpec,
    Frechet,
    LimitVerdict,
    NotStationary,
    SetClass,
    Statistical,
    Summable,
    Trace,
    classify_set,
    dominates,
    f_limit_scalar,
    trace_filter,
)
from .admissibility import (
    AdmissVerdict,
    BandReport,
    NotDivergent,
    admissibility_band,
    associated_summable_filter,
    check_admissible,
    nonadmissibility_witness,
    slow_certificate,
)
from .witnesses import CriterionHolds, GreedyBlockSet, SparseThresholdSet
from .lp_operators import (
    DimensionMismatch,
    NormReport,
    SpaceKind,
    TailOp,
    apply,
    l1,
    l2,
    lp,
    op_norm,
    remainder_norm,
    solve_b_next,
)
from .oracles import op_norm_bruteforce
from .basis_builder import (
    BasisSystem,
    ConvergenceReport,
    NotAdmissible,
    build_basis,
    convergence_demo,
    defect_report,
    verify_biorthogonality,
)
from .separation import (
    ClusterNotFound,
    ClusterWitness,
    NotSeparable,
    SeparatorSpec,
    cluster_witness,
    lemma1_profile,
    lift_functionals_to_operators,
    plank_separator,
)
from .vectors import BasisVector, PowerTail, Spike, TestVector
from .parsing import ParseError, parse_filter, parse_scalar_seq, parse_set_expr, parse_test_vector
from .reports import emit_report

__version__ = "0.1.0"
