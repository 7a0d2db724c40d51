"""Symbolic-numeric verification of the exceptional point symmetry of a
quasi-linear residual family, its finite action on solutions, the weak
conditional symmetry of the hyperbolic rotation, and the closed-form
plasma-equilibrium solution family.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    LiesymError,
    OrderOverflowError,
    ParseError,
    ReductionError,
    SamplingError,
    SingularPointError,
    UnboundSymbolError,
    WorkerError,
)
from .expr import (
    EquivResult,
    Expr,
    Num,
    Power,
    Product,
    SampleSpec,
    Sum,
    Sym,
    add,
    as_expr,
    diff,
    equiv_numeric,
    eval_at,
    expand,
    is_zero,
    mul,
    num,
    pow_,
    simplify,
    substitute,
    sym,
    to_callable,
    to_text,
)
from .family import (
    NAMED_FIELDS,
    PRESETS,
    PDEInstance,
    SymmetryVerdict,
    build_instance,
    check_onshell_symmetry,
    exceptional_exponents,
    exceptional_vf,
    family_residual,
    gss_preset,
    onshell_remainder,
    rotation_like_vf,
    scaling_vf,
    symbolic_residual,
    y_translation_vf,
)
from .jets import (
    ConstraintSystem,
    ProlongedVF,
    SampledRemainder,
    VectorField,
    apply_prolonged,
    characteristic,
    prolong2,
    sample_remainder,
    total_derivative,
)
from .orbits import (
    ClosedFormSolution,
    GridSpec,
    RegionGeometry,
    ResidualField,
    base_solution,
    conformal_factor,
    family_expr,
    family_solution,
    generator_remainder,
    map_point,
    map_point_exprs,
    region,
    residual_grid,
    sample_in_region,
    scaling_invariance_residual,
    solution_residual,
    symbolic_family_residual,
    transform_solution,
)
from .parsing import parse
from .reduction import (
    WeakCSReport,
    auxiliary_constraint,
    candidate_profile,
    invariance_condition,
    reduce_residual,
    reduce_to_invariant,
    restricted_eval,
    split_by_x2,
    symbolic_auxiliary,
    symbolic_invariance_remainder,
    symbolic_reduction,
    verify_ode,
    weak_cs_report,
)
