"""Exact Groebner-basis toolkit for finite data sets over prime fields.

Decides whether the vanishing ideal of a finite set V in Z_p^n has a
unique reduced Groebner basis, enumerates all of its reduced bases,
classifies data sets by linear-shift equivalence, and applies the
machinery to model selection for finite dynamical systems.
"""

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyPointSet,
    EmptyStaircase,
    GbfanError,
    InconsistentMarking,
    ModulusMismatch,
    NotBasic,
    PolySyntaxError,
    SingularMatrix,
)
from .field import MatrixZp, is_prime, rank
from .poly import (
    GrevLexOrder,
    GrLexOrder,
    LexOrder,
    MarkedPolynomial,
    MonomialOrder,
    Polynomial,
    WeightOrder,
    compare,
    divides,
    evaluate,
    format_polynomial,
    normal_form,
    parse_polynomial,
)
from .points import (
    OrderIdealSet,
    PointSet,
    box_points,
    enumerate_order_ideals,
    evaluation_matrix,
    height,
    is_basic,
    is_staircase,
    layer,
)
from .shifts import (
    ClassificationReport,
    LinearShift,
    ShiftClass,
    all_shifts,
    apply_shift,
    apply_shift_to_polynomial,
    classify,
    detect_shift,
    find_staircase_shift,
    invert_shift,
    shift_orbit,
)
from .groebner import (
    AlgebraicFan,
    FanEntry,
    ReducedGroebnerBasis,
    all_reduced_gbs,
    bm_reduced_gb,
    fan_size,
    ideal_membership,
    is_unique_gb,
    transport_gb,
    universal_basis,
    verify_reduced_gb,
)
from .fds import (
    And,
    BooleanExpression,
    DataSet,
    FiniteDynamicalSystem,
    LAC_UPDATE_POLYNOMIALS,
    LAC_VARIABLES,
    ModelEnumeration,
    Not,
    Or,
    StateSpaceGraph,
    Var,
    apply_fds,
    boolean_to_poly,
    enumerate_models,
    lac_boolean_model,
    lac_fds,
    min_augmentation,
    model_select,
    select_models,
    state_space,
    weak_components,
)

__version__ = "0.1.0"
