"""Exact computations for cyclotomic Hecke algebras of type G(r,p,n).

Schur elements, seminormal representations, structural element identities,
and splittable decomposition numbers, all in exact cyclotomic arithmetic.
"""

from .combin import (
    Multipartition,
    check_composition,
    class_reps,
    compositions,
    enumerate_all,
    enumerate_pdb,
)
from .decomp import (
    ClassSums,
    DecompTable,
    DimReport,
    InputDataError,
    NonConstantRatioError,
    NonSplittableError,
    SplitResult,
    UnknownLabelError,
    assemble_matrix,
    cyclic_reindex,
    d_product,
    dim_report,
    orbit_sum_bound,
    reduce_matrix,
    relations_oracle,
    semisimple_table,
    split_by_formula,
    splittable_number,
)
from .elements import (
    TraceCheck,
    VerificationError,
    flam_eigen_oracle,
    trace_vbtb,
    vbtb_trace_closed,
    verify_changing,
    verify_comparison,
    verify_pleftmult,
)
from .exactnum import (
    CycRat,
    GenericField,
    LaurentPoly,
    PoleError,
    RatFunc,
    SpecPoint,
    eps_pow,
    generic_field,
    is_separated,
    is_semisimple,
    sample_point,
)
from .scalars import (
    f_lambda_closed,
    g_lambda,
    schur_element,
    schur_element_b,
    verify_factorization,
)
from .seminormal import (
    build_rep,
    character,
    check_relations,
    element_equal,
    mode_fields,
)
from .tableau import StandardTableau, count_std, enumerate_std

__version__ = "0.1.0"
