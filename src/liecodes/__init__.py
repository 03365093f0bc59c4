"""Binary and ternary weight codes of simple Lie algebra modules.

Exact construction of the generator matrices, packed-word exhaustive code
analysis over F2 and F3, and a verification suite for every published code
parameter, orthogonality claim and numeric weight table.
"""

from .fieldcodes import (
    CodeReport,
    EmptyCodeError,
    FpMatrix,
    LinearCode,
    analyze,
    combination_weight,
    dual_code,
    format_matrix_text,
    min_distance,
    parse_matrix_text,
    row_space_code,
    rref,
    weight_distribution,
)
from .rootsys import (
    CartanMatrix,
    cartan_matrix,
    pairing_vector,
    positive_roots,
    reflect_coroot_coeffs,
    weyl_orbit,
)
from .repweights import (
    FIXTURE_NAMES,
    ModuleSpec,
    WeightMatrix,
    adjoint_weight_matrix_A,
    build_weight_matrix,
    d_adjoint_spin_matrix,
    d_lambda2_matrix,
    d_lambda3_matrix,
    d_spin_matrix,
    exceptional_adjoint_matrix,
    exceptional_minimal_matrix,
    ext_weight_matrix_A,
    fixture_matrix,
    to_cartan_h,
)
from .verify import (
    Annotation,
    BranchCheck,
    CaseResult,
    SuiteReport,
    TableRow,
    TheoremCase,
    VerifyLimits,
    branch_equivalences,
    closed_form_weight,
    registered_cases,
    reproduce_table,
    run_case,
    run_suite,
    weyl_invariance_violations,
)

__version__ = "0.1.0"
