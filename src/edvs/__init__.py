"""Domain-decomposition solving on derived vector spaces.

The original sparse system is lifted into a derived space with one unknown
per (node, subdomain) incidence.  There the interior operator is exactly
block-diagonal by subdomain; the interface problem is solved by a
Krylov iteration on the continuous subspace, on interface-node values, and
the solution is checked by its residual in the original system.
"""

from .derived import (
    DerivedSpace,
    build_derived_space,
    inject,
    inner_derived,
    inner_original,
    is_dual,
    project_continuous,
    project_zero_average,
    retract,
)
from .dual import (
    DualOperator,
    apply_block,
    apply_dual,
    build_dual_operator,
)
from .exceptions import (
    ConfigError,
    ContinuityError,
    ConvergenceError,
    EdvsError,
    InconsistentSystemError,
    InvalidSplitError,
    LocalityError,
    MatrixFormatError,
    PartitionError,
    SingularInteriorError,
)
from .ingest import (
    DecompositionMap,
    OriginalMatrix,
    ProblemInstance,
    generate_box_partition,
    generate_poisson_1d,
    generate_poisson_2d,
    load_matrix,
    load_partition,
    load_vector,
    validate_locality,
    write_matrix,
    write_partition,
    write_vector,
)
from .schur import (
    BlockInverse,
    IndexSplit,
    NullSpaceBasis,
    block_pseudo_inverse,
    null_space,
    pseudo_inverse_apply,
    schur_complement,
    solve_via_schur,
)
from .solver import (
    SolveConfig,
    SolveReport,
    apply_interface_operator,
    back_substitute,
    factor_interior,
    setup_solver,
    solve_dvs,
    solve_interface,
    verify_solution,
)

__version__ = "0.1.0"
