"""SLOCC classification of pure n-qubit states by coefficient-matrix rank.

The pipeline: represent a state with exact amplitudes in Q(i, sqrt2),
reshape it into a coefficient matrix along any of the enumerated qubit
bipartitions, and take exact matrix ranks.  The resulting rank signature is
invariant under invertible local operators, so it sorts states into SLOCC
families; the library also verifies the underlying matrix identities by
randomized exact testing and reproduces the built-in four-qubit family
tables.
"""

from .classify import (
    CellReport,
    DickeScanRow,
    FamilySignature,
    TABLE_IDS,
    TableReport,
    classify_table,
    dicke_rank_scan,
    family_of,
    rank_signature,
)
from .coeffmatrix import (
    CoeffMatrix,
    IDENTITY,
    QubitPermutation,
    coefficient_matrix,
    enumerate_sigmas,
)
from .rank import (
    NumericFailure,
    RankResult,
    ShapeError,
    exact_det,
    exact_rank,
    numeric_rank,
    state_cuts,
)
from .scalar import (
    GaussRational,
    ParseError,
    Scalar,
    as_scalar,
    scalar_format,
    scalar_parse,
)
from .slocc import (
    LocalOperator,
    apply_local,
    kron_chain,
    load_operators,
    operators_from_json,
    operators_to_json,
    random_invertible_ops,
    random_local_ops,
    save_operators,
    verify_det_relation,
    verify_matrix_equation,
    verify_trials,
)
from .states import (
    MAX_QUBITS,
    PureState,
    StateFormatError,
    basis_state,
    dicke_state,
    family_state,
    ghz_state,
    ladder_state,
    load_state,
    save_state,
)

__version__ = "0.1.0"

__all__ = [
    "CellReport",
    "CoeffMatrix",
    "DickeScanRow",
    "FamilySignature",
    "GaussRational",
    "IDENTITY",
    "LocalOperator",
    "MAX_QUBITS",
    "NumericFailure",
    "ParseError",
    "PureState",
    "QubitPermutation",
    "RankResult",
    "Scalar",
    "ShapeError",
    "StateFormatError",
    "TABLE_IDS",
    "TableReport",
    "apply_local",
    "as_scalar",
    "basis_state",
    "classify_table",
    "coefficient_matrix",
    "dicke_rank_scan",
    "dicke_state",
    "enumerate_sigmas",
    "exact_det",
    "exact_rank",
    "family_of",
    "family_state",
    "ghz_state",
    "kron_chain",
    "ladder_state",
    "load_operators",
    "load_state",
    "numeric_rank",
    "operators_from_json",
    "operators_to_json",
    "random_invertible_ops",
    "random_local_ops",
    "rank_signature",
    "save_operators",
    "save_state",
    "scalar_format",
    "scalar_parse",
    "state_cuts",
    "verify_det_relation",
    "verify_matrix_equation",
    "verify_trials",
]
