"""Numerical verification toolkit for positive linear maps on M_n(C).

Constructs transposition, reduction, and the antisymmetric-unitary family
of unital maps; certifies spanning and strong spanning properties by
randomized span saturation; tests irreducibility through the commutant of
the range; and decomposes antisymmetric unitaries into their real
canonical form.
"""

from .antisym import (
    AntisymmetricUnitary,
    CanonicalForm,
    canonical_decompose,
    certify_antisymmetric_unitary,
    random_antisymmetric_unitary,
    u0,
)
from .commutant import CommutantResult, commutant_of_range, is_irreducible
from .errors import (
    BadDimension,
    DecompositionFailed,
    DimensionMismatch,
    DimensionTooSmall,
    EmptyFamily,
    InconsistentResult,
    NonpositiveState,
    NotAntisymmetricUnitary,
    NotHermitian,
    OddDimension,
    PairingFailed,
    ToolkitError,
    UnknownFamily,
)
from .matio import load_matrix, save_matrix
from .numlin import (
    DEFAULT_TOLS,
    SpanAccumulator,
    Tolerances,
    family_rank,
    hermitian_eig,
    make_rng,
    nullspace,
    random_haar_unitary,
    random_unit_vector,
)
from .posmap import (
    MapRep,
    PositivitySample,
    breuer_hall,
    choi,
    map_from_action,
    map_from_choi,
    positivity_sample_test,
    reduction_map,
    robertson_map,
    superop_from_choi,
    trace_map,
    transpose_map,
    unvec,
    vec,
)
from .reports import VerificationReport, exit_code, render_reports, render_text
from .witness import (
    SATURATION_WINDOW,
    SpanReport,
    dn_bound,
    dn_formula,
    estimate_M_dim,
    estimate_N_dim,
    kernel_of_state,
    paper_family,
    paper_family_pairs,
)

__version__ = "0.1.0"
