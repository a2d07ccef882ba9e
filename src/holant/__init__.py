"""Deterministic approximation of Holant partition functions.

Holant problems sum, over all {0,1} edge assignments of a graph, the
product of per-vertex symmetric constraint values; matchings, perfect
matchings, edge covers, and even subgraphs are all instances.  For
non-negative signatures satisfying a generalized second-order recurrence
this package classifies the signature, finds a stabilizing orthogonal
holographic transform when one exists, and evaluates the partition
function through the zero-free-region Taylor-truncation method, with an
exact oracle and gadget utilities alongside.
"""

from .classify import (
    ClassificationOutcome,
    classify,
    detect_exceptional,
    pm_canonical_form,
    sine_profile,
)
from .coeffs import (
    PowerSums,
    additive_power_sums,
    coeffs_from_power_sums,
    naive_low_coeffs,
    power_sums_from_coeffs,
)
from .errors import (
    ArgumentError,
    AsymmetricGadget,
    CastError,
    ExceptionalSignature,
    GuardExceeded,
    HolantError,
    InconsistentRecurrence,
)
from .evaluator import ApproxResult, approximate_Z, build_phi, compose_prefix, taylor_log_eval
from .graphs import (
    Multigraph,
    OpenGadget,
    brute_force_Z,
    brute_force_coeffs,
    complete,
    compose_gadget,
    cycle,
    disjoint_union,
    petersen,
    random_regular,
)
from .signatures import (
    RecurrenceTriple,
    SymmetricSignature,
    TensorDecomposition,
    detect_recurrence,
    local_polynomial,
    normalize_leading,
    reverse,
    signature,
    tensor_decompose,
)
from .stability import (
    Poly,
    StabilityCertificate,
    find_roots,
    h_eps_stability,
    strip_halfwidth,
    verify_strip_zero_free,
)
from .transform import (
    BinarySignature,
    Matrix2,
    apply_holographic,
    cast_real,
    find_stabilizing_transform,
    rotation_from_w,
    transform_equality,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "ArgumentError",
    "AsymmetricGadget",
    "BinarySignature",
    "CastError",
    "ClassificationOutcome",
    "ExceptionalSignature",
    "GuardExceeded",
    "HolantError",
    "InconsistentRecurrence",
    "Matrix2",
    "Multigraph",
    "OpenGadget",
    "Poly",
    "PowerSums",
    "RecurrenceTriple",
    "StabilityCertificate",
    "SymmetricSignature",
    "TensorDecomposition",
    "additive_power_sums",
    "apply_holographic",
    "approximate_Z",
    "brute_force_Z",
    "brute_force_coeffs",
    "build_phi",
    "cast_real",
    "classify",
    "coeffs_from_power_sums",
    "complete",
    "compose_gadget",
    "compose_prefix",
    "cycle",
    "detect_exceptional",
    "detect_recurrence",
    "disjoint_union",
    "find_roots",
    "find_stabilizing_transform",
    "h_eps_stability",
    "local_polynomial",
    "naive_low_coeffs",
    "normalize_leading",
    "petersen",
    "pm_canonical_form",
    "power_sums_from_coeffs",
    "random_regular",
    "reverse",
    "rotation_from_w",
    "signature",
    "sine_profile",
    "strip_halfwidth",
    "taylor_log_eval",
    "tensor_decompose",
    "transform_equality",
    "verify_strip_zero_free",
]
