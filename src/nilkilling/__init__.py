"""Left-invariant Killing forms on metric 2-step nilpotent Lie algebras."""

from .algebra import (
    AdaptedFrame,
    MetricLieAlgebra,
    ValidationReport,
    adapted_frame,
    j_trace_form,
    levi_civita,
    nabla_matrix,
    validate,
)
from .catalog import (
    CatalogEntry,
    classification_lists,
    complex_heisenberg,
    direct_sum,
    euclidean,
    free_two_step_3,
    heisenberg,
)
from .forms import (
    Form,
    bigrade,
    contract,
    lie_diff,
    nabla_form,
    oneform,
    skew_extend,
    transform,
    wedge,
)
from .killing import (
    KillingSpace,
    is_parallel,
    killgen_residuals,
    killing_nullspace_brute,
    killing_residual,
    structured_killing,
)
from .structure import (
    Decomposition,
    FactorReport,
    decompose,
    find_complex_structure,
    killing_dimensions,
    naturally_reductive_type,
)

__all__ = [
    "AdaptedFrame",
    "CatalogEntry",
    "Decomposition",
    "FactorReport",
    "Form",
    "KillingSpace",
    "MetricLieAlgebra",
    "ValidationReport",
    "adapted_frame",
    "bigrade",
    "classification_lists",
    "complex_heisenberg",
    "contract",
    "decompose",
    "direct_sum",
    "euclidean",
    "find_complex_structure",
    "free_two_step_3",
    "heisenberg",
    "is_parallel",
    "j_trace_form",
    "killgen_residuals",
    "killing_dimensions",
    "killing_nullspace_brute",
    "killing_residual",
    "levi_civita",
    "lie_diff",
    "nabla_form",
    "nabla_matrix",
    "naturally_reductive_type",
    "oneform",
    "skew_extend",
    "structured_killing",
    "transform",
    "validate",
    "wedge",
]

__version__ = "0.1.0"
