"""Identifiability checks, synthetic noise generation, and moment-based
recovery for label-noise transition matrices."""

from .matrices import (
    ObsMatrix,
    Prior,
    Scenario,
    TransitionMatrix,
    align_permutation,
    kruskal_rank,
)
from .identifiability import (
    IdentifiabilityReport,
    ObservationModel,
    check_generic,
    check_group_features,
    check_instance_three_labels,
    check_kruskal_sum,
    check_unknown_groups,
    is_informative_label,
)

__all__ = [
    "ObsMatrix",
    "Prior",
    "Scenario",
    "TransitionMatrix",
    "align_permutation",
    "kruskal_rank",
    "IdentifiabilityReport",
    "ObservationModel",
    "check_generic",
    "check_group_features",
    "check_instance_three_labels",
    "check_kruskal_sum",
    "check_unknown_groups",
    "is_informative_label",
]

__version__ = "0.1.0"
