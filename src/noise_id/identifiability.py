"""Identifiability conditions as boolean-with-evidence checks.

Each check returns an :class:`IdentifiabilityReport` whose verdict is
``identifiable`` exactly when ``lhs >= rhs``. All conditions here are
sufficient only, so a failed check reads ``not_guaranteed`` rather than
"not identifiable"; necessity is only known for the three-i.i.d.-label
instance setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .matrices import (
    DEFAULT_TOL,
    ObsMatrix,
    TransitionMatrix,
    kruskal_rank,
    numerical_rank,
)

IDENTIFIABLE = "identifiable"
NOT_GUARANTEED = "not_guaranteed"


@dataclass(frozen=True)
class ObservationModel:
    """Ordered list of observation matrices over a shared hidden space.

    Noisy labels and discrete features are both observed variables; a
    transition matrix enters as an ObsMatrix with kappa = K.
    """

    models: tuple
    K: int

    def __post_init__(self):
        models = tuple(
            m if isinstance(m, ObsMatrix) else ObsMatrix(np.asarray(m, dtype=float))
            for m in self.models
        )
        if not models:
            raise ValidationError("observation model needs at least one matrix")
        for i, m in enumerate(models):
            if m.K != self.K:
                raise DimensionError(
                    f"model {i} has {m.K} rows, expected K={self.K}"
                )
        object.__setattr__(self, "models", models)

    @property
    def p(self) -> int:
        return len(self.models)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(m.kappa for m in self.models)


@dataclass(frozen=True)
class IdentifiabilityReport:
    condition_name: str
    lhs: int
    rhs: int
    per_model_kruskal: tuple[int, ...]
    verdict: str
    notes: str = ""

    def __post_init__(self):
        expected = IDENTIFIABLE if self.lhs >= self.rhs else NOT_GUARANTEED
        if self.verdict != expected:
            raise ValidationError("verdict must equal (lhs >= rhs)")

    def to_dict(self) -> dict:
        return {
            "condition_name": self.condition_name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "per_model_kruskal": list(self.per_model_kruskal),
            "verdict": self.verdict,
            "notes": self.notes,
        }


def _report(name, lhs, rhs, kruskals, notes):
    verdict = IDENTIFIABLE if lhs >= rhs else NOT_GUARANTEED
    return IdentifiabilityReport(name, int(lhs), int(rhs), tuple(kruskals), verdict, notes)


def check_kruskal_sum(obs: ObservationModel, tol: float = DEFAULT_TOL) -> IdentifiabilityReport:
    """Sum-of-Kruskal-ranks condition: sum Kr(M_i) >= 2K + p - 1.

    Sufficient for identifiability of the hidden-state model up to label
    permutation.
    """
    kruskals = [kruskal_rank(m, tol) for m in obs.models]
    lhs = sum(kruskals)
    rhs = 2 * obs.K + obs.p - 1
    notes = (
        f"sum of Kruskal ranks {lhs} vs threshold 2K+p-1 = {rhs} "
        f"(K={obs.K}, p={obs.p}). Condition is sufficient, not necessary."
    )
    return _report("kruskal_sum", lhs, rhs, kruskals, notes)


def is_informative_label(T: TransitionMatrix, tol: float = DEFAULT_TOL) -> bool:
    """A noisy label is informative iff its transition matrix has full rank."""
    return numerical_rank(T, tol) == T.K


def check_instance_three_labels(
    T: TransitionMatrix, tol: float = DEFAULT_TOL
) -> IdentifiabilityReport:
    """Three i.i.d. noisy labels drawn through T: M_1 = M_2 = M_3 = T.

    Identifiable iff T is full rank (then each Kruskal rank is K and
    3K >= 2K + 2). For this setting full rank is also necessary.
    """
    K = T.K
    if is_informative_label(T, tol):
        kr = K
    else:
        kr = kruskal_rank(T, tol)
    lhs, rhs = 3 * kr, 2 * K + 2
    notes = (
        f"three i.i.d. labels share M_i = T; Kr(T) = {kr}, "
        f"sum 3*{kr} = {lhs} vs 2K+2 = {rhs}. "
        "In this setting the full-rank condition is both sufficient and necessary."
    )
    return _report("instance_three_labels", lhs, rhs, [kr, kr, kr], notes)


def is_informative_feature(M: ObsMatrix, tol: float = DEFAULT_TOL) -> bool:
    """A feature is informative iff its observation matrix has Kruskal rank >= 2."""
    return kruskal_rank(M, tol) >= 2


def check_group_features(
    T: TransitionMatrix, features: ObservationModel, tol: float = DEFAULT_TOL
) -> IdentifiabilityReport:
    """Single noisy label plus disentangled features for one group.

    Counts informative features d* (Kruskal rank >= 2) and applies the
    guaranteed lower bound Kr(T) + 2*d* >= 2K + d*. With full-rank T
    (Kr(T) = K for a square matrix iff it is full rank) this reduces to the
    d* >= K threshold. The bound under-counts features with Kruskal rank
    above 2, so the raw stacked sum can identify configurations this check
    reports as not_guaranteed; the notes point to the stack check for that.
    """
    if T.K != features.K:
        raise DimensionError(f"T has K={T.K} but features have K={features.K}")
    kruskals = [kruskal_rank(m, tol) for m in features.models]
    d_star = sum(1 for kr in kruskals if kr >= 2)
    kr_T = kruskal_rank(T, tol)
    t_info = is_informative_label(T, tol)
    lhs = kr_T + 2 * d_star
    rhs = 2 * T.K + d_star
    notes = (
        f"informative features d* = {d_star} (threshold d* >= K = {T.K}); "
        f"Kr(T) = {kr_T}, T informative: {t_info}. Guaranteed bound "
        f"Kr(T) + 2*d* = {lhs} vs 2K + d* = {rhs}. Features with Kruskal "
        f"rank above 2 are under-counted here; run the sum condition on the "
        f"full stack for the sharper test."
    )
    return _report("group_features", lhs, rhs, [kr_T] + kruskals, notes)


def check_unknown_groups(num_groups: int, K: int, d_star: int) -> IdentifiabilityReport:
    """Hidden group membership: features observed over the product space G x Y.

    Identifiable when d* >= 2|G|K - 1; the proof arithmetic only uses
    Kr(T) >= 1 over the combined hidden space of size |G|K.
    """
    if num_groups < 1 or K < 2 or d_star < 0:
        raise ValidationError("need num_groups >= 1, K >= 2, d_star >= 0")
    lhs = d_star
    rhs = 2 * num_groups * K - 1
    notes = (
        f"combined hidden space size |G|K = {num_groups * K}; "
        f"Kr(T) + sum Kr(M_i) >= 1 + 2*d* >= 2|G|K + (d*+1) - 1 requires "
        f"d* >= 2|G|K - 1 = {rhs}; got d* = {d_star}. Unlike the known-group "
        f"check, this arithmetic only assumes Kr(T) >= 1."
    )
    return _report("unknown_groups", lhs, rhs, [], notes)


def _best_split(K, cards):
    """(min(K, tau1) + min(K, tau2) + K, group 1) for a split of the features
    into two nonempty groups that maximizes the sum, tau being the product of
    a group's cardinalities.

    A dynamic programme over the states (min(cap, tau1), min(cap, tau2)),
    cap = max(K, 2): each feature in turn joins one side, feature 0 joins
    group 1 (the sum is symmetric in the sides), and a side is empty exactly
    while its state is 1, since every cardinality is >= 2. Each state keeps
    the first group 1 (a bit mask) that reached it; O(d* cap^2) in all.
    """
    cap = max(K, 2)
    states = {(min(cap, cards[0]), 1): 1}
    for j, c in enumerate(cards[1:], 1):
        nxt = {}
        for (a, b), mask in states.items():
            nxt.setdefault((a, min(cap, b * c)), mask)
            nxt.setdefault((min(cap, a * c), b), mask | 1 << j)
        states = nxt
    score, mask = max(
        ((min(K, a) + min(K, b) + K, mask) for (a, b), mask in states.items() if b > 1),
        key=lambda sm: sm[0],
    )
    return score, [i for i in range(len(cards)) if mask >> i & 1]


def check_generic(K: int, cardinalities) -> IdentifiabilityReport:
    """Generic identifiability via two meta-features plus the noisy label.

    Splits the features into two groups with multiplied outcome spaces
    (tau* = prod kappa_i) and checks
    min(K, tau1) + min(K, tau2) + min(K, K) >= 2K + 2 for the best two-way
    split (found by `_best_split` in O(d* K^2)); also requires
    d* >= ceil(log2((K+2)/2)). The even split from the generic-identifiability
    argument is not always optimal under uneven cardinalities, so the
    grouping choice matters and is surfaced in the notes.
    """
    cards = [int(c) for c in cardinalities]
    if any(c < 2 for c in cards):
        raise ValidationError("every feature cardinality must be >= 2")
    d_star = len(cards)
    d_threshold = math.ceil(math.log2((K + 2) / 2))
    name = "generic"

    if d_star == 0:
        return _report(name, 0, 2 * K + 2, [], "no features available")
    if d_star == 1:
        # Cannot form two feature meta-groups; with K = 2 the stated
        # threshold d* >= 1 still applies, filling the second slot with the
        # noisy label itself. Reported with a caveat since the label is then
        # used twice.
        lhs = min(K, cards[0]) + min(K, K) + min(K, K)
        rhs = 2 * K + 2
        if K > 2:
            return _report(
                name,
                0,
                rhs,
                [],
                f"fewer than 2 features with K = {K} > 2: cannot form the "
                f"two meta-features required by the three-observation condition",
            )
        notes = (
            f"single feature: slots (M_1, T, T) give "
            f"min(K,{cards[0]}) + 2*min(K,K) = {lhs} vs {rhs}; "
            f"d* = 1 >= ceil(log2((K+2)/2)) = {d_threshold}. Caveat: the noisy "
            f"label fills both remaining slots."
        )
        if d_star < d_threshold:
            lhs = 0
        return _report(name, lhs, rhs, [], notes)

    score, g1 = _best_split(K, cards)
    tau1 = math.prod(cards[i] for i in g1)
    tau2 = math.prod(cards[i] for i in range(d_star) if i not in g1)
    rhs = 2 * K + 2
    lhs = score if d_star >= d_threshold else 0
    notes = (
        f"best split: group 1 = features {g1} (tau* = {tau1}), group 2 has "
        f"tau* = {tau2}; min-sum {score} vs 2K+2 = {rhs}. "
        f"d* = {d_star} vs threshold ceil(log2((K+2)/2)) = {d_threshold}. "
        f"Grouping choice matters: the sum is reported for the maximizing split."
    )
    if d_star < d_threshold:
        notes += " Feature-count threshold failed, so the verdict is not_guaranteed."
    return _report(name, lhs, rhs, [], notes)
