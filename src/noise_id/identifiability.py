"""Identifiability conditions as boolean-with-evidence checks.

Every check is Kruskal's condition, sum Kr(M_i) >= 2K + p - 1 over p
conditionally independent views of K hidden states, written once in
:func:`kruskal_condition`; the checks differ only in the views and the
Kruskal ranks they pass to it (three labels, a label plus features,
meta-features). Ranks come from :func:`matrices.kruskal_rank`, with the one
tolerance ``matrices.RANK_TOL``.

Each check returns an :class:`IdentifiabilityReport` whose verdict is
``identifiable`` exactly when ``lhs >= rhs``. All conditions here are
sufficient only, so a failed check reads ``not_guaranteed`` rather than
"not identifiable"; necessity is only known for the three-i.i.d.-label
instance setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionError, ValidationError
from .matrices import ObsMatrix, TransitionMatrix, _independent, kruskal_rank

IDENTIFIABLE = "identifiable"
NOT_GUARANTEED = "not_guaranteed"


@dataclass(frozen=True)
class ObservationModel:
    """Ordered list of observation matrices over a shared hidden space of K
    states, K being their common row count.

    Noisy labels and discrete features are both observed variables; a
    TransitionMatrix is an ObsMatrix with kappa = K and enters as it is.
    """

    models: tuple

    def __post_init__(self):
        models = tuple(m if isinstance(m, ObsMatrix) else ObsMatrix(m) for m in self.models)
        if not models:
            raise ValidationError("observation model needs at least one matrix")
        rows = [m.K for m in models]
        if len(set(rows)) > 1:
            raise DimensionError(f"observation matrices must share one row count, got {rows}")
        object.__setattr__(self, "models", models)

    @property
    def K(self) -> int:
        return self.models[0].K

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
    notes: str = ""

    @property
    def verdict(self) -> str:
        return IDENTIFIABLE if self.lhs >= self.rhs else NOT_GUARANTEED

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
    return IdentifiabilityReport(name, int(lhs), int(rhs), tuple(kruskals), notes)


def kruskal_condition(K: int, ranks) -> tuple[int, int]:
    """Kruskal's condition over len(ranks) conditionally independent views of
    K hidden states, with Kruskal ranks `ranks`: (sum of the ranks,
    2K + p - 1). The views identify the model, up to a relabelling of the
    hidden states, when the first reaches the second."""
    return sum(ranks), 2 * K + len(ranks) - 1


def check_kruskal_sum(obs: ObservationModel) -> IdentifiabilityReport:
    """Sum-of-Kruskal-ranks condition: sum Kr(M_i) >= 2K + p - 1.

    Sufficient for identifiability of the hidden-state model up to label
    permutation.
    """
    kruskals = [kruskal_rank(m) for m in obs.models]
    lhs, rhs = kruskal_condition(obs.K, kruskals)
    notes = (
        f"sum of Kruskal ranks {lhs} vs threshold 2K+p-1 = {rhs} "
        f"(K={obs.K}, p={obs.p}). Condition is sufficient, not necessary."
    )
    return _report("kruskal_sum", lhs, rhs, kruskals, notes)


def is_informative_label(T: TransitionMatrix) -> bool:
    """A noisy label is informative iff its transition matrix has full rank:
    its rows are independent under the one test of `kruskal_rank`."""
    return _independent(T.entries)


def check_instance_three_labels(T: TransitionMatrix) -> IdentifiabilityReport:
    """Three i.i.d. noisy labels drawn through T: M_1 = M_2 = M_3 = T.

    Identifiable iff T is full rank (then each Kruskal rank is K and
    3K >= 2K + 2). For this setting full rank is also necessary.
    """
    kr = kruskal_rank(T)
    lhs, rhs = kruskal_condition(T.K, [kr] * 3)
    notes = (
        f"three i.i.d. labels share M_i = T; Kr(T) = {kr}, "
        f"sum 3*{kr} = {lhs} vs 2K+2 = {rhs}. "
        "In this setting the full-rank condition is both sufficient and necessary."
    )
    return _report("instance_three_labels", lhs, rhs, [kr, kr, kr], notes)


def check_group_features(
    T: TransitionMatrix, features: ObservationModel
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
    kruskals = [kruskal_rank(m) for m in features.models]
    d_star = sum(1 for kr in kruskals if kr >= 2)
    kr_T = kruskal_rank(T)
    lhs, rhs = kruskal_condition(T.K, [kr_T] + [2] * d_star)
    notes = (
        f"informative features d* = {d_star} (threshold d* >= K = {T.K}); "
        f"Kr(T) = {kr_T}, T informative: {kr_T == T.K}. Guaranteed bound "
        f"Kr(T) + 2*d* = {lhs} vs 2K + d* = {rhs}. Features with Kruskal "
        f"rank above 2 are under-counted here; run the sum condition on the "
        f"full stack for the sharper test."
    )
    return _report("group_features", lhs, rhs, [kr_T] + kruskals, notes)


def check_unknown_groups(num_groups: int, K: int, d_star: int) -> IdentifiabilityReport:
    """Hidden group membership: features observed over the product space G x Y.

    Kruskal's condition over |G|K hidden states, with Kr(T) >= 1 and each
    of the d* features at Kruskal rank >= 2, solved for d*: every feature
    adds 2 to the sum and 1 to the threshold, so the condition holds when
    d* >= 2|G|K - 1, the gap it leaves with no features.
    """
    if num_groups < 1 or K < 2 or d_star < 0:
        raise ValidationError("need num_groups >= 1, K >= 2, d_star >= 0")
    lhs, rhs = kruskal_condition(num_groups * K, [1])
    gap = rhs - lhs
    notes = (
        f"combined hidden space size |G|K = {num_groups * K}; "
        f"Kr(T) + sum Kr(M_i) >= 1 + 2*d* >= 2|G|K + (d*+1) - 1 requires "
        f"d* >= 2|G|K - 1 = {gap}; got d* = {d_star}. Unlike the known-group "
        f"check, this arithmetic only assumes Kr(T) >= 1."
    )
    return _report("unknown_groups", d_star, gap, [], notes)


def _best_split(K, cards):
    """Group 1 (feature indices) of a split of the features into two
    nonempty groups that maximizes min(K, tau1) + min(K, tau2), tau being
    the product of a group's cardinalities.

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
    _, mask = max(
        ((min(K, a) + min(K, b), mask) for (a, b), mask in states.items() if b > 1),
        key=lambda sm: sm[0],
    )
    return [i for i in range(len(cards)) if mask >> i & 1]


def check_generic(K: int, cardinalities) -> IdentifiabilityReport:
    """Generic identifiability via two meta-features plus the noisy label.

    Splits the features into two groups with multiplied outcome spaces
    (tau* = prod kappa_i) and checks Kruskal's condition on the ranks
    min(K, tau1) + min(K, tau2) + min(K, K) >= 2K + 2 for the best two-way
    split (found by `_best_split` in O(d* K^2)); also requires
    d* >= ceil(log2((K+2)/2)). The even split from the generic-identifiability
    argument is not always optimal under uneven cardinalities, so the
    grouping choice matters and is surfaced in the notes. Fewer than two
    features are not_guaranteed at every K.
    """
    cards = [int(c) for c in cardinalities]
    if any(c < 2 for c in cards):
        raise ValidationError("every feature cardinality must be >= 2")
    d_star = len(cards)
    d_threshold = math.ceil(math.log2((K + 2) / 2))
    # three views: two meta-features and the noisy label
    _, rhs = kruskal_condition(K, [K] * 3)
    if d_star < 2:
        # one feature and the noisy label are two views, which identify no
        # model: their kappa x K table has kappa*K - 1 free cells, K(K - 1)
        # fewer than the parameters of the prior, the feature and T
        return _report("generic", 0, rhs, [], (
            f"{d_star} feature(s): two meta-features, each from at least one "
            f"feature, are required besides the noisy label"))

    g1 = _best_split(K, cards)
    tau1 = math.prod(cards[i] for i in g1)
    tau2 = math.prod(cards[i] for i in range(d_star) if i not in g1)
    score, _ = kruskal_condition(K, [min(K, tau1), min(K, tau2), K])
    lhs = score if d_star >= d_threshold else 0
    notes = (
        f"best split: group 1 = features {g1} (tau* = {tau1}), group 2 has "
        f"tau* = {tau2}; min-sum {score} vs 2K+2 = {rhs}. "
        f"d* = {d_star} vs threshold ceil(log2((K+2)/2)) = {d_threshold}. "
        f"Grouping choice matters: the sum is reported for the maximizing split."
    )
    if d_star < d_threshold:
        notes += " Feature-count threshold failed, so the verdict is not_guaranteed."
    return _report("generic", lhs, rhs, [], notes)
