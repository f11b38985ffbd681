"""Disentangled discrete feature simulation and the feature-path count tensor.

Features are categorical by construction: each feature draws independently
from its observation matrix's row for the hidden state, which makes the set
disentangled (conditionally independent given the hidden state) by design.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _khatri_rao
from .consensus import counts
from .datasets import NoisyDataset
from .errors import CapabilityError, DimensionError, SearchExhaustedError, ValidationError
from .identifiability import ObservationModel
from .matrices import ObsMatrix, Prior, TransitionMatrix
from .matrices import max_trace_permutation  # noqa: F401  (idbench/tracing.py wraps it here)
from .noisegen import sample_views

REJECTION_CAP = 1000


def gen_feature_model(
    K: int, p: int, cardinalities, min_kruskal: int = 2, seed=0
) -> ObservationModel:
    """Sample the observation matrices of p features over K hidden states
    (K, or |G|*K when group membership is folded in) with Dirichlet(1) rows,
    rejecting each until its Kruskal rank reaches min_kruskal."""
    from .matrices import kruskal_rank

    if p < 1:
        raise ValidationError("need at least one feature")
    if isinstance(cardinalities, int):
        cards = [cardinalities] * p
    else:
        cards = [int(c) for c in cardinalities]
        if len(cards) != p:
            raise ValidationError("need one cardinality per feature")
    for c in cards:
        if c < 2:
            raise ValidationError("cardinalities must be >= 2")
        if min_kruskal > min(K, c):
            raise ValidationError(
                f"min_kruskal={min_kruskal} exceeds min(K, kappa)={min(K, c)}"
            )
    rng = np.random.default_rng(seed)
    models = []
    for i, c in enumerate(cards):
        for attempt in range(REJECTION_CAP):
            M = rng.dirichlet(np.ones(c), size=K)
            if kruskal_rank(M) >= min_kruskal:
                models.append(ObsMatrix(M))
                break
        else:
            raise SearchExhaustedError(
                f"feature {i}: no matrix with Kruskal rank >= {min_kruskal} "
                f"in {REJECTION_CAP} attempts"
            )
    return ObservationModel(tuple(models))


def sample_with_features(
    prior: Prior, T: TransitionMatrix | None, fm: ObservationModel, n: int, seed, p: int = 1
) -> NoisyDataset:
    """Per record: hidden state from the prior, each feature from its matrix's
    row, and (when T is given) p noisy labels through T."""
    if prior.K != fm.K:
        raise DimensionError("prior and feature model disagree on the hidden size")
    if T is not None and T.K != fm.K:
        raise DimensionError("T and feature model disagree on the hidden size")
    if n < 1:
        raise ValidationError("n must be >= 1")
    views = [(m, 1) for m in fm.models] + ([(T, p)] if T is not None else [])
    y, obs = sample_views(prior, views, n, np.random.default_rng(seed))
    provenance = {
        "model": "features",
        "seed": seed,
        "n": n,
        "K": fm.K,
        "prior": prior.weights.tolist(),
        "T": T.entries.tolist() if T is not None else None,
        "feature_models": [m.entries.tolist() for m in fm.models],
        "has_noisy_label": T is not None,
    }
    return NoisyDataset(
        y=y, noisy=obs[:, fm.p :], K=fm.K, provenance=provenance, r=obs[:, : fm.p]
    )


def group_meta_features(fm: ObservationModel, split) -> tuple[ObsMatrix, ObsMatrix]:
    """Merge two index sets of features into product-outcome meta features.

    M*[j, (k_1..k_m)] = prod_i M_i[j, k_i], with the first member's outcome
    varying slowest in the flattened product space.
    """
    g1, g2 = (sorted(set(side)) for side in split)
    if not g1 or not g2:
        raise ValidationError("both sides of the split must be nonempty")
    if set(g1) & set(g2) or set(g1) | set(g2) != set(range(fm.p)):
        raise ValidationError("split must partition the feature indices")
    metas = (_khatri_rao([fm.models[i].entries for i in side]) for side in (g1, g2))
    return tuple(map(ObsMatrix, metas))


def empirical_three_view(ds: NoisyDataset) -> np.ndarray:
    """Frequency tensor over (R_1, R_2, first noisy label) from a dataset,
    for a `consensus.fit` with distinct factors. Fewer than two feature
    columns or no noisy label raise CapabilityError, and so does a tensor
    above MAX_JOINT_CELLS cells."""
    if ds.r is None or ds.r.shape[1] < 2 or ds.p < 1:
        raise CapabilityError(
            "feature-path estimation needs two feature columns plus a "
            "noisy label (three observed variables)"
        )
    cols = (ds.r[:, 0] - 1, ds.r[:, 1] - 1, ds.noisy[:, 0] - 1)
    if min(cols[0].min(), cols[1].min()) < 0:
        raise ValidationError("feature values must be >= 1")
    dims = (int(cols[0].max()) + 1, int(cols[1].max()) + 1, ds.K)
    return counts(cols, dims, ds.n) / ds.n
