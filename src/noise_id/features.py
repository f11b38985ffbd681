"""Disentangled discrete feature simulation and feature-based recovery.

Features are categorical by construction: each feature draws independently
from its observation matrix's row for the hidden state, which makes the set
disentangled (conditionally independent given the hidden state) by design.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .consensus import EstimateResult, fit
from .datasets import NoisyDataset
from .errors import CapabilityError, DimensionError, SearchExhaustedError, ValidationError
from .identifiability import ObservationModel
from .matrices import ObsMatrix, Prior, TransitionMatrix
from .matrices import max_trace_permutation  # noqa: F401  (idbench/tracing.py wraps it here)
from .noisegen import _sample_rows

REJECTION_CAP = 1000


def gen_feature_model(
    K: int, p: int, cardinalities, min_kruskal: int = 2, seed=0
) -> ObservationModel:
    """Sample the observation matrices of p features over K hidden states
    (K, or |G|*K when group membership is folded in) with Dirichlet(1) rows,
    rejecting each until its Kruskal rank reaches min_kruskal."""
    from .matrices import kruskal_rank

    if p < 1:
        raise ValidationError("p must be >= 1")
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
    prior: Prior, T: TransitionMatrix | None, fm: ObservationModel, n: int, seed
) -> NoisyDataset:
    """Per record: hidden state from the prior, each feature from its matrix's
    row, and (when T is given) one noisy label through T."""
    if prior.K != fm.K:
        raise DimensionError("prior and feature model disagree on the hidden size")
    if T is not None and T.K != fm.K:
        raise DimensionError("T and feature model disagree on the hidden size")
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    h0 = _sample_rows(rng, prior.weights[None, :], np.zeros(n, dtype=np.int64), 1)[:, 0]
    r = np.empty((n, fm.p), dtype=np.int64)
    for i, m in enumerate(fm.models):
        r[:, i] = _sample_rows(rng, m.entries, h0, 1)[:, 0] + 1
    if T is not None:
        noisy = (_sample_rows(rng, T.entries, h0, 1)[:, 0] + 1)[:, None]
    else:
        noisy = np.zeros((n, 0), dtype=np.int64)
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
        y=h0 + 1, noisy=noisy, K=fm.K, provenance=provenance, r=r
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
    metas = []
    for side in (g1, g2):
        M = np.ones((fm.K, 1))
        for i in side:
            member = fm.models[i].entries
            M = (M[:, :, None] * member[:, None, :]).reshape(fm.K, -1)
        metas.append(ObsMatrix(M))
    return metas[0], metas[1]


def exact_three_view_joint(prior: Prior, mats) -> np.ndarray:
    """Forward model for three distinct observation matrices: the order-3
    joint over their outcomes given the shared hidden state."""
    ms = [m.entries if hasattr(m, "entries") else np.asarray(m, float) for m in mats]
    if len(ms) != 3:
        raise ValidationError("need exactly three observation matrices")
    return _kernels.forward(prior.weights, ms)


def fit_three_view(tensor, restarts=20, seed=0, n=math.inf) -> EstimateResult:
    """Fit (prior, A, B, C) to an order-3 joint with distinct factors,
    estimated from n records (n = inf: an exact tensor), by `consensus.fit`.
    The third axis is the noisy label, so its length is K and C is returned
    as the transition matrix, with the hidden states ordered to maximize its
    trace, and A and B as `feature_models`. `fit` checks the tensor."""
    if np.ndim(tensor) != 3:
        raise ValidationError("need an order-3 tensor")
    return fit(tensor, False, restarts, seed, n)


def empirical_three_view(ds: NoisyDataset) -> np.ndarray:
    """Frequency tensor over (R_1, R_2, first noisy label) from a dataset.
    Fewer than two feature columns or no noisy label raise CapabilityError.
    """
    if ds.r is None or ds.r.shape[1] < 2 or ds.p < 1:
        raise CapabilityError(
            "feature-path estimation needs two feature columns plus a "
            "noisy label (three observed variables)"
        )
    ra = ds.r[:, 0] - 1
    rb = ds.r[:, 1] - 1
    yt = ds.noisy[:, 0] - 1
    if min(ra.min(), rb.min()) < 0:
        raise ValidationError("feature values must be >= 1")
    dims = (int(ra.max()) + 1, int(rb.max()) + 1, ds.K)
    cells = np.ravel_multi_index((ra, rb, yt), dims)
    return np.bincount(cells, minlength=math.prod(dims)).reshape(dims) / ds.n
