"""Disentangled discrete feature simulation and feature-based recovery.

Features are categorical by construction: each feature draws independently
from its observation matrix's row for the hidden state, which makes the set
disentangled (conditionally independent given the hidden state) by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .consensus import EstimateResult
from .datasets import NoisyDataset
from .errors import SearchExhaustedError, DimensionError, ValidationError
from .identifiability import ObservationModel
from .matrices import (
    ObsMatrix,
    Prior,
    Scenario,
    TransitionMatrix,
    check_align_k,
    max_trace_permutation,
)
from .noisegen import _sample_rows

REJECTION_CAP = 1000


@dataclass(frozen=True)
class FeatureModel:
    """Observation matrices for d* disentangled features over a hidden space
    of size K_hidden (K, or |G|*K when group membership is folded in)."""

    K_hidden: int
    models: tuple
    labels: str = "plain"

    def __post_init__(self):
        models = tuple(
            m if isinstance(m, ObsMatrix) else ObsMatrix(np.asarray(m, dtype=float))
            for m in self.models
        )
        if not models:
            raise ValidationError("feature model needs at least one feature")
        for i, m in enumerate(models):
            if m.K != self.K_hidden:
                raise DimensionError(f"feature {i} has {m.K} rows, expected {self.K_hidden}")
        object.__setattr__(self, "models", models)

    @property
    def d_star(self) -> int:
        return len(self.models)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(m.kappa for m in self.models)


def gen_feature_model(
    K_hidden: int, d_star: int, cardinalities, min_kruskal: int = 2, seed=0
) -> FeatureModel:
    """Sample feature observation matrices with Dirichlet(1) rows, rejecting
    each until its Kruskal rank reaches min_kruskal."""
    from .matrices import kruskal_rank

    if d_star < 1:
        raise ValidationError("d_star must be >= 1")
    if isinstance(cardinalities, int):
        cards = [cardinalities] * d_star
    else:
        cards = [int(c) for c in cardinalities]
        if len(cards) != d_star:
            raise ValidationError("need one cardinality per feature")
    for c in cards:
        if c < 2:
            raise ValidationError("cardinalities must be >= 2")
        if min_kruskal > min(K_hidden, c):
            raise ValidationError(
                f"min_kruskal={min_kruskal} exceeds min(K_hidden, kappa)={min(K_hidden, c)}"
            )
    rng = np.random.default_rng(seed)
    models = []
    for i, c in enumerate(cards):
        for attempt in range(REJECTION_CAP):
            M = rng.dirichlet(np.ones(c), size=K_hidden)
            if kruskal_rank(M) >= min_kruskal:
                models.append(ObsMatrix(M))
                break
        else:
            raise SearchExhaustedError(
                f"feature {i}: no matrix with Kruskal rank >= {min_kruskal} "
                f"in {REJECTION_CAP} attempts"
            )
    return FeatureModel(K_hidden=K_hidden, models=tuple(models))


def sample_with_features(
    prior: Prior, T: TransitionMatrix | None, fm: FeatureModel, n: int, seed
) -> NoisyDataset:
    """Per record: hidden state from the prior, each feature from its matrix's
    row, and (when T is given) one noisy label through T."""
    if prior.K != fm.K_hidden:
        raise DimensionError("prior and feature model disagree on the hidden size")
    if T is not None and T.K != fm.K_hidden:
        raise DimensionError("T and feature model disagree on the hidden size")
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    h0 = _sample_rows(rng, prior.weights[None, :], np.zeros(n, dtype=np.int64), 1)[:, 0]
    r = np.empty((n, fm.d_star), dtype=np.int64)
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
        "K": fm.K_hidden,
        "prior": prior.weights.tolist(),
        "T": T.entries.tolist() if T is not None else None,
        "feature_models": [m.entries.tolist() for m in fm.models],
        "has_noisy_label": T is not None,
    }
    return NoisyDataset(
        y=h0 + 1, noisy=noisy, K=fm.K_hidden, provenance=provenance, r=r
    )


def stack_observations(T: TransitionMatrix | None, fm: FeatureModel) -> ObservationModel:
    """Ordered [T?, M_1..M_d*] stack ready for the Kruskal-sum check."""
    models = () if T is None else (T.as_obs(),)
    if T is not None and T.K != fm.K_hidden:
        raise DimensionError("T and feature model disagree on the hidden size")
    return ObservationModel(models + fm.models, fm.K_hidden)


def group_meta_features(fm: FeatureModel, split) -> tuple[ObsMatrix, ObsMatrix]:
    """Merge two index sets of features into product-outcome meta features.

    M*[j, (k_1..k_m)] = prod_i M_i[j, k_i], with the first member's outcome
    varying slowest in the flattened product space.
    """
    g1, g2 = (sorted(set(side)) for side in split)
    if not g1 or not g2:
        raise ValidationError("both sides of the split must be nonempty")
    if set(g1) & set(g2) or set(g1) | set(g2) != set(range(fm.d_star)):
        raise ValidationError("split must partition the feature indices")
    metas = []
    for side in (g1, g2):
        M = np.ones((fm.K_hidden, 1))
        for i in side:
            member = fm.models[i].entries
            M = (M[:, :, None] * member[:, None, :]).reshape(fm.K_hidden, -1)
        metas.append(ObsMatrix(M))
    return metas[0], metas[1]


def exact_three_view_joint(prior: Prior, mats) -> np.ndarray:
    """Forward model for three distinct observation matrices: the order-3
    joint over their outcomes given the shared hidden state."""
    ms = [m.entries if hasattr(m, "entries") else np.asarray(m, float) for m in mats]
    if len(ms) != 3:
        raise ValidationError("need exactly three observation matrices")
    return _kernels.forward(prior.weights, ms)


def fit_three_view(
    tensor,
    K: int,
    restarts: int = 20,
    seed=0,
    n: float = math.inf,
) -> EstimateResult:
    """Fit (prior, A, B, C) to an order-3 joint with distinct factors,
    estimated from n records (the default, n = inf, is an exact tensor).

    Multi-start search with the stopping rule of `estimate`. The third axis
    is taken to be the noisy label, so C is returned as the transition
    matrix, A and B as `feature_models`, and the shared hidden-state
    permutation is resolved by maximizing the trace of C. Ambiguity can
    remain when no factor is diagonally dominant; the trace convention is
    applied regardless. K above MAX_ALIGN_K raises CapabilityError before
    any fit.
    """
    target = np.ascontiguousarray(tensor, dtype=np.float64)
    if target.ndim != 3:
        raise ValidationError("need an order-3 tensor")
    dims = target.shape
    if dims[2] != K:
        raise ValidationError("third axis must have cardinality K (the noisy label)")
    check_align_k(K, "fit_three_view")
    f, w, mats, per_restart, converged = _kernels.solve(
        target, K, dims, restarts, seed, n
    )
    perm, T_aligned = max_trace_permutation(mats[2])
    idx = list(perm)
    return EstimateResult(
        scenario=Scenario(
            T=TransitionMatrix(T_aligned), prior=Prior(w[idx] / w[idx].sum())
        ),
        residual=math.sqrt(f),
        restarts_used=len(per_restart),
        converged=converged,
        permutation=perm,
        per_restart_residuals=per_restart,
        feature_models=(ObsMatrix(mats[0][idx]), ObsMatrix(mats[1][idx])),
    )


def empirical_three_view(ds: NoisyDataset) -> np.ndarray:
    """Frequency tensor over (R_1, R_2, noisy label) from a dataset."""
    if ds.r is None or ds.r.shape[1] < 2:
        raise ValidationError("need at least 2 categorical feature columns")
    ra = ds.r[:, 0] - 1
    rb = ds.r[:, 1] - 1
    yt = ds.noisy[:, 0] - 1
    if min(ra.min(), rb.min()) < 0:
        raise ValidationError("feature values must be >= 1")
    dims = (int(ra.max()) + 1, int(rb.max()) + 1, ds.K)
    cells = np.ravel_multi_index((ra, rb, yt), dims)
    return np.bincount(cells, minlength=math.prod(dims)).reshape(dims) / ds.n


def estimate_from_features(
    ds: NoisyDataset,
    K: int,
    restarts: int = 20,
    seed=0,
) -> EstimateResult:
    """Recover T from two categorical features plus one noisy label.

    Treats (R_1, R_2, noisy label) as the three observed variables of a
    latent-class model and fits by moment matching on their empirical joint.
    Using exactly the first two features keeps the problem in the
    three-observation sweet spot. The fit stops at the sampling noise of the
    ds.n records, so a restart stuck in a local minimum above it is followed
    by the next, up to `restarts`.
    """
    if ds.r is None or ds.r.shape[1] < 2 or ds.p < 1:
        raise ValidationError(
            "estimate_from_features needs at least 2 feature columns and a noisy label"
        )
    return fit_three_view(
        empirical_three_view(ds), K, restarts=restarts, seed=seed, n=ds.n
    )
