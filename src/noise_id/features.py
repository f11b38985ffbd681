"""Disentangled discrete feature simulation and feature-based recovery.

Features are categorical by construction: each feature draws independently
from its observation matrix's row for the hidden state, which makes the set
disentangled (conditionally independent given the hidden state) by design.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .datasets import NoisyDataset
from .errors import SearchExhaustedError, DimensionError, ValidationError, ConvergenceWarning
from .identifiability import ObservationModel
from .matrices import ObsMatrix, Prior, Scenario, TransitionMatrix, max_trace_permutation
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
    return np.einsum("y,ya,yb,yc->abc", prior.weights, *ms)


@dataclass
class FeatureEstimateResult:
    scenario: Scenario
    feature_models: list
    residual: float
    restarts_used: int
    converged: bool
    permutation: tuple

    def __iter__(self):
        return iter((self.scenario, self.feature_models, self.residual))


def fit_three_view(
    tensor,
    K: int,
    restarts: int = 20,
    seed=0,
    residual_target: float = 1e-8,
) -> FeatureEstimateResult:
    """Fit (prior, A, B, C) to an order-3 joint with distinct factors.

    The third axis is taken to be the noisy label, so C is returned as the
    transition matrix and the shared hidden-state permutation is resolved by
    maximizing its trace. Ambiguity can remain when no factor is diagonally
    dominant; the trace convention is applied regardless.
    """
    target = np.ascontiguousarray(tensor, dtype=np.float64)
    if target.ndim != 3:
        raise ValidationError("need an order-3 tensor")
    dims = target.shape
    if dims[2] != K:
        raise ValidationError("third axis must have cardinality K (the noisy label)")
    dim = K + K * sum(dims)
    best = None
    used = 0
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        theta0 = rng.standard_normal(dim)
        _, f, w, mats = _kernels.fit_general(target, K, dims, theta0)
        used += 1
        if best is None or f < best[0]:
            best = (f, w, mats)
        if f < (residual_target**2) * 1e-4:
            break
    f, w, mats = best
    if f > residual_target**2 and math.isfinite(residual_target):
        refined = _kernels.refine_boundary(target, w, mats, tied=False)
        if refined is not None and refined[0] < f:
            f, w, mats = refined[0], refined[1], refined[2]
    residual = math.sqrt(f)
    converged = residual <= residual_target
    if not converged:
        warnings.warn(
            f"feature fit stopped at residual {residual:.3e} "
            f"(target {residual_target:.1e}); likely unidentifiable input",
            ConvergenceWarning,
        )
    perm, T_aligned = max_trace_permutation(mats[2])
    idx = list(perm)
    scenario = Scenario(
        T=TransitionMatrix(T_aligned), prior=Prior(w[idx] / w[idx].sum())
    )
    feature_models = [ObsMatrix(mats[0][idx]), ObsMatrix(mats[1][idx])]
    return FeatureEstimateResult(
        scenario=scenario,
        feature_models=feature_models,
        residual=residual,
        restarts_used=used,
        converged=converged,
        permutation=perm,
    )


def empirical_three_view(ds: NoisyDataset, feature_indices=(0, 1)) -> np.ndarray:
    """Frequency tensor over (R_a, R_b, noisy label) from a dataset."""
    if ds.r is None or ds.r.shape[1] < 2:
        raise ValidationError("need at least 2 categorical feature columns")
    a, b = feature_indices
    ra = ds.r[:, a] - 1
    rb = ds.r[:, b] - 1
    yt = ds.noisy[:, 0] - 1
    dims = (int(ra.max()) + 1, int(rb.max()) + 1, ds.K)
    counts = np.zeros(dims)
    np.add.at(counts, (ra, rb, yt), 1.0)
    return counts / ds.n


def estimate_from_features(
    ds: NoisyDataset,
    K: int,
    restarts: int = 20,
    seed=0,
    feature_indices=(0, 1),
) -> FeatureEstimateResult:
    """Recover T from two categorical features plus one noisy label.

    Treats (R_a, R_b, noisy label) as the three observed variables of a
    latent-class model and fits by moment matching on their empirical joint.
    Using exactly two features keeps the problem in the three-observation
    sweet spot; additional features can be selected via feature_indices.
    """
    if ds.r is None or ds.r.shape[1] < 2 or ds.p < 1:
        raise ValidationError(
            "estimate_from_features needs at least 2 feature columns and a noisy label"
        )
    tensor = empirical_three_view(ds, feature_indices)
    # sampled joints never fit exactly; only ask for a loose residual
    return fit_three_view(
        tensor, K, restarts=restarts, seed=seed, residual_target=math.inf
    )
