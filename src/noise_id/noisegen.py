"""Synthetic clean/noisy dataset generation under the supported noise models.

All generation is deterministic given (parameters, seed). Randomness flows
through numpy's seeded PCG64 generator; per-record substreams, where needed,
derive from (seed, record index) so parallel generation stays reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .datasets import ROW_BLOCK, NoisyDataset
from .errors import ValidationError
from .matrices import Prior, TransitionMatrix, _check_distributions

TRUNCNORM_SD = 0.1


def asymmetric_T(K: int, eps: float) -> TransitionMatrix:
    """Adjacent-class flip matrix: T[i, i] = 1 - eps and the rest of row i's
    mass on class (i mod K) + 1."""
    if not 0.0 <= eps <= 1.0:
        raise ValidationError("eps must lie in [0, 1]")
    if K < 2:
        raise ValidationError("K must be >= 2")
    T = np.eye(K) * (1.0 - eps)
    for i in range(K):
        T[i, (i + 1) % K] += eps
    return TransitionMatrix(T)


def _sample_rows(rng, probs: np.ndarray, which: np.ndarray, draws: int, out=None) -> np.ndarray:
    """Sample `draws` categorical outcomes per record from probs[which[i]].

    Returns 0-based outcomes with shape (len(which), draws), written into
    out when it is given. The uniforms are drawn ROW_BLOCK records at a
    time, which gives the same stream as one draw of them all, and the
    cumulative sums are taken per block, so no second array as large as
    probs is held.
    """
    if out is None:
        out = np.empty((which.shape[0], draws), dtype=np.int64)
    for lo in range(0, which.shape[0], ROW_BLOCK):
        w = which[lo : lo + ROW_BLOCK]
        u = rng.random((w.shape[0], draws))
        cum = np.cumsum(probs[w], axis=1)
        out[lo : lo + ROW_BLOCK] = (u[:, :, None] > cum[:, None, :]).sum(axis=2)
    return out


def sample_views(prior: Prior, views, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """n records of the latent-class model: a hidden state per record from
    the prior, then, for each (matrix, draws) of views in turn, `draws`
    outcomes per record from the matrix row of its hidden state.

    Returns the hidden states, shape (n,), and the outcomes, shape (n, total
    draws) with the views' columns in order, both 1-based.
    """
    h = _sample_rows(rng, prior.weights[None, :], np.zeros(n, dtype=np.int64), 1)[:, 0]
    out = np.empty((n, sum(draws for _, draws in views)), dtype=np.int64)
    col = 0
    for m, draws in views:
        _sample_rows(rng, m.entries, h, draws, out[:, col : col + draws])
        col += draws
    h += 1
    out += 1
    return h, out


def sample_iid_noisy(
    prior: Prior, T: TransitionMatrix, p: int, n: int, seed
) -> NoisyDataset:
    """n records; per record a clean label from the prior and p noisy labels
    drawn independently from that label's row of T."""
    if p < 1 or n < 1:
        raise ValidationError("need p >= 1 and n >= 1")
    if prior.K != T.K:
        raise ValidationError("prior and T disagree on K")
    y, noisy = sample_views(prior, [(T, p)], n, np.random.default_rng(seed))
    provenance = {
        "model": "iid",
        "K": T.K,
        "p": p,
        "n": n,
        "seed": seed,
        "prior": prior.weights.tolist(),
        "T": T.entries.tolist(),
    }
    return NoisyDataset(y=y, noisy=noisy, K=T.K, provenance=provenance)


def sample_truncated_normal(rng, mean: float, sd: float, low: float, high: float, size: int):
    """Rejection sampling from the untruncated normal; exact and fast for the
    parameter ranges used here (sd = 0.1, [0, 1])."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        draw = rng.normal(mean, sd, size=2 * (size - filled) + 16)
        keep = draw[(draw >= low) & (draw <= high)]
        take = min(keep.size, size - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def instance_noise(features, clean, eps: float, K: int, seed):
    """Instance-dependent noise: per-instance flip rate from a truncated
    normal around eps, wrong-class scores from a random linear projection of
    the features, softmax over the non-clean classes.

    Returns (noisy labels 1..K, per-instance probability rows). Each row has
    mass exactly 1 - q_n on the clean class. Note eps = 0 still flips some
    labels: the truncated normal keeps positive mass above zero by design.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(clean, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValidationError("features must be nonempty")
    if not np.isfinite(x).all():
        raise ValidationError("features must be finite")
    if not 0.0 <= eps <= 1.0:
        raise ValidationError("eps must lie in [0, 1]")
    if K < 2:
        raise ValidationError(f"instance noise needs K >= 2 classes to flip between, got K={K}")
    if y.min() < 1 or y.max() > K:
        raise ValidationError(f"clean labels must lie in 1..{K}")
    n, S = x.shape
    rng = np.random.default_rng(seed)
    q = sample_truncated_normal(rng, eps, TRUNCNORM_SD, 0.0, 1.0, n)
    W = rng.standard_normal((S, K))
    pvec = np.empty((n, K))
    # the softmax is built ROW_BLOCK records at a time, so its temporaries
    # do not grow with n
    for lo in range(0, n, ROW_BLOCK):
        block = slice(lo, lo + ROW_BLOCK)
        scores = x[block] @ W
        at_clean = np.arange(scores.shape[0]), y[block] - 1
        scores[at_clean] = -np.inf
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        out = pvec[block]
        out[:] = q[block, None] * (e / e.sum(axis=1, keepdims=True))
        out[at_clean] = 1.0 - q[block]
    noisy = _sample_rows(rng, pvec, np.arange(n), 1)[:, 0]
    noisy += 1
    return noisy, pvec


def part_dependent_T(weights, parts) -> TransitionMatrix:
    """Convex combination of the part transition matrices, which must share
    K, by simplex weights, one per part."""
    parts = [TransitionMatrix(p) for p in parts]
    if len({p.K for p in parts}) != 1:
        raise ValidationError("need at least one part, and all parts must share K")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(parts),):
        raise ValidationError(f"weights must have length {len(parts)}, got {w.shape}")
    _check_distributions(w, "weight vector")
    stack = np.stack([p.entries for p in parts])
    return TransitionMatrix(np.tensordot(w, stack, axes=1))


@dataclass(frozen=True)
class UnstructuredParams:
    """Parameters of the discrete-domain triplet generation process.

    ``lam`` is the pool of positive priors sampled per domain point;
    ``label_probs`` is the per-domain-point clean-label distribution (rows on
    the simplex), and ``T`` corrupts each member's clean label independently.
    """

    lam: tuple
    N: int
    epsilon_close: float
    label_probs: np.ndarray
    T: TransitionMatrix

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=np.float64)
        # every test below is written so that nan fails it
        if lam.ndim != 1 or not lam.size or not (np.isfinite(lam).all() and (lam > 0).all()):
            raise ValidationError("lambda must be a nonempty list of finite positive numbers")
        if self.N < 3:
            raise ValidationError("N must be >= 3 to form triplets")
        if not self.epsilon_close >= 0:
            raise ValidationError("epsilon_close must be >= 0")
        lp = np.asarray(self.label_probs, dtype=np.float64)
        if lp.ndim != 2:
            raise ValidationError("label_probs must be (num_points, K)")
        _check_distributions(lp, "label_probs")
        if lp.shape[1] != self.T.K:
            raise ValidationError("label_probs and T disagree on K")
        lp.setflags(write=False)
        object.__setattr__(self, "lam", tuple(lam.tolist()))
        object.__setattr__(self, "label_probs", lp)

    @property
    def num_points(self) -> int:
        return self.label_probs.shape[0]

    @property
    def K(self) -> int:
        return self.T.K


@dataclass
class TripletDataset:
    """Triplet-structured output of the unstructured process: per qualifying
    instance, its two nearest neighbors, the three clean labels, and the
    three noisy labels."""

    xs: np.ndarray
    members: np.ndarray  # (m, 3) dataset indices: center, nn1, nn2
    labels: np.ndarray  # (m, 3) clean labels, 1..K
    noisy: np.ndarray  # (m, 3) noisy labels, 1..K
    K: int
    threshold_N: float
    provenance: dict

    @property
    def num_triplets(self) -> int:
        return self.members.shape[0]


def theorem5_threshold(q: np.ndarray) -> float:
    """Sample-count threshold 4 * sum(q) / min(q) above which every domain
    point appears at least three times with high probability."""
    q = np.asarray(q, dtype=np.float64)
    return float(4.0 * q.sum() / q.min())


def unstructured_process(params: UnstructuredParams, seed) -> TripletDataset:
    """Discrete-domain triplet generation.

    Domain points are the scalars 1..num_points; each receives a prior drawn
    uniformly from ``lam``, N instances are drawn from the normalized priors,
    and each instance forms a triplet with its two nearest neighbors (ties
    broken by dataset index) when both distances are within epsilon_close.
    Clean labels are drawn per instance from the point's label distribution;
    noisy labels per member through T.
    """
    rng = np.random.default_rng(seed)
    npts = params.num_points
    points = np.arange(1, npts + 1, dtype=np.float64)
    lam = np.asarray(params.lam)
    q = lam[rng.integers(0, lam.size, size=npts)]
    D = q / q.sum()
    idx = _sample_rows(rng, D[None, :], np.zeros(params.N, dtype=np.int64), 1)[:, 0]
    xs = points[idx]
    y0 = _sample_rows(rng, params.label_probs, idx, 1)[:, 0]
    noisy0 = _sample_rows(rng, params.T.entries, y0, 1)[:, 0]

    # nearest neighbors on the scalar domain; index order breaks ties
    members = []
    for i in range(params.N):
        d = np.abs(xs - xs[i])
        d[i] = np.inf
        nn = np.lexsort((np.arange(params.N), d))[:2]
        if d[nn[0]] <= params.epsilon_close and d[nn[1]] <= params.epsilon_close:
            members.append((i, int(nn[0]), int(nn[1])))
    members = np.array(members, dtype=np.int64).reshape(-1, 3)
    labels = (y0 + 1)[members] if members.size else np.zeros((0, 3), dtype=np.int64)
    noisy = (noisy0 + 1)[members] if members.size else np.zeros((0, 3), dtype=np.int64)
    provenance = {
        "model": "unstructured",
        "seed": seed,
        "N": params.N,
        "epsilon_close": params.epsilon_close,
        "lambda": list(params.lam),
        "q": q.tolist(),
        "K": params.K,
    }
    return TripletDataset(
        xs=xs,
        members=members,
        labels=labels,
        noisy=noisy,
        K=params.K,
        threshold_N=theorem5_threshold(q),
        provenance=provenance,
    )


def check_2nn(ds: TripletDataset) -> float:
    """Fraction of triplets whose three clean labels agree.

    An empty triplet set counts as vacuously satisfied (1.0) with a warning,
    so degenerate configurations do not abort pipelines.
    """
    if ds.num_triplets == 0:
        warnings.warn("no triplets formed; 2-NN satisfaction is vacuously 1.0")
        return 1.0
    same = (ds.labels == ds.labels[:, :1]).all(axis=1)
    return float(same.mean())
