"""Consensus statistics, the (prior, T) recovery solver, MPE scalar
conversions, the two-label non-identifiability witness, and error metrics.

Binary conventions: class 1 is "+1" and class 2 is "-1". gamma = P(Y = +1),
e_plus = P(noisy = -1 | Y = +1), e_minus = P(noisy = +1 | Y = -1), so the
binary transition matrix is [[1 - e_plus, e_plus], [e_minus, 1 - e_minus]].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .datasets import NoisyDataset
from .errors import (
    CapabilityError,
    DegenerateClassError,
    DimensionError,
    SearchExhaustedError,
    SingularConversionError,
    ValidationError,
)
from .matrices import (
    ObsMatrix,
    Prior,
    Scenario,
    TransitionMatrix,
    align_permutation,
    check_align_k,
    max_trace_permutation,
    _as_array,
)
from .identifiability import is_informative_label

SYMMETRY_TOL = 1e-6
MAX_JOINT_CELLS = 1024
WITNESS_MIN_DISTANCE = 0.01


def _axis_swaps(p):
    """The pairs (i, k), i < k, of the axes of an order-p tensor, grouped by
    k. Group k with the identity holds one representative of each coset of
    the orders of axes 0..k-1 among the orders of axes 0..k, so composing one
    entry (or the identity) from every group gives each of the p! axis orders
    exactly once."""
    return [[(i, k) for i in range(k)] for k in range(1, p)]


def _symmetry_defect(v) -> float:
    """The largest change that swapping two axes makes to any cell of v: 0
    exactly when v is symmetric, since the swaps generate every order of
    the axes."""
    swaps = [ik for group in _axis_swaps(v.ndim) for ik in group]
    # an infinite cell gives nan here, and fit refuses it
    with np.errstate(invalid="ignore"):
        return max(
            (float(np.abs(v - np.swapaxes(v, i, k)).max()) for i, k in swaps),
            default=0.0,
        )


def _frozen(v) -> np.ndarray:
    """v as a read-only float64 array."""
    v = np.asarray(v, dtype=np.float64)
    v.setflags(write=False)
    return v


def _sum_over_axis_orders(s):
    """The sum of s over all p! orders of its axes, from O(p^2) swaps (see
    `_axis_swaps`); exact on integer counts."""
    for group in _axis_swaps(s.ndim):
        s = s + sum(np.swapaxes(s, i, k) for i, k in group)
    return s


def _check_cells(K, p):
    """Refuse a joint tensor of K**p cells above MAX_JOINT_CELLS before
    anything is allocated."""
    if K**p > MAX_JOINT_CELLS:
        raise CapabilityError(
            f"a joint tensor of p={p} labels over K={K} classes has {K**p} "
            f"cells, above the cap of {MAX_JOINT_CELLS} (MAX_JOINT_CELLS)"
        )


def exact_joint(s: Scenario, p: int) -> np.ndarray:
    """Forward model, a read-only order-p array:
    joint[j1..jp] = sum_y prior[y] * prod_i T[y, j_i]. Raises
    CapabilityError above MAX_JOINT_CELLS cells."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    _check_cells(s.K, p)
    return _frozen(_kernels.forward(s.prior.weights, [s.T.entries] * p))


def empirical_joint(ds: NoisyDataset) -> np.ndarray:
    """Frequency tensor of the noisy-label p-tuples, a read-only array
    symmetrized by averaging over axis orders (valid for i.i.d. labels): the
    counts are summed over all p! orders and divided once. The joint of
    p = 0 labels is the scalar 1. Raises CapabilityError above
    MAX_JOINT_CELLS cells."""
    if ds.n == 0:
        raise ValidationError("empty dataset")
    K, p = ds.K, ds.p
    _check_cells(K, p)
    shape = (K,) * p
    # one cell index per record (ravel_multi_index gives one scalar at p = 0)
    cells = np.broadcast_to(np.ravel_multi_index(tuple((ds.noisy - 1).T), shape), ds.n)
    counts = np.bincount(cells, minlength=K**p).reshape(shape)
    return _frozen(_sum_over_axis_orders(counts) / (math.factorial(p) * ds.n))


@dataclass(frozen=True)
class BinaryStats:
    """The three statistics that fully capture two i.i.d. binary noisy
    labels: the positive posterior and the two consensus probabilities."""

    posterior: float
    pos_consensus: float
    neg_consensus: float

    def as_tuple(self):
        return (self.posterior, self.pos_consensus, self.neg_consensus)


def binary_stats(gamma: float, e_plus: float, e_minus: float) -> BinaryStats:
    for name, v in (("gamma", gamma), ("e_plus", e_plus), ("e_minus", e_minus)):
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1]")
    post = gamma * (1 - e_plus) + (1 - gamma) * e_minus
    pos = gamma * (1 - e_plus) ** 2 + (1 - gamma) * e_minus**2
    neg = gamma * e_plus**2 + (1 - gamma) * (1 - e_minus) ** 2
    return BinaryStats(post, pos, neg)


def binary_scenario(gamma: float, e_plus: float, e_minus: float) -> Scenario:
    T = TransitionMatrix([[1 - e_plus, e_plus], [e_minus, 1 - e_minus]])
    return Scenario(T=T, prior=Prior([gamma, 1 - gamma]))


@dataclass
class EstimateResult:
    """A recovered scenario and how the solve got there; a fit with distinct
    factors also carries those of its other axes (three views: A and B)."""

    scenario: Scenario
    residual: float
    converged: bool
    permutation: tuple
    per_restart_residuals: list
    feature_models: tuple = ()

    @property
    def restarts_used(self) -> int:
        return len(self.per_restart_residuals)


def fit(target, K, dims, restarts=20, seed=0, n=math.inf) -> EstimateResult:
    """Fit a latent-class model over K hidden states to the tensor `target`
    estimated from n records (n = inf: an exact tensor), by `_kernels.solve`.
    One entry in `dims` ties one K x K factor to every axis; one entry per
    axis fits distinct K x dims[k] factors.

    The last factor is the noisy label's transition matrix; the hidden
    states are ordered to maximize its trace (diagonal dominance), and the
    other factors, in the same order, are the `feature_models` (a tied fit
    has none). `residual` is the Frobenius norm of the remaining mismatch,
    and `converged` says whether a restart reached the sampling noise of n
    records (if not, the best fit comes with a ConvergenceWarning).

    Every target is checked here, before any fit: a finite probability
    tensor (entries >= -1e-12, sum 1 within 1e-9) over K >= 2 hidden states,
    its axes as long as `dims` says (all K when tied), the last one K, or
    ValidationError; K above MAX_ALIGN_K raises CapabilityError.
    """
    target = np.ascontiguousarray(target, dtype=np.float64)
    if not np.isfinite(target).all():
        raise ValidationError("target tensor contains non-finite entries")
    if (target < -1e-12).any():
        raise ValidationError("target tensor values must be >= 0")
    if abs(target.sum() - 1.0) > 1e-9:
        raise ValidationError(f"target tensor sums to {float(target.sum())!r}, not 1")
    if K < 2:
        raise ValidationError(f"fit requires K >= 2 hidden classes, got K={K}")
    axes = tuple(dims) * target.ndim if len(dims) == 1 else tuple(dims)
    if target.shape != axes:
        raise ValidationError(f"target tensor has shape {target.shape}, expected {axes}")
    if target.shape[-1:] != (K,):
        raise ValidationError(f"the last axis (the noisy label) of {target.shape} must be K={K}")
    check_align_k(K, "fit")
    f, w, mats, per_restart, converged = _kernels.solve(target, K, dims, restarts, seed, n)
    perm, T_aligned = max_trace_permutation(mats[-1])
    idx = list(perm)
    return EstimateResult(
        scenario=Scenario(T=TransitionMatrix(T_aligned), prior=Prior(w[idx] / w[idx].sum())),
        residual=math.sqrt(f),
        converged=converged,
        permutation=perm,
        per_restart_residuals=per_restart,
        feature_models=tuple(ObsMatrix(m[idx]) for m in mats[:-1]),
    )


def estimate(
    joint,
    restarts: int = 20,
    seed=0,
    n: float = math.inf,
) -> EstimateResult:
    """Recover (prior, T) from a symmetric joint array of order p >= 3 (p
    i.i.d. noisy labels, all of them fitted) estimated from n records (the
    default, n = inf, is an exact tensor), by a tied `fit`, which checks its
    values and shape. Fewer than three labels raise CapabilityError, an
    asymmetric tensor ValidationError. A converged fit that violates the
    uniqueness preconditions (non-degenerate prior, full-rank T) comes with
    a warning."""
    joint = np.asarray(joint, dtype=np.float64)
    if joint.ndim < 3:
        raise CapabilityError(
            f"p={joint.ndim} noisy labels per record; three conditionally "
            "independent labels are required for instance-level recovery"
        )
    # axes of different lengths cannot be swapped; fit refuses that shape
    defect = _symmetry_defect(joint) if len(set(joint.shape)) == 1 else 0.0
    if defect > SYMMETRY_TOL:
        raise ValidationError(
            f"tensor is not symmetric (defect {defect:.3g}); symmetrize first"
        )
    K = joint.shape[-1]
    result = fit(joint, K, (K,), restarts, seed, n)
    s = result.scenario
    if result.converged and not (s.prior.non_degenerate and is_informative_label(s.T)):
        warnings.warn(
            "recovered parameters violate the uniqueness preconditions "
            "(non-degenerate prior, full-rank T); the solution may not be unique"
        )
    return result


@dataclass(frozen=True)
class Witness:
    """Alternative binary parameters matching the input's two-label
    consensus statistics."""

    gamma: float
    e_plus: float
    e_minus: float
    residual: float
    distance: float


def witness_p2(gamma: float, e_plus: float, e_minus: float) -> Witness:
    """Distinct binary parameters with identical two-label statistics, in
    closed form.

    The statistics are the mean p1 and second moment p2 of the two-point law
    with atom 1 - e_plus at weight gamma and atom e_minus at weight
    1 - gamma (the negative consensus is 1 - 2*p1 + p2). With
    s2 = p2 - p1^2 > 0, every prior gamma' in
    [s2 / ((1 - p1)^2 + s2), p1^2 / (p1^2 + s2)] matches them exactly with

        e_plus'  = 1 - p1 - sqrt(s2 * (1 - gamma') / gamma'),
        e_minus' = p1 - sqrt(s2 * gamma' / (1 - gamma')),

    an informative label (e_plus' + e_minus' < 1). At the two ends of the
    interval e_plus' = 0 and e_minus' = 0. The witness is the end farther
    from the input in max-abs distance, if it is informative by a 1e-9
    margin and at least WITNESS_MIN_DISTANCE away. Otherwise, and when s2
    is 0 to within its rounding (an uninformative label or a degenerate
    prior), it raises SearchExhaustedError.
    """
    stats = binary_stats(gamma, e_plus, e_minus)
    p1 = stats.posterior
    s2 = stats.pos_consensus - p1 * p1
    # p2 - p1^2 rounds a zero variance to at most 1.5 eps in magnitude
    if s2 <= 4 * np.finfo(float).eps:
        raise SearchExhaustedError(
            f"the two-label statistics have zero variance (sigma^2 = {s2:.3g}): "
            "the label is uninformative or the prior degenerate, so no "
            "informative parameters with another prior match them"
        )
    # the curve at its two ends, where e_plus' = 0 and where e_minus' = 0;
    # the max() clips the rounding of the other rate
    ends = (
        (s2 / ((1 - p1) ** 2 + s2), 0.0, max(p1 - s2 / (1 - p1), 0.0)),
        (p1 * p1 / (p1 * p1 + s2), max(1 - p1 - s2 / p1, 0.0), 0.0),
    )

    def distance(params):
        return max(abs(a - b) for a, b in zip(params, (gamma, e_plus, e_minus)))

    g, ep, em = max(ends, key=distance)
    dist = distance((g, ep, em))
    if ep + em >= 1.0 - 1e-9 or dist < WITNESS_MIN_DISTANCE:
        raise SearchExhaustedError(
            "the statistics pin the parameters: the matching parameters farthest "
            f"from the input lie within WITNESS_MIN_DISTANCE = {WITNESS_MIN_DISTANCE} "
            "of it or are not informative (e_plus' + e_minus' >= 1 - 1e-9)"
        )
    residual = max(
        abs(x - y) for x, y in zip(binary_stats(g, ep, em).as_tuple(), stats.as_tuple())
    )
    return Witness(g, ep, em, residual, dist)


def mpe_forward(pi_tilde_minus: float, pi_tilde_plus: float) -> tuple[float, float]:
    """Inverse-mixture proportions to inverse noise rates."""
    denom = 1.0 - pi_tilde_minus * pi_tilde_plus
    if denom <= 0:
        raise SingularConversionError("requires pi_tilde_minus * pi_tilde_plus < 1")
    pi_minus = pi_tilde_minus * (1.0 - pi_tilde_plus) / denom
    pi_plus = pi_tilde_plus * (1.0 - pi_tilde_minus) / denom
    return pi_minus, pi_plus


def mpe_inverse(pi_minus: float, pi_plus: float) -> tuple[float, float]:
    """Inverse noise rates back to inverse-mixture proportions."""
    if pi_plus >= 1.0 or pi_minus >= 1.0:
        raise SingularConversionError("requires pi_minus < 1 and pi_plus < 1")
    return pi_minus / (1.0 - pi_plus), pi_plus / (1.0 - pi_minus)


def mpe_noise_rates(
    pi_minus: float, pi_plus: float, p_tilde: float
) -> tuple[float, float]:
    """Inverse noise rates plus the noisy-positive marginal to noise rates.

    Returns (e_minus, e_plus) = (P(noisy=+1 | Y=-1), P(noisy=-1 | Y=+1)).
    """
    p_neg = pi_plus * p_tilde + (1.0 - pi_minus) * (1.0 - p_tilde)
    p_pos = (1.0 - pi_plus) * p_tilde + pi_minus * (1.0 - p_tilde)
    if p_neg <= 0 or p_pos <= 0:
        raise DegenerateClassError("implied class masses must be strictly positive")
    e_minus = pi_plus * p_tilde / p_neg
    e_plus = pi_minus * (1.0 - p_tilde) / p_pos
    return e_minus, e_plus


def err_metric(T_hat, T, permutation_invariant: bool = False) -> float:
    """Mean absolute entrywise deviation, percent scale."""
    a, b = _as_array(T_hat), _as_array(T)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    if permutation_invariant:
        _, a = align_permutation(a, b)
    K = a.shape[0]
    return float(np.abs(a - b).sum() / (K * K) * 100.0)


def mixing_bound(T1, T2, T_star) -> tuple[float, float, bool]:
    """Lower bound on the joint error of any single estimate for two groups:
    ||T1 - T*||_F + ||T2 - T*||_F >= ||T1 - T2||_F / sqrt(2)."""
    a, b, c = _as_array(T1), _as_array(T2), _as_array(T_star)
    if not (a.shape == b.shape == c.shape):
        raise DimensionError("all three matrices must share a shape")
    lhs = float(np.linalg.norm(a - c) + np.linalg.norm(b - c))
    rhs = float(np.linalg.norm(a - b) / math.sqrt(2.0))
    return lhs, rhs, lhs >= rhs - 1e-12
