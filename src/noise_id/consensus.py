"""Consensus statistics, the (prior, T) recovery solver, MPE scalar
conversions, the two-label non-identifiability witness, and error metrics.

Binary conventions: class 1 is "+1" and class 2 is "-1". gamma = P(Y = +1),
e_plus = P(noisy = -1 | Y = +1), e_minus = P(noisy = +1 | Y = -1), so the
binary transition matrix is [[1 - e_plus, e_plus], [e_minus, 1 - e_minus]].
"""

from __future__ import annotations

import functools
import itertools
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
    _check_distributions,
)
from .identifiability import is_informative_label

SYMMETRY_TOL = 1e-6
MAX_JOINT_CELLS = 1024
WITNESS_MIN_DISTANCE = 0.01


@functools.cache
def _orbits(shape):
    """The orbit map of a tensor of the given shape, every axis K long: for
    each cell in C order, its orbit, named by the flat index of the orbit's
    sorted cell, and the orbit's size; an orbit is the cells whose indices
    form the same multiset. Made once per shape; read-only."""
    cells = np.indices(shape).reshape(len(shape), math.prod(shape))
    orbit = np.ravel_multi_index(tuple(np.sort(cells, axis=0)), shape).reshape(-1)
    size = np.bincount(orbit)[orbit]
    orbit.setflags(write=False)
    size.setflags(write=False)
    return orbit, size


def _symmetric_part(t, n=1):
    """The symmetric part of t divided by n: every cell becomes the sum of
    its orbit (see `_orbits`) over the orbit size times n, which is its
    mean over the p! orders of the axes, divided by n. The quotient is
    rounded once, so integer counts give each frequency correctly rounded."""
    orbit, size = _orbits(t.shape)
    return (np.bincount(orbit, weights=np.ravel(t))[orbit] / (size * n)).reshape(t.shape)


def _frozen(v) -> np.ndarray:
    """v as a read-only float64 array."""
    v = np.asarray(v, dtype=np.float64)
    v.setflags(write=False)
    return v


def _check_cells(dims):
    """Refuse a joint tensor of shape dims above MAX_JOINT_CELLS cells
    before anything is allocated."""
    cells = math.prod(dims)
    if cells > MAX_JOINT_CELLS:
        raise CapabilityError(
            f"a joint tensor of {len(dims)} observed variables has {cells} "
            f"cells, above the cap of {MAX_JOINT_CELLS} (MAX_JOINT_CELLS)"
        )


def exact_joint(prior: Prior, factors) -> np.ndarray:
    """Forward model of the latent-class model, a read-only array with one
    axis per factor (a matrix with one row per hidden state):
    joint[j1..jp] = sum_y prior[y] * prod_i factors[i][y, j_i]. p i.i.d.
    noisy labels are the factors [T] * p. Raises CapabilityError above
    MAX_JOINT_CELLS cells."""
    mats = [_as_array(f, "factor") for f in factors]
    if not mats:
        raise ValidationError("need at least one factor")
    if any(m.shape[0] != prior.K for m in mats):
        raise DimensionError(f"every factor needs one row per hidden state ({prior.K})")
    _check_cells([m.shape[1] for m in mats])
    return _frozen(_kernels.forward(prior.weights, mats))


def counts(columns, dims, n) -> np.ndarray:
    """The count tensor of shape dims of n records: axis i counts the
    0-based outcomes columns[i] (one per record). No columns count as the
    scalar n. Raises CapabilityError above MAX_JOINT_CELLS cells before
    anything is allocated."""
    _check_cells(dims)
    if not columns:  # one cell, which holds every record
        return np.asarray(n)
    # bincount copies a read-only index array, so the index is not broadcast
    cells = np.ravel_multi_index(tuple(columns), dims)
    return np.bincount(cells, minlength=math.prod(dims)).reshape(dims)


def empirical_joint(ds: NoisyDataset) -> np.ndarray:
    """The three-label moment of the p noisy labels per record, a read-only
    array of order min(p, 3): the frequency of ordered triples of distinct
    labels within a record (of the p-tuples when p <= 3), symmetrized for
    i.i.d. labels. It sums the count tensors of every three label columns
    and divides each orbit's count once, by its size times n * C(p, 3). The
    joint of p = 0 labels is the scalar 1. Raises CapabilityError above
    MAX_JOINT_CELLS cells."""
    if ds.n == 0:
        raise ValidationError("empty dataset")
    order = min(ds.p, 3)
    column_sets = itertools.combinations((ds.noisy - 1).T, order)
    c = sum(counts(cols, (ds.K,) * order, ds.n) for cols in column_sets)
    return _frozen(_symmetric_part(c, ds.n * math.comb(ds.p, order)))


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


def fit(target, tied, restarts=20, seed=0, n=math.inf) -> EstimateResult:
    """Fit a latent-class model to the tensor `target` estimated from n
    records (n = inf: an exact tensor), by `_kernels.solve`. The last axis
    is the noisy label, so its length is the number K of hidden states. A
    tied fit puts one K x K factor on every axis and fits the symmetric
    part of the target, its mean over the p! orders of its axes (a
    symmetric model is as far from a tensor as from its symmetric part,
    plus a constant, so this moves neither the minimum nor the gradient),
    summed over every axis after the third; otherwise the target has three
    axes, and axis k gets its own K x target.shape[k] factor.

    The last factor is the noisy label's transition matrix; the hidden
    states are ordered to maximize its trace (diagonal dominance), and the
    other factors, in the same order, are the `feature_models` (a tied fit
    has none). `residual` is the Frobenius norm of the remaining mismatch,
    and `converged` says whether a restart reached the sampling noise of n
    records (if not, the best fit comes with a ConvergenceWarning).

    Every target is checked here, before any fit: its cells form one
    distribution (`matrices._check_distributions`: finite, >= -1e-9, sum 1
    within 1e-9), it has three axes (or more, when tied), K >= 2 and, when
    tied, every axis is K long and no cell is more than SYMMETRY_TOL from
    its orbit mean, or ValidationError; K above MAX_ALIGN_K raises
    CapabilityError. restarts must be an integer >= 1, or ValidationError.
    """
    target = np.asarray(target, dtype=np.float64)
    _check_distributions(target.ravel(), "target tensor")
    if target.ndim != 3 and not (tied and target.ndim > 3):
        more = " or more" if tied else ""
        raise ValidationError(f"fit needs three axes{more}, got a target of order {target.ndim}")
    K = target.shape[-1]
    if K < 2:
        raise ValidationError(f"fit requires K >= 2 hidden classes, got K={K}")
    square = (K,) * target.ndim
    if tied:
        if target.shape != square:
            raise ValidationError(f"target tensor has shape {target.shape}, expected {square}")
        sym = _symmetric_part(target)
        defect = float(np.abs(target - sym).max())
        if defect > SYMMETRY_TOL:
            raise ValidationError(
                f"tensor is not symmetric (defect {defect:.3g}); symmetrize first"
            )
        # the tied fit's matrix-form gradient needs a symmetric residual; sums
        # over the trailing axes keep the symmetry to the bit (one term at p=3)
        target = sym.reshape(K, K, K, -1).sum(axis=3)
    check_align_k(K, "fit")
    if isinstance(restarts, bool) or not isinstance(restarts, (int, np.integer)) or restarts < 1:
        raise ValidationError(f"restarts must be an integer >= 1, got {restarts!r}")
    dims = (K,) if tied else target.shape
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
    i.i.d. noisy labels, or `empirical_joint`'s moment of any p) estimated
    from n records (the default, n = inf, is an exact tensor), by a tied
    `fit`, which checks its values, shape and symmetry (an asymmetric tensor
    raises ValidationError) and fits the order-3 marginal of its symmetric
    part. Fewer than three labels raise CapabilityError. A converged fit
    that violates the uniqueness preconditions (non-degenerate prior,
    full-rank T) comes with a warning."""
    if np.ndim(joint) < 3:
        raise CapabilityError(
            f"p={np.ndim(joint)} noisy labels per record; three conditionally "
            "independent labels are required for instance-level recovery"
        )
    result = fit(joint, True, restarts, seed, n)
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
    ||T1 - T*||_F + ||T2 - T*||_F >= ||T1 - T2||_F / sqrt(2). Each argument
    must be a transition matrix, or ValidationError."""
    a, b, c = (TransitionMatrix(m).entries for m in (T1, T2, T_star))
    if not (a.shape == b.shape == c.shape):
        raise DimensionError("all three matrices must share a shape")
    lhs = float(np.linalg.norm(a - c) + np.linalg.norm(b - c))
    rhs = float(np.linalg.norm(a - b) / math.sqrt(2.0))
    return lhs, rhs, lhs >= rhs - 1e-12
