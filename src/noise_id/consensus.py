"""Consensus statistics, the (prior, T) recovery solver, MPE scalar
conversions, the two-label non-identifiability witness, and error metrics.

Binary conventions: class 1 is "+1" and class 2 is "-1". gamma = P(Y = +1),
e_plus = P(noisy = -1 | Y = +1), e_minus = P(noisy = +1 | Y = -1), so the
binary transition matrix is [[1 - e_plus, e_plus], [e_minus, 1 - e_minus]].
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .datasets import NoisyDataset
from .errors import (
    DegenerateClassError,
    DimensionError,
    SearchExhaustedError,
    SingularConversionError,
    ValidationError,
    ConvergenceWarning,
)
from .matrices import (
    Prior,
    Scenario,
    TransitionMatrix,
    align_permutation,
    max_trace_permutation,
    _as_array,
)
from .identifiability import is_informative_label

SYMMETRY_TOL = 1e-6


@dataclass(frozen=True)
class JointTensor:
    """Order-p probability tensor over the joint outcomes of p observed
    K-ary variables."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim < 1:
            raise ValidationError("joint tensor must have order >= 1")
        if len(set(v.shape)) != 1:
            raise ValidationError("all axes must share the same cardinality")
        if (v < -1e-12).any():
            raise ValidationError("joint tensor values must be >= 0")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValidationError(f"joint tensor sums to {v.sum()!r}, not 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def p(self) -> int:
        return self.values.ndim

    @property
    def K(self) -> int:
        return self.values.shape[0]

    def marginalize(self, axis: int) -> "JointTensor":
        return JointTensor(self.values.sum(axis=axis))

    def symmetry_defect(self) -> float:
        v = self.values
        return max(
            float(np.abs(v - np.transpose(v, perm)).max())
            for perm in itertools.permutations(range(self.p))
        )


def exact_joint(s: Scenario, p: int) -> JointTensor:
    """Forward model: values[j1..jp] = sum_y prior[y] * prod_i T[y, j_i]."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    w = s.prior.weights
    T = s.T.entries
    K = s.K
    out = np.zeros((K,) * p)
    for y in range(K):
        cube = w[y]
        for _ in range(p):
            cube = np.multiply.outer(cube, T[y])
        out += cube
    return JointTensor(out)


def empirical_joint(ds: NoisyDataset) -> JointTensor:
    """Frequency tensor of the noisy-label p-tuples, symmetrized by averaging
    over axis permutations (valid for i.i.d. labels)."""
    if ds.n == 0:
        raise ValidationError("empty dataset")
    K, p = ds.K, ds.p
    counts = np.zeros((K,) * p)
    np.add.at(counts, tuple((ds.noisy - 1).T), 1.0)
    freq = counts / ds.n
    sym = np.zeros_like(freq)
    perms = list(itertools.permutations(range(p)))
    for perm in perms:
        sym += np.transpose(freq, perm)
    return JointTensor(sym / len(perms))


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
    scenario: Scenario
    residual: float
    restarts_used: int
    converged: bool
    permutation: tuple
    per_restart_residuals: list

    def __iter__(self):
        return iter((self.scenario, self.residual))


def estimate(
    joint: JointTensor,
    restarts: int = 20,
    seed=0,
    residual_target: float = 1e-10,
) -> EstimateResult:
    """Recover (prior, T) from an order-3 symmetric joint tensor.

    Multi-start local search: simplex coordinates through softmax, gradient
    descent with backtracking line search, then a Levenberg-Marquardt polish.
    Restart r uses the seed (seed, r), so restarts may run in any order with
    a deterministic best-of reduction. The output is aligned to a maximal
    trace (diagonal dominance). `residual` is the Frobenius norm of the
    remaining tensor mismatch.
    """
    if joint.p != 3:
        raise ValidationError("estimate requires an order-3 joint tensor")
    defect = joint.symmetry_defect()
    if defect > SYMMETRY_TOL:
        raise ValidationError(
            f"tensor is not symmetric (defect {defect:.3g}); symmetrize first"
        )
    K = joint.K
    target = np.asarray(joint.values)
    dim = K + K * K
    best = None
    per_restart = []
    used = 0
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        theta0 = rng.standard_normal(dim)
        _, f, w, T = _kernels.fit_symmetric(target, K, theta0)
        per_restart.append(math.sqrt(f))
        used += 1
        if best is None or f < best[0]:
            best = (f, w, T)
        if f < (residual_target**2) * 1e-2:
            break
    f, w, T = best
    if f > residual_target**2:
        refined = _kernels.refine_boundary(target, w, [T], tied=True)
        if refined is not None and refined[0] < f:
            f, w, T = refined[0], refined[1], refined[2][0]
    residual = math.sqrt(f)
    converged = residual <= residual_target
    if not converged:
        warnings.warn(
            f"estimate did not reach residual {residual_target:.1e} after "
            f"{used} restarts (best {residual:.3e}); returning best effort",
            ConvergenceWarning,
        )
    perm, T_aligned = max_trace_permutation(T)
    w_aligned = w[list(perm)]
    scenario = Scenario(
        T=TransitionMatrix(T_aligned), prior=Prior(w_aligned / w_aligned.sum())
    )
    if converged:
        if not scenario.prior.non_degenerate or not is_informative_label(scenario.T):
            warnings.warn(
                "recovered parameters violate the uniqueness preconditions "
                "(non-degenerate prior, full-rank T); the solution may not be unique"
            )
    return EstimateResult(
        scenario=scenario,
        residual=residual,
        restarts_used=used,
        converged=converged,
        permutation=perm,
        per_restart_residuals=per_restart,
    )


@dataclass(frozen=True)
class Witness:
    """Alternative binary parameters matching the input's two-label
    consensus statistics."""

    gamma: float
    e_plus: float
    e_minus: float
    residual: float
    distance: float


def witness_p2(
    gamma: float,
    e_plus: float,
    e_minus: float,
    seed=0,
    min_distance: float = 0.01,
    stats_tol: float = 1e-8,
    grid: int = 389,
) -> Witness:
    """Find distinct binary parameters with identical two-label statistics.

    The negative consensus is linearly dependent on the other two statistics
    (neg = 1 - 2*posterior + pos), so for each candidate prior gamma' the
    remaining two equations reduce to a quadratic in e_minus', solved in
    closed form. Candidate priors come from a seeded jittered grid over
    (0.02, 0.98). Witnesses must be informative (e_plus' + e_minus' < 1) and
    at max-abs distance >= min_distance from the input.
    """
    stats = binary_stats(gamma, e_plus, e_minus)
    p1, p2 = stats.posterior, stats.pos_consensus
    rng = np.random.default_rng(seed)
    base = np.linspace(0.02, 0.98, grid)
    gammas = np.clip(base + rng.uniform(-0.5, 0.5, grid) * (0.96 / grid), 0.02, 0.98)
    best = None
    for g in gammas:
        c = 1.0 - g
        # (c^2/g + c) b^2 - (2 p1 c / g) b + p1^2/g - p2 = 0, b = e_minus'
        qa = c * c / g + c
        qb = -2.0 * p1 * c / g
        qc = p1 * p1 / g - p2
        disc = qb * qb - 4 * qa * qc
        if disc < 0 or qa == 0:
            continue
        for b in ((-qb + math.sqrt(disc)) / (2 * qa), (-qb - math.sqrt(disc)) / (2 * qa)):
            if not 0.0 <= b <= 1.0:
                continue
            a = (p1 - c * b) / g
            if not 0.0 <= a <= 1.0:
                continue
            ep, em = 1.0 - a, b
            # informative-label constraint with a margin against roundoff
            # witnesses hugging the e+ + e- = 1 boundary
            if ep + em >= 1.0 - 1e-9:
                continue
            dist = max(abs(g - gamma), abs(ep - e_plus), abs(em - e_minus))
            if dist < min_distance:
                continue
            cand = binary_stats(g, ep, em)
            res = max(
                abs(x - y) for x, y in zip(cand.as_tuple(), stats.as_tuple())
            )
            if res > stats_tol:
                continue
            if best is None or res < best.residual:
                best = Witness(float(g), float(ep), float(em), float(res), float(dist))
        if best is not None and best.residual == 0.0:
            break
    if best is None:
        raise SearchExhaustedError(
            "no alternative parameters match the consensus statistics; the "
            "statistics pin the parameters (expected near degenerate corners)"
        )
    return best


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
