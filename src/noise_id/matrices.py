"""Core matrix types, Kruskal rank, and permutation alignment.

Everything in here is pure and operates on dense float64 arrays. Row
semantics throughout: a transition or observation matrix maps hidden state
(row) to observed outcome (column), and each row is a probability
distribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DimensionError, ValidationError

ROW_SUM_TOL = 1e-9
DEFAULT_TOL = 1e-8
MAX_KRUSKAL_ROWS = 12
MAX_ALIGN_K = 10


def _as_array(m) -> np.ndarray:
    if hasattr(m, "entries"):
        m = m.entries
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def _check_row_stochastic(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} contains non-finite entries")
    if (a < -ROW_SUM_TOL).any() or (a > 1 + ROW_SUM_TOL).any():
        raise ValidationError(f"{what} has entries outside [0, 1]")
    sums = a.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"{what} row {i} sums to {sums[i]!r}, not 1")


@dataclass(frozen=True)
class ObsMatrix:
    """K x kappa conditional-distribution matrix linking hidden state to one
    observed variable. Rows are distributions over the kappa outcomes."""

    entries: np.ndarray

    def __post_init__(self):
        a = _as_array(self.entries)
        _check_row_stochastic(a, "observation matrix")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    @property
    def kappa(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic K x K noise transition matrix: entry (i, j) is the
    probability that clean class i is observed as noisy class j."""

    entries: np.ndarray

    def __post_init__(self):
        a = _as_array(self.entries)
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"transition matrix must be square, got {a.shape}")
        if a.shape[0] < 2:
            raise ValidationError("transition matrix needs K >= 2")
        _check_row_stochastic(a, "transition matrix")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    def as_obs(self) -> ObsMatrix:
        return ObsMatrix(self.entries)


@dataclass(frozen=True)
class Prior:
    """Probability vector over the K hidden classes."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValidationError("prior must be a 1-D vector")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValidationError("prior entries must be finite and >= 0")
        if abs(w.sum() - 1.0) > ROW_SUM_TOL:
            raise ValidationError(f"prior sums to {w.sum()!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def K(self) -> int:
        return self.weights.shape[0]

    @property
    def non_degenerate(self) -> bool:
        return bool((self.weights > 0).all())


@dataclass(frozen=True)
class Scenario:
    """A parameter point: a transition matrix together with a class prior."""

    T: TransitionMatrix
    prior: Prior

    def __post_init__(self):
        if self.T.K != self.prior.K:
            raise DimensionError(
                f"transition matrix K={self.T.K} but prior K={self.prior.K}"
            )

    @property
    def K(self) -> int:
        return self.T.K


def _subset_independent(rows: np.ndarray, tol: float) -> bool:
    """Linear independence via the scale-free singular-value ratio test."""
    if rows.shape[0] > rows.shape[1]:
        return False
    s = np.linalg.svd(rows, compute_uv=False)
    return s[0] > 0 and s[-1] > tol * s[0]


def kruskal_rank(M, tol: float = DEFAULT_TOL) -> int:
    """Largest I such that every set of I rows of M is linearly independent.

    0 if any row is numerically zero. Enumerates subsets from size 1 upward
    and stops at the first dependent one; practical for up to
    ``MAX_KRUSKAL_ROWS`` rows.
    """
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    a = _as_array(M)
    n = a.shape[0]
    if n > MAX_KRUSKAL_ROWS:
        raise CapabilityError(
            f"kruskal_rank supports at most {MAX_KRUSKAL_ROWS} rows, got {n}"
        )
    kr = 0
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            if not _subset_independent(a[list(idx)], tol):
                return kr
        kr = size
    return kr


def numerical_rank(M, tol: float = DEFAULT_TOL) -> int:
    """Count of singular values above tol times the largest one."""
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    a = _as_array(M)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int((s > tol * s[0]).sum())


def frobenius_distance(A, B) -> float:
    a, b = _as_array(A), _as_array(B)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def check_align_k(K, what) -> None:
    """Refuse K above MAX_ALIGN_K, where the K! alignment search stops being
    practical; `what` names the caller in the message."""
    if K > MAX_ALIGN_K:
        raise CapabilityError(f"{what} supports K <= {MAX_ALIGN_K} (MAX_ALIGN_K), got K={K}")


def _best_permutation(score) -> tuple[int, ...]:
    """The permutation perm maximizing sum_j score[perm[j], j] over all K!
    of them; the lexicographically smallest one wins ties (within 1e-15)."""
    K = score.shape[0]
    cols = np.arange(K)
    best_perm, best_val = None, -np.inf
    for perm in itertools.permutations(range(K)):
        val = score[perm, cols].sum()
        if val > best_val + 1e-15:
            best_perm, best_val = perm, val
    return best_perm


def align_permutation(T_hat, T_ref) -> tuple[tuple[int, ...], np.ndarray]:
    """Row permutation of T_hat minimizing the Frobenius distance to T_ref.

    Exhaustive over all K! permutations (exact; documented limit K <= 10).
    Ties broken by the lexicographically smallest permutation. Returns
    (permutation, aligned copy of T_hat) where aligned[i] = T_hat[perm[i]].
    """
    a, b = _as_array(T_hat), _as_array(T_ref)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    check_align_k(a.shape[0], "align_permutation")
    # cost[i, j] = squared distance of T_hat row i placed at reference row j;
    # negating it is exact, so the search compares the same sums
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    perm = _best_permutation(-cost)
    return perm, a[list(perm)]


def max_trace_permutation(T_hat) -> tuple[tuple[int, ...], np.ndarray]:
    """Row permutation maximizing the trace (diagonal dominance convention)."""
    a = _as_array(T_hat)
    check_align_k(a.shape[0], "max_trace_permutation")
    perm = _best_permutation(a)
    return perm, a[list(perm)]
