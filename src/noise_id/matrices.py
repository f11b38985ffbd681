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
RANK_TOL = 1e-8
MAX_KRUSKAL_ROWS = 12
MAX_ALIGN_K = 10


def _as_array(m, what="matrix") -> np.ndarray:
    """m (or its entries) as a float64 array: 2-D, every entry finite."""
    if hasattr(m, "entries"):
        m = m.entries
    try:
        a = np.asarray(m, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{what} is not numeric: {e}") from None
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} contains non-finite entries")
    return a


def _check_distributions(a: np.ndarray, what: str) -> None:
    """Refuse a unless it holds probability distributions: every entry
    finite and >= -ROW_SUM_TOL, and every last-axis row (a 1-D a is one
    row) summing to 1 within ROW_SUM_TOL."""
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} contains non-finite entries")
    if (a < -ROW_SUM_TOL).any():
        raise ValidationError(f"{what} entries must be >= 0, got {float(a.min())!r}")
    sums = a.sum(axis=-1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        row = f" row {bad[0]}" if a.ndim > 1 else ""
        raise ValidationError(f"{what}{row} sums to {float(sums.flat[bad[0]])!r}, not 1")


@dataclass(frozen=True)
class ObsMatrix:
    """K x kappa conditional-distribution matrix linking hidden state to one
    observed variable. Rows are distributions over the kappa outcomes."""

    entries: np.ndarray
    _what = "observation matrix"

    def __post_init__(self):
        a = _as_array(self.entries, self._what)
        _check_distributions(a, self._what)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    @property
    def kappa(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class TransitionMatrix(ObsMatrix):
    """Row-stochastic K x K noise transition matrix: entry (i, j) is the
    probability that clean class i is observed as noisy class j. It is the
    observation matrix of a noisy label, so it goes wherever one does."""

    _what = "transition matrix"

    def __post_init__(self):
        super().__post_init__()
        if self.K != self.kappa:
            raise DimensionError(f"transition matrix must be square, got {self.entries.shape}")
        if self.K < 2:
            raise ValidationError("transition matrix needs K >= 2")


@dataclass(frozen=True)
class Prior:
    """Probability vector over the K hidden classes."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValidationError("prior must be a 1-D vector")
        _check_distributions(w, "prior")
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


def _independent(rows: np.ndarray) -> bool:
    """Linear independence: the smallest singular value of the rows exceeds
    RANK_TOL times the largest."""
    if rows.shape[0] > rows.shape[1]:
        return False
    s = np.linalg.svd(rows, compute_uv=False)
    return s[0] > 0 and s[-1] > RANK_TOL * s[0]


def kruskal_rank(M) -> int:
    """Largest I such that every set of I rows of M is linearly independent.

    0 if any row is numerically zero. One SVD settles a matrix whose rows
    are all independent, at any size: by Cauchy interlacing no subset of
    them has a smaller singular-value ratio. Otherwise subsets are
    enumerated from size 1 upward to the first dependent one, which is
    practical for up to ``MAX_KRUSKAL_ROWS`` rows.
    """
    a = _as_array(M)
    n = a.shape[0]
    if n == 0 or _independent(a):
        return n
    if n > MAX_KRUSKAL_ROWS:
        raise CapabilityError(
            f"kruskal_rank supports at most {MAX_KRUSKAL_ROWS} rows, got {n}"
        )
    for size in range(1, n):
        for idx in itertools.combinations(range(n), size):
            if not _independent(a[list(idx)]):
                return size - 1
    return n - 1


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
