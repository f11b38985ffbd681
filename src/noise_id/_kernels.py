"""The latent-class model behind every fit, and its moment-matching solver.

An order-p tensor is modelled as sum_y w[y] * F_1[y] (x) ... (x) F_p[y] for a
prior w and p row-stochastic factor matrices (`forward`). The factors are
either tied (one factor T on every axis, p i.i.d. noisy labels) or distinct
(one factor per axis, e.g. two features plus one noisy label); the number of
factors given says which. The prior and each factor row are parameterised by
softmax logits, and one numpy function, `_residual_jac`, gives the residual
and its Jacobian with respect to those logits for both cases and any p.

A local fit runs gradient descent with backtracking line search on the
squared residual (gradient 2 J^T r), then a Levenberg-Marquardt polish that
brings exact-tensor fits down to machine precision. `refine_boundary` pins
near-zero entries to a logit of -inf, where the softmax value and the
Jacobian column are exactly 0, and reruns the same polish on the rest.
`solve` runs seeded restarts of tied or distinct fits under one stopping
rule: a fit is done when its residual is within the sampling noise of the
tensor, or within RESIDUAL_FLOOR for an exact tensor.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .errors import ConvergenceWarning

DESCENT_ITER = 5000
DESCENT_GTOL = 1e-10
DESCENT_FTOL = 1e-26
LM_ITER = 500
BOUNDARY_TOL = 1e-5
RESIDUAL_FLOOR = 1e-10

# einsum letters for the observed axes; y is the hidden state, z and i index
# the prior and factor logits
_AXES = "abcdefghjklmnopqrstuvwx"


@functools.cache
def _specs(p):
    """einsum subscripts of the order-p model, of its derivative in the prior
    and of its derivative in the factor of each axis, built once per p."""
    ax = _AXES[:p]
    ops = ["y" + a for a in ax]
    return (
        "y," + ",".join(ops) + "->" + ax,
        "yz," + ",".join(ops) + "->" + ax + "z",
        tuple(
            ",".join([ops[k] + "i", "y", *ops[:k], *ops[k + 1 :]]) + "->" + ax + "yi"
            for k in range(p)
        ),
    )


def forward(w, factors):
    """The latent-class tensor sum_y w[y] * prod_k factors[k][y, j_k]."""
    return np.einsum(_specs(len(factors))[0], w, *factors)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _split(theta, K, dims):
    """Prior and factor matrices (one per entry of dims) from the logits."""
    mats, off = [], K
    for d in dims:
        mats.append(_softmax(theta[off : off + K * d].reshape(K, d)))
        off += K * d
    return _softmax(theta[:K]), mats


@functools.cache
def _eye(k):
    """A read-only k x k identity made once: a fresh np.eye on every
    Jacobian costs a few per cent of a small solve."""
    eye = np.eye(k)
    eye.setflags(write=False)
    return eye


def _softmax_jac(P):
    """S[..., a, i] = d P[..., a] / d logit[..., i] = P_a (delta_ai - P_i)."""
    return P[..., :, None] * (_eye(P.shape[-1]) - P[..., None, :])


def _residual_jac(theta, target, K, dims):
    """Residual (model - target, flattened) and its Jacobian wrt theta.

    The order p is target.ndim. One entry in dims ties the factor: the same
    matrix on all p axes, so its Jacobian is the sum of the p axis blocks.
    Otherwise dims holds one cardinality per axis.
    """
    p = target.ndim
    _, prior_spec, factor_specs = _specs(p)
    w, mats = _split(theta, K, dims)
    S = [_softmax_jac(M) for M in mats]
    tied = len(dims) < p
    if tied:
        mats, S = mats * p, S * p
    r = (forward(w, mats) - target).ravel()
    n = r.size
    blocks = [
        np.einsum(spec, S[k], w, *mats[:k], *mats[k + 1 :]).reshape(n, -1)
        for k, spec in enumerate(factor_specs)
    ]
    if tied:
        blocks = [sum(blocks[1:], blocks[0])]
    prior = np.einsum(prior_spec, _softmax_jac(w), *mats).reshape(n, K)
    return r, np.concatenate([prior, *blocks], axis=1)


def _value_grad(theta, target, K, dims):
    r, J = _residual_jac(theta, target, K, dims)
    return r @ r, 2.0 * (r @ J)


def _descend(theta, target, K, dims):
    f, g = _value_grad(theta, target, K, dims)
    step = 1.0
    for _ in range(DESCENT_ITER):
        gn2 = g @ g
        if np.sqrt(gn2) < DESCENT_GTOL or f < DESCENT_FTOL:
            break
        step = min(step * 2.0, 1e6)
        while step >= 1e-18:
            nt = theta - step * g
            nf, ng = _value_grad(nt, target, K, dims)
            if nf <= f - 1e-4 * step * gn2:
                theta, f, g = nt, nf, ng
                break
            step *= 0.5
        else:
            break
    return theta


def _polish(theta, target, K, dims):
    """Levenberg-Marquardt refinement, until a step no longer improves the
    squared residual or it falls below 1e-30."""
    lam = 1e-6
    r, J = _residual_jac(theta, target, K, dims)
    f = r @ r
    eye = np.eye(theta.size)
    for _ in range(LM_ITER):
        JtJ = J.T @ J
        Jtr = J.T @ r
        improved = False
        for _ in range(40):
            nt = theta - np.linalg.solve(JtJ + lam * eye, Jtr)
            nr, nJ = _residual_jac(nt, target, K, dims)
            nf = nr @ nr
            if nf < f:
                theta, r, J, f = nt, nr, nJ, nf
                lam = max(lam * 0.3, 1e-12)
                improved = True
                break
            lam *= 10.0
            if lam > 1e12:
                break
        if not improved or f < 1e-30:
            break
    return theta, float(f)


def _fit(target, K, dims, theta0):
    theta = _descend(theta0, target, K, dims)
    theta, f = _polish(theta, target, K, dims)
    w, mats = _split(theta, K, dims)
    return theta, f, w, mats


def fit_symmetric(target, K, theta0):
    """One local solve of the tied-factor problem from theta0.

    Returns (theta, squared residual, prior, T).
    """
    theta, f, w, mats = _fit(target, K, (K,), theta0)
    return theta, f, w, mats[0]


def fit_general(target, K, dims, theta0):
    """One local solve of the distinct-factor problem (one cardinality per
    axis in dims) from theta0.

    Returns (theta, squared residual, prior, factor list).
    """
    return _fit(target, K, dims, theta0)


def refine_boundary(target, w, mats):
    """Re-polish a near-boundary solution with its zero pattern pinned.

    Row-wise softmax can only approach zero entries asymptotically, which
    stalls convergence when the true prior or factor matrices contain exact
    zeros. This pins entries below BOUNDARY_TOL to zero (logit -inf) and
    re-runs the Levenberg-Marquardt polish over the remaining entries, where
    convergence is quadratic again. One matrix in mats is a tied factor.

    Returns (squared residual, prior, factor list) or None when the solution
    has no near-zero entries to pin. The caller keeps the result only if it
    improves the residual.
    """
    parts = [w, *mats]
    keep = [p > BOUNDARY_TOL for p in parts]
    if all(k.all() for k in keep):
        return None
    # every softmax row needs one finite logit, or it would be all -inf
    if not all(k.any(axis=-1).all() for k in keep):
        return None
    with np.errstate(divide="ignore"):
        theta = np.concatenate(
            [np.log(np.where(k, p, 0.0)).ravel() for p, k in zip(parts, keep)]
        )
    K = parts[0].size
    dims = tuple(M.shape[1] for M in parts[1:])
    theta, f = _polish(theta, target, K, dims)
    w2, out = _split(theta, K, dims)
    return f, w2, out


def solve(target, K, dims, restarts, seed, n):
    """Multi-start fit of a prior and factors to an order-p tensor estimated
    from n records (n = inf for an exact tensor). dims = (K,) fits one tied
    factor; one cardinality per axis fits distinct factors.

    tol = max(sqrt((1 - sum target**2) / n), RESIDUAL_FLOOR) is the residual
    that sampling n records leaves. Restart r runs `fit_symmetric` or
    `fit_general` from logits drawn from default_rng((seed, r)), then
    `refine_boundary` when its residual is above tol; the first restart at or
    below tol ends the search. Returns the best (squared residual, prior,
    factor list), every restart's residual after its refine, and converged
    (the best is at or below tol).
    """
    tol = max(math.sqrt(max(1.0 - float(np.sum(target**2)), 0.0) / n), RESIDUAL_FLOOR)
    tied = len(dims) < target.ndim
    best, per_restart = None, []
    for r in range(restarts):
        theta0 = np.random.default_rng((seed, r)).standard_normal(K + K * sum(dims))
        if tied:
            _, f, w, T = fit_symmetric(target, K, theta0)
            mats = [T]
        else:
            _, f, w, mats = fit_general(target, K, dims, theta0)
        if f > tol**2:
            refined = refine_boundary(target, w, mats)
            if refined is not None and refined[0] < f:
                f, w, mats = refined
        per_restart.append(math.sqrt(f))
        if best is None or f < best[0]:
            best = (f, w, mats)
        if f <= tol**2:
            break
    converged = best[0] <= tol**2
    if not converged:
        warnings.warn(
            f"fit did not reach residual {tol:.1e} after {len(per_restart)} "
            f"restarts (best {math.sqrt(best[0]):.3e}); returning best effort",
            ConvergenceWarning,
        )
    return (*best, per_restart, converged)
