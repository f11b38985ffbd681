"""The moment-matching solver for the latent-class model behind every fit.

An order-3 tensor is modelled as sum_y w[y] * A[y] (x) B[y] (x) C[y] for a
prior w and three row-stochastic factor matrices. The factors are either tied
(A = B = C = T, three i.i.d. noisy labels) or distinct (two features plus one
noisy label). The prior and each factor row are parameterised by softmax
logits, and one numpy function, `_residual_jac`, gives the residual and its
Jacobian with respect to those logits for both cases.

A local fit runs gradient descent with backtracking line search on the
squared residual (gradient 2 J^T r), then a Levenberg-Marquardt polish that
brings exact-tensor fits down to machine precision. `refine_boundary` pins
near-zero entries to a logit of -inf, where the softmax value and the
Jacobian column are exactly 0, and reruns the same polish on the rest.
"""

from __future__ import annotations

import numpy as np

DESCENT_ITER = 5000
DESCENT_GTOL = 1e-10
DESCENT_FTOL = 1e-26
POLISH_ITER = 60


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


def _softmax_jac(P):
    """S[..., a, i] = d P[..., a] / d logit[..., i] = P_a (delta_ai - P_i)."""
    return P[..., :, None] * (np.eye(P.shape[-1]) - P[..., None, :])


def _residual_jac(theta, target, K, dims, tied):
    """Residual (model - target, flattened) and its Jacobian wrt theta.

    Tied fits take dims = (K,) and use the single factor on all three axes,
    so their factor Jacobian is the sum of the three axis blocks.
    """
    w, mats = _split(theta, K, dims)
    S = [_softmax_jac(M) for M in mats]
    if tied:
        mats, S = mats * 3, S * 3
    A, B, C = mats
    r = (np.einsum("y,ya,yb,yc->abc", w, A, B, C) - target).ravel()
    n = r.size
    blocks = [
        np.einsum("yz,ya,yb,yc->abcz", _softmax_jac(w), A, B, C).reshape(n, K),
        np.einsum("yai,y,yb,yc->abcyi", S[0], w, B, C).reshape(n, -1),
        np.einsum("ybi,y,ya,yc->abcyi", S[1], w, A, C).reshape(n, -1),
        np.einsum("yci,y,ya,yb->abcyi", S[2], w, A, B).reshape(n, -1),
    ]
    if tied:
        blocks = [blocks[0], blocks[1] + blocks[2] + blocks[3]]
    return r, np.concatenate(blocks, axis=1)


def _value_grad(theta, target, K, dims, tied):
    r, J = _residual_jac(theta, target, K, dims, tied)
    return r @ r, 2.0 * (r @ J)


def _descend(theta, target, K, dims, tied):
    f, g = _value_grad(theta, target, K, dims, tied)
    step = 1.0
    for _ in range(DESCENT_ITER):
        gn2 = g @ g
        if np.sqrt(gn2) < DESCENT_GTOL or f < DESCENT_FTOL:
            break
        step = min(step * 2.0, 1e6)
        while step >= 1e-18:
            nt = theta - step * g
            nf, ng = _value_grad(nt, target, K, dims, tied)
            if nf <= f - 1e-4 * step * gn2:
                theta, f, g = nt, nf, ng
                break
            step *= 0.5
        else:
            break
    return theta


def _polish(theta, target, K, dims, tied, max_iter):
    """Levenberg-Marquardt refinement to machine precision."""
    lam = 1e-6
    r, J = _residual_jac(theta, target, K, dims, tied)
    f = r @ r
    eye = np.eye(theta.size)
    for _ in range(max_iter):
        JtJ = J.T @ J
        Jtr = J.T @ r
        improved = False
        for _ in range(40):
            nt = theta - np.linalg.solve(JtJ + lam * eye, Jtr)
            nr, nJ = _residual_jac(nt, target, K, dims, tied)
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


def _fit(target, K, dims, tied, theta0):
    target = np.asarray(target, dtype=np.float64)
    theta = _descend(np.asarray(theta0, dtype=np.float64), target, K, dims, tied)
    theta, f = _polish(theta, target, K, dims, tied, POLISH_ITER)
    w, mats = _split(theta, K, dims)
    return theta, f, w, mats


def fit_symmetric(target, K, theta0):
    """One local solve of the tied-factor problem from theta0.

    Returns (theta, squared residual, prior, T).
    """
    theta, f, w, mats = _fit(target, K, (K,), True, theta0)
    return theta, f, w, mats[0]


def fit_general(target, K, dims, theta0):
    """One local solve of the three-factor problem from theta0.

    Returns (theta, squared residual, prior, [A, B, C]).
    """
    return _fit(target, K, dims, False, theta0)


def refine_boundary(target, w, mats, tied, tol=1e-5, iters=100):
    """Re-polish a near-boundary solution with its zero pattern pinned.

    Row-wise softmax can only approach zero entries asymptotically, which
    stalls convergence when the true prior or factor matrices contain exact
    zeros. This pins entries below ``tol`` to zero (logit -inf) and re-runs
    the Levenberg-Marquardt polish over the remaining entries, where
    convergence is quadratic again.

    Returns (squared residual, prior, factor list) or None when the solution
    has no near-zero entries to pin. The caller keeps the result only if it
    improves the residual.
    """
    parts = [np.asarray(w, dtype=np.float64)]
    parts += [np.asarray(M, dtype=np.float64) for M in mats]
    keep = [p > tol for p in parts]
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
    target = np.asarray(target, dtype=np.float64)
    theta, f = _polish(theta, target, K, dims, tied, iters)
    w2, out = _split(theta, K, dims)
    return f, w2, out
