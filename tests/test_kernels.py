"""Residual/Jacobian correctness of the solver kernel, local fits and the
boundary refinement."""

import numpy as np
import pytest

from noise_id import _kernels

from .oracles import _gen_residual_jac, _sym_residual_jac


def num_grad(fun, theta, h=1e-6):
    g = np.empty_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (fun(tp) - fun(tm)) / (2 * h)
    return g


def sym_target(K, seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(K))
    T = rng.dirichlet(np.ones(K), size=K)
    return np.einsum("y,ya,yb,yc->abc", w, T, T, T)


def sym_residual_jac(theta, target, K):
    return _kernels._residual_jac(theta, target, K, (K,), True)


class TestResidualJacobian:
    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_tied_matches_scalar_oracle(self, K):
        target = sym_target(K, 10 + K)
        theta = np.random.default_rng(K).standard_normal(K + K * K)
        r, J = sym_residual_jac(theta, target, K)
        r0, J0 = _sym_residual_jac(theta, target, K)
        assert np.abs(r - r0).max() < 1e-14
        assert np.abs(J - J0).max() < 1e-14

    @pytest.mark.parametrize("K,dims", [(2, (2, 3, 2)), (3, (4, 4, 3))])
    def test_general_matches_scalar_oracle(self, K, dims):
        rng = np.random.default_rng(sum(dims))
        w = rng.dirichlet(np.ones(K))
        mats = [rng.dirichlet(np.ones(d), size=K) for d in dims]
        target = np.einsum("y,ya,yb,yc->abc", w, *mats)
        theta = rng.standard_normal(K + K * sum(dims))
        r, J = _kernels._residual_jac(theta, target, K, dims, False)
        r0, J0 = _gen_residual_jac(theta, target, K, *dims)
        assert np.abs(r - r0).max() < 1e-14
        assert np.abs(J - J0).max() < 1e-14


class TestSymmetricKernel:
    @pytest.mark.parametrize("K", [2, 3])
    def test_gradient_matches_finite_differences(self, K):
        target = sym_target(K, 0)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(K + K * K)
        r, J = sym_residual_jac(theta, target, K)

        def value(t):
            rt = sym_residual_jac(t, target, K)[0]
            return rt @ rt

        assert np.abs(2.0 * (r @ J) - num_grad(value, theta)).max() < 1e-7

    @pytest.mark.parametrize("K", [2, 3])
    def test_jacobian_matches_finite_differences(self, K):
        target = sym_target(K, 2)
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(K + K * K)
        r, J = sym_residual_jac(theta, target, K)
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += 1e-6
            tm[j] -= 1e-6
            col = (
                sym_residual_jac(tp, target, K)[0]
                - sym_residual_jac(tm, target, K)[0]
            ) / 2e-6
            assert np.abs(J[:, j] - col).max() < 1e-7

    def test_fit_reaches_machine_precision(self):
        K = 2
        target = sym_target(K, 6)
        rng = np.random.default_rng(7)
        _, f, w, T = _kernels.fit_symmetric(target, K, rng.standard_normal(K + K * K))
        assert f < 1e-20
        np.testing.assert_allclose(T.sum(axis=1), 1.0, atol=1e-12)
        assert w.sum() == pytest.approx(1.0)


class TestGeneralKernel:
    def test_gradient_matches_finite_differences(self):
        K, dims = 2, (2, 3, 2)
        rng = np.random.default_rng(8)
        w = rng.dirichlet(np.ones(K))
        mats = [rng.dirichlet(np.ones(d), size=K) for d in dims]
        target = np.einsum("y,ya,yb,yc->abc", w, *mats)
        theta = rng.standard_normal(K + K * sum(dims))
        r, J = _kernels._residual_jac(theta, target, K, dims, False)

        def value(t):
            rt = _kernels._residual_jac(t, target, K, dims, False)[0]
            return rt @ rt

        assert np.abs(2.0 * (r @ J) - num_grad(value, theta)).max() < 1e-7

    def test_fit_recovers_tensor(self):
        K, dims = 2, (2, 2, 2)
        rng = np.random.default_rng(9)
        w = rng.dirichlet(np.ones(K))
        mats = [rng.dirichlet(np.ones(d), size=K) for d in dims]
        target = np.einsum("y,ya,yb,yc->abc", w, *mats)
        _, f, w2, mats2 = _kernels.fit_general(
            target, K, dims, rng.standard_normal(K + K * sum(dims))
        )
        model = np.einsum("y,ya,yb,yc->abc", w2, *mats2)
        assert np.abs(model - target).max() < 1e-9 or f < 1e-18


class TestBoundaryRefinement:
    def test_pins_zero_pattern(self):
        K = 2
        w = np.array([0.5, 0.5])
        T = np.array([[1.0, 0.0], [0.0, 1.0]])
        target = np.einsum("y,ya,yb,yc->abc", w, T, T, T)
        # perturb towards the interior as a softmax fit would leave it
        w0 = np.array([0.5001, 0.4999])
        T0 = np.array([[0.999999, 1e-6], [1e-6, 0.999999]])
        f, w2, out = _kernels.refine_boundary(target, w0, [T0], tied=True)
        assert f < 1e-25
        np.testing.assert_array_equal(out[0][0, 1], 0.0)

    def test_interior_solution_returns_none(self):
        w = np.array([0.5, 0.5])
        T = np.array([[0.8, 0.2], [0.3, 0.7]])
        target = np.einsum("y,ya,yb,yc->abc", w, T, T, T)
        assert _kernels.refine_boundary(target, w, [T], tied=True) is None

    @pytest.mark.parametrize("w", [[0.5, 0.3, 0.2], [0.6, 0.4, 0.0]])
    def test_general_pins_zero_pattern(self, w):
        K = 3
        w = np.array(w)
        A = np.array([[0.7, 0.3, 0.0], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
        B = np.random.default_rng(11).dirichlet(np.ones(4), size=K)
        C = np.array([[0.8, 0.1, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]])
        target = np.einsum("y,ya,yb,yc->abc", w, A, B, C)
        # an interior point near the truth, as a softmax fit would leave it
        rng = np.random.default_rng(12)

        def nudge(P):
            P = np.maximum(P, 1e-6) * (1.0 + 1e-4 * rng.standard_normal(P.shape))
            return P / P.sum(axis=-1, keepdims=True)

        start = [nudge(P) for P in (w, A, B, C)]
        # a 0 * inf anywhere on the pinned logits would raise here
        with np.errstate(invalid="raise"):
            f, w2, out = _kernels.refine_boundary(target, start[0], start[1:], tied=False)
            with np.errstate(divide="ignore"):
                theta = np.concatenate([np.log(P).ravel() for P in [w2, *out]])
            r, J = _kernels._residual_jac(theta, target, K, (3, 4, 3), False)
        assert out[0][0, 2] == 0.0
        assert f < 1e-25
        assert not np.isnan(r).any() and not np.isnan(J).any()
        assert r @ r == pytest.approx(f, rel=1e-6, abs=1e-30)
        pinned = np.flatnonzero(np.isneginf(theta))
        assert (J[:, pinned] == 0.0).all()
        np.testing.assert_array_equal(w2 == 0.0, w == 0.0)
