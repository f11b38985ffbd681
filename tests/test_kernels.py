"""Residual/Jacobian correctness of the solver kernel, local fits and the
boundary refinement."""

import numpy as np
import pytest

from noise_id import _kernels
from noise_id.consensus import empirical_joint
from noise_id.matrices import Prior
from noise_id.noisegen import asymmetric_T, sample_iid_noisy

from .oracles import _gen_residual_jac, _sym_residual_jac, outer_product_joint


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
    return outer_product_joint(w, [T] * 3)


def sym_residual_jac(theta, target, K):
    return _kernels._residual_jac(theta, target, K, (K,))


class TestForward:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_tied_matches_outer_products(self, p):
        rng = np.random.default_rng(p)
        w = rng.dirichlet(np.ones(3))
        T = rng.dirichlet(np.ones(3), size=3)
        want = outer_product_joint(w, [T] * p)
        np.testing.assert_allclose(_kernels.forward(w, [T] * p), want, rtol=0, atol=1e-16)

    def test_distinct_matches_outer_products(self):
        rng = np.random.default_rng(4)
        w = rng.dirichlet(np.ones(2))
        mats = [rng.dirichlet(np.ones(d), size=2) for d in (2, 4, 3, 2)]
        got = _kernels.forward(w, mats)
        assert got.shape == (2, 4, 3, 2)
        np.testing.assert_allclose(got, outer_product_joint(w, mats), rtol=0, atol=1e-16)


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
        r, J = _kernels._residual_jac(theta, target, K, dims)
        r0, J0 = _gen_residual_jac(theta, target, K, *dims)
        assert np.abs(r - r0).max() < 1e-14
        assert np.abs(J - J0).max() < 1e-14


class TestContractedGradient:
    """Descent takes its gradient from `_grad`, which contracts the residual
    tensor with the factors (for a tied factor, one matrix product with its
    Khatri-Rao square); LM takes the Jacobian from `_residual_jac`."""

    CASES = {
        "tied-p3": (3, (3,)),
        "tied-K2-p3": (2, (2,)),
        "tied-K4-p3": (4, (4,)),
        "tied-K5-p3": (5, (5,)),
        "tied-K8-p3": (8, (8,)),
        "distinct-232": (2, (2, 3, 2)),
        "distinct-443": (3, (4, 4, 3)),
    }

    def case(self, name, seed):
        K, dims = self.CASES[name]
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(K))
        mats = [rng.dirichlet(np.ones(d), size=K) for d in dims]
        target = outer_product_joint(w, mats * 3 if len(dims) == 1 else mats)
        return target, K, dims, rng.standard_normal(K + K * sum(dims))

    @pytest.mark.parametrize("name", CASES)
    def test_matches_jacobian_product(self, name):
        target, K, dims, theta = self.case(name, 30)
        r, J = _kernels._residual_jac(theta, target, K, dims)
        f, state = _kernels._value(theta, target, K, dims)
        # the same residual bits as the Jacobian's, so LM accepts as before
        assert f == r @ r
        assert np.abs(_kernels._grad(state) - 2.0 * (r @ J)).max() < 1e-12

    @pytest.mark.parametrize("name", [name for name in CASES if name.startswith("tied")])
    def test_tied_model_matches_forward(self, name):
        target, K, dims, theta = self.case(name, 33)
        _, (R, w, mats, _) = _kernels._value(theta, target, K, dims)
        want = _kernels.forward(w, mats * 3) - target
        assert np.abs(R - want).max() < 1e-15

    @pytest.mark.parametrize("name", CASES)
    def test_descent_forms_no_jacobian(self, name, monkeypatch):
        target, K, dims, theta = self.case(name, 31)

        def no_jacobian(*args):
            raise AssertionError("descent formed a Jacobian")

        monkeypatch.setattr(_kernels, "_residual_jac", no_jacobian)
        monkeypatch.setattr(_kernels, "DESCENT_ITER", 100)
        end = _kernels._descend(theta, target, K, dims)
        value = _kernels._value
        assert value(end, target, K, dims)[0] < value(theta, target, K, dims)[0]
        assert not hasattr(_kernels, "_value_grad")

    @pytest.mark.parametrize("name", CASES)
    def test_polish_forms_one_jacobian_per_accepted_step(self, name, monkeypatch):
        target, K, dims, theta = self.case(name, 32)
        residual_jac, value = _kernels._residual_jac, _kernels._value
        calls = {"jacobians": 0, "accepted": 0}
        lowest = []

        def counted_jac(*args):
            r, J = residual_jac(*args)
            calls["jacobians"] += 1
            if not lowest:
                lowest.append(r @ r)
            return r, J

        def counted_value(*args):
            f, state = value(*args)
            # LM accepts exactly the trials below the lowest value so far;
            # the Jacobian's own call comes before any trial
            if lowest and f < lowest[0]:
                lowest[0] = f
                calls["accepted"] += 1
            return f, state

        monkeypatch.setattr(_kernels, "_residual_jac", counted_jac)
        monkeypatch.setattr(_kernels, "_value", counted_value)
        _kernels._polish(theta, target, K, dims)
        assert calls["accepted"] > 0
        assert calls["jacobians"] == calls["accepted"] + 1


class TestPolishStopsAtAStall:
    def test_boundary_minimum(self, monkeypatch):
        # three labels sampled through a T with zeros: the least-squares
        # minimum lies on the simplex boundary, where each LM step only
        # drifts an entry of T towards 0
        ds = sample_iid_noisy(Prior([0.3, 0.3, 0.4]), asymmetric_T(3, 0.3), 3, 10_000, seed=2)
        target = empirical_joint(ds)
        theta = _kernels._descend(np.random.default_rng(2).standard_normal(12), target, 3, (3,))
        residual_jac, tol = _kernels._residual_jac, _kernels.LM_STALL
        steps, f = {}, {}

        def counted_jac(*args):
            steps[stall] += 1
            return residual_jac(*args)

        monkeypatch.setattr(_kernels, "_residual_jac", counted_jac)
        for stall in (tol, 0.0):
            steps[stall] = 0
            monkeypatch.setattr(_kernels, "LM_STALL", stall)
            f[stall] = _kernels._polish(theta, target, 3, (3,))[1]
        # one Jacobian at the start and one per accepted step
        assert steps[0.0] == _kernels.LM_ITER + 1
        assert steps[tol] < _kernels.LM_ITER // 4
        assert f[0.0] <= f[tol] < f[0.0] * (1 + 1e-7)


class TestSymmetricKernel:
    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_gradient_matches_finite_differences(self, K):
        target = sym_target(K, 0)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(K + K * K)
        g = _kernels._grad(_kernels._value(theta, target, K, (K,))[1])

        def value(t):
            return _kernels._value(t, target, K, (K,))[0]

        assert np.abs(g - num_grad(value, theta)).max() < 1e-7

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
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
        f, w, (T,) = _kernels.fit_symmetric(target, K, (K,), rng.standard_normal(K + K * K))
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
        g = _kernels._grad(_kernels._value(theta, target, K, dims)[1])

        def value(t):
            return _kernels._value(t, target, K, dims)[0]

        assert np.abs(g - num_grad(value, theta)).max() < 1e-7

    def test_fit_recovers_tensor(self):
        K, dims = 2, (2, 2, 2)
        rng = np.random.default_rng(9)
        w = rng.dirichlet(np.ones(K))
        mats = [rng.dirichlet(np.ones(d), size=K) for d in dims]
        target = np.einsum("y,ya,yb,yc->abc", w, *mats)
        f, w2, mats2 = _kernels.fit_general(
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
        f, w2, out = _kernels.refine_boundary(target, w0, [T0])
        assert f < 1e-25
        np.testing.assert_array_equal(out[0][0, 1], 0.0)

    def test_interior_solution_returns_none(self):
        w = np.array([0.5, 0.5])
        T = np.array([[0.8, 0.2], [0.3, 0.7]])
        target = np.einsum("y,ya,yb,yc->abc", w, T, T, T)
        assert _kernels.refine_boundary(target, w, [T]) is None

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
            f, w2, out = _kernels.refine_boundary(target, start[0], start[1:])
            with np.errstate(divide="ignore"):
                theta = np.concatenate([np.log(P).ravel() for P in [w2, *out]])
            r, J = _kernels._residual_jac(theta, target, K, (3, 4, 3))
        assert out[0][0, 2] == 0.0
        assert f < 1e-25
        assert not np.isnan(r).any() and not np.isnan(J).any()
        assert r @ r == pytest.approx(f, rel=1e-6, abs=1e-30)
        pinned = np.flatnonzero(np.isneginf(theta))
        assert (J[:, pinned] == 0.0).all()
        np.testing.assert_array_equal(w2 == 0.0, w == 0.0)
