import time

import numpy as np
import pytest

from noise_id.datasets import NoisyDataset
from noise_id.errors import (
    CapabilityError,
    ConvergenceWarning,
    DimensionError,
    ValidationError,
)
from noise_id.features import (
    empirical_three_view,
    exact_three_view_joint,
    fit_three_view,
    gen_feature_model,
    group_meta_features,
    sample_with_features,
)
from noise_id.identifiability import (
    IDENTIFIABLE,
    NOT_GUARANTEED,
    ObservationModel,
    check_kruskal_sum,
    is_informative_feature,
)
from noise_id.matrices import ObsMatrix, Prior, Scenario, TransitionMatrix, kruskal_rank
from noise_id.consensus import err_metric, estimate, exact_joint, fit
from noise_id.noisegen import asymmetric_T


class TestGenFeatureModel:
    def test_binary_contract(self):
        fm = gen_feature_model(2, 1, 2, min_kruskal=2, seed=0)
        assert isinstance(fm, ObservationModel)
        assert fm.K == 2 and fm.p == 1 and fm.cardinalities == (2,)
        assert kruskal_rank(fm.models[0]) >= 2

    def test_all_informative(self):
        fm = gen_feature_model(3, 3, 3, min_kruskal=2, seed=1)
        assert all(is_informative_feature(m) for m in fm.models)

    def test_determinism(self):
        a = gen_feature_model(3, 2, [2, 4], seed=7)
        b = gen_feature_model(3, 2, [2, 4], seed=7)
        for ma, mb in zip(a.models, b.models):
            np.testing.assert_array_equal(ma.entries, mb.entries)

    def test_validation(self):
        with pytest.raises(ValidationError):
            gen_feature_model(2, 0, 2)
        with pytest.raises(ValidationError):
            gen_feature_model(2, 1, 1)
        with pytest.raises(ValidationError):
            gen_feature_model(2, 1, 2, min_kruskal=3)

    def test_feature_model_dimension_check(self):
        with pytest.raises(DimensionError):
            ObservationModel((np.eye(2),), K=3)


class TestSampleWithFeatures:
    def test_identity_features_reveal_hidden_state(self):
        fm = ObservationModel((np.eye(2), np.eye(2)), K=2)
        ds = sample_with_features(Prior([0.4, 0.6]), None, fm, n=300, seed=0)
        assert (ds.r == ds.y[:, None]).all()
        assert ds.noisy.shape == (300, 0)

    def test_empirical_feature_conditionals(self):
        fm = gen_feature_model(2, 2, 3, seed=3)
        ds = sample_with_features(Prior([0.5, 0.5]), None, fm, n=1_000_000, seed=4)
        for i, m in enumerate(fm.models):
            for j in range(2):
                mask = ds.y == j + 1
                emp = np.bincount(ds.r[mask, i] - 1, minlength=3) / mask.sum()
                assert np.abs(emp - m.entries[j]).max() < 0.005

    def test_conditional_independence_of_features(self):
        fm = gen_feature_model(2, 2, 2, seed=5)
        ds = sample_with_features(Prior([0.5, 0.5]), None, fm, n=1_000_000, seed=6)
        for j in (1, 2):
            mask = ds.y == j
            a = (ds.r[mask, 0] == 1).astype(float)
            b = (ds.r[mask, 1] == 1).astype(float)
            cov = abs(np.mean(a * b) - a.mean() * b.mean())
            assert cov < 0.01

    def test_with_noisy_label(self):
        fm = gen_feature_model(2, 2, 2, seed=0)
        T = asymmetric_T(2, 0.3)
        ds = sample_with_features(Prior([0.5, 0.5]), T, fm, n=100, seed=1)
        assert ds.p == 1 and ds.noisy.min() >= 1

    def test_dimension_checks(self):
        fm = gen_feature_model(2, 1, 2, seed=0)
        with pytest.raises(DimensionError):
            sample_with_features(Prior([1 / 3] * 3), None, fm, n=10, seed=0)


class TestFeatureStack:
    def test_full_rank_T_plus_three_features_identifiable(self):
        fm = gen_feature_model(3, 3, 4, min_kruskal=3, seed=2)
        obs = ObservationModel((asymmetric_T(3, 0.3), *fm.models), fm.K)
        assert check_kruskal_sum(obs).verdict == IDENTIFIABLE

    def test_single_feature_not_guaranteed(self):
        fm = gen_feature_model(2, 1, 2, seed=0)
        assert check_kruskal_sum(fm).verdict == NOT_GUARANTEED

    def test_ordering(self):
        fm = gen_feature_model(2, 2, 2, seed=0)
        T = asymmetric_T(2, 0.2)
        obs = ObservationModel((T, *fm.models), fm.K)
        assert obs.p == 3
        np.testing.assert_array_equal(obs.models[0].entries, T.entries)


class TestGroupMetaFeatures:
    def test_singleton_split_returns_originals(self):
        fm = gen_feature_model(2, 2, 2, seed=1)
        m1, m2 = group_meta_features(fm, ([0], [1]))
        np.testing.assert_array_equal(m1.entries, fm.models[0].entries)
        np.testing.assert_array_equal(m2.entries, fm.models[1].entries)

    def test_outer_product_rows(self):
        a = ObsMatrix([[0.9, 0.1], [0.2, 0.8]])
        b = ObsMatrix([[0.7, 0.3], [0.4, 0.6]])
        c = ObsMatrix([[0.5, 0.5], [0.5, 0.5]])
        fm = ObservationModel((a, b, c), K=2)
        m1, _ = group_meta_features(fm, ([0, 1], [2]))
        assert m1.kappa == 4
        for j in range(2):
            np.testing.assert_allclose(
                m1.entries[j], np.outer(a.entries[j], b.entries[j]).ravel()
            )

    def test_cardinalities_multiply_and_rows_stochastic(self):
        fm = gen_feature_model(3, 4, [2, 3, 2, 4], seed=9)
        m1, m2 = group_meta_features(fm, ([0, 2], [1, 3]))
        assert m1.kappa == 4 and m2.kappa == 12
        np.testing.assert_allclose(m1.entries.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(m2.entries.sum(axis=1), 1.0, atol=1e-12)
        # with independent members the meta Kruskal rank does not drop below
        # the best member's
        assert kruskal_rank(m1) >= max(
            kruskal_rank(fm.models[0]), kruskal_rank(fm.models[2])
        )

    def test_split_must_partition(self):
        fm = gen_feature_model(2, 2, 2, seed=0)
        with pytest.raises(ValidationError):
            group_meta_features(fm, ([0], [0, 1]))
        with pytest.raises(ValidationError):
            group_meta_features(fm, ([], [0, 1]))


class TestFitThreeView:
    def test_exact_recovery_K2(self):
        rng = np.random.default_rng(0)
        A = ObsMatrix([[0.9, 0.1], [0.2, 0.8]])
        B = ObsMatrix([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        T = TransitionMatrix([[0.85, 0.15], [0.25, 0.75]])
        prior = Prior([0.6, 0.4])
        tensor = exact_three_view_joint(prior, [A, B, T])
        result = fit_three_view(tensor, K=2, seed=0)
        assert result.converged and result.residual <= 1e-8
        assert np.abs(result.scenario.T.entries - T.entries).max() < 1e-6
        assert np.abs(result.scenario.prior.weights - prior.weights).max() < 1e-6
        assert np.abs(result.feature_models[0].entries - A.entries).max() < 1e-6
        assert np.abs(result.feature_models[1].entries - B.entries).max() < 1e-6

    def test_exact_zero_in_T_needs_one_restart(self):
        A = ObsMatrix([[0.9, 0.1], [0.2, 0.8]])
        B = ObsMatrix([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        T = TransitionMatrix([[1.0, 0.0], [0.25, 0.75]])
        tensor = exact_three_view_joint(Prior([0.6, 0.4]), [A, B, T])
        result = fit_three_view(tensor, K=2, seed=0)
        assert result.converged and result.restarts_used == 1
        assert np.abs(result.scenario.T.entries - T.entries).max() < 1e-9

    def test_uninformative_features_break_uniqueness(self):
        flat = ObsMatrix([[0.5, 0.5], [0.5, 0.5]])
        T = TransitionMatrix([[0.85, 0.15], [0.25, 0.75]])
        tensor = exact_three_view_joint(Prior([0.6, 0.4]), [flat, flat, T])
        # rank-one features collapse the tensor, so many parameter points fit
        # it exactly; the solver matches the tensor but cannot single out the
        # generating T
        result = fit_three_view(tensor, K=2, restarts=5, seed=0)
        assert result.residual <= 1e-8
        err = np.abs(result.scenario.T.entries - T.entries).max()
        assert err > 1e-3

    def test_unexplained_sampled_tensor_is_not_converged(self):
        # no K=2 model explains a random (3, 3, 2) tensor to the sampling
        # noise of 1e6 records, so every restart runs and none is accepted
        tensor = np.random.default_rng(0).dirichlet(np.ones(18)).reshape(3, 3, 2)
        with pytest.warns(ConvergenceWarning, match="fit did not reach residual"):
            result = fit_three_view(tensor, K=2, restarts=2, seed=0, n=1e6)
        assert result.converged is False
        assert result.restarts_used == 2
        assert len(result.per_restart_residuals) == 2

    @pytest.mark.parametrize("K", [2, 3])
    def test_three_labels_match_the_tied_fit(self, K):
        # three i.i.d. labels fitted as three distinct views recover the
        # tied fit's answer, with both "feature" factors equal to T
        rng = np.random.default_rng(K)
        w = rng.dirichlet(np.full(K, 4.0))
        T = 0.5 * np.eye(K) + 0.5 * rng.dirichlet(np.ones(K), size=K)
        joint = exact_joint(Scenario(T=TransitionMatrix(T), prior=Prior(w)), 3)
        general = fit_three_view(joint, K, restarts=1, seed=0)
        tied = estimate(joint, restarts=1, seed=0)
        assert general.converged and tied.converged
        for got in (general.scenario.T.entries, *(m.entries for m in general.feature_models)):
            np.testing.assert_allclose(got, tied.scenario.T.entries, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            general.scenario.prior.weights, tied.scenario.prior.weights, rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(tied.scenario.T.entries, T, rtol=0, atol=1e-9)

    def test_tied_fit_has_no_feature_models(self):
        s = Scenario(T=asymmetric_T(2, 0.2), prior=Prior([0.6, 0.4]))
        result = fit(exact_joint(s, 3), 2, (2,), restarts=1)
        assert result.converged and result.feature_models == ()

    def test_third_axis_must_be_K(self):
        with pytest.raises(ValidationError):
            fit_three_view(np.full((2, 2, 3), 1 / 12), K=2)

    def test_K_above_align_cap_refused_before_the_fit(self):
        K = 11
        tensor = np.full((2, 2, K), 1 / (4 * K))
        t0 = time.perf_counter()
        with pytest.raises(CapabilityError, match="MAX_ALIGN_K"):
            fit_three_view(tensor, K=K, restarts=1)
        assert time.perf_counter() - t0 < 1.0

    def test_success_rate_on_random_identifiable_configs(self):
        rng = np.random.default_rng(123)
        ok = 0
        trials = 30
        for t in range(trials):
            K = 2
            A = rng.dirichlet(np.ones(2), size=K)
            B = rng.dirichlet(np.ones(3), size=K)
            T = rng.dirichlet(np.ones(K), size=K)
            if (
                kruskal_rank(A) < 2
                or kruskal_rank(B) < 2
                or abs(np.linalg.det(T)) < 0.05
            ):
                ok += 1  # skip unidentifiable draws, count as vacuous pass
                continue
            w = rng.uniform(0.1, 0.9)
            tensor = exact_three_view_joint(Prior([w, 1 - w]), [A, B, T])
            result = fit_three_view(tensor, K=K, seed=t)
            if result.residual <= 1e-8:
                ok += 1
        assert ok >= int(trials * 0.95)


class TestFeatureRecovery:
    def _dataset(self, n, seed):
        fm = gen_feature_model(2, 2, [3, 3], min_kruskal=2, seed=11)
        T = asymmetric_T(2, 0.3)
        return fm, T, sample_with_features(Prior([0.55, 0.45]), T, fm, n=n, seed=seed)

    def test_empirical_three_view_shape(self):
        _, _, ds = self._dataset(1000, 0)
        tensor = empirical_three_view(ds)
        assert tensor.shape == (3, 3, 2)
        assert tensor.sum() == pytest.approx(1.0)

    def test_empirical_three_view_counts(self):
        _, _, ds = self._dataset(1000, 2)
        want = np.zeros((3, 3, 2))
        for (a, b), c in zip(ds.r - 1, ds.noisy[:, 0] - 1):
            want[a, b, c] += 1
        np.testing.assert_array_equal(empirical_three_view(ds), want / ds.n)

    def test_empirical_three_view_rejects_feature_value_0(self):
        ds = NoisyDataset(
            y=[1, 2], noisy=[1, 2], K=2, provenance={"model": "manual"},
            r=[[1, 0], [2, 1]],
        )
        with pytest.raises(ValidationError, match=">= 1"):
            empirical_three_view(ds)

    def test_sampled_recovery(self):
        _, T, ds = self._dataset(300_000, 1)
        result = fit_three_view(empirical_three_view(ds), K=2, seed=0, n=ds.n)
        err = err_metric(
            result.scenario.T.entries, T.entries, permutation_invariant=True
        )
        assert err <= 3.0

    @pytest.mark.parametrize(
        "seed, index, restarts_used",
        [(1012, 0, 1), (1037, 1, 2),
         pytest.param(105, 6, 1, marks=pytest.mark.xfail(
             strict=True,
             reason="restart 0 stops at residual 0.002506, above the truth's "
             "0.002358 but under the tolerance, so the fit is reported as "
             "converged; a start in the right basin (ROADMAP item 2) mends it"))],
        ids=["1012-0", "1037-1", "105-6"],
    )
    def test_fit_reaches_the_truths_residual(self, seed, index, restarts_used):
        # draws of the feature-recovery benchmark: 1012/0 needs about 160 LM
        # steps, and restart 0 of 1037/1 is a local minimum above the
        # sampling noise, so the fit moves on to restart 1
        rng = np.random.default_rng((seed, index))
        w = Prior(rng.dirichlet(np.full(3, 4.0)))
        T = TransitionMatrix(0.5 * np.eye(3) + 0.5 * rng.dirichlet(np.ones(3), size=3))
        fseed, dseed = (int(x) for x in rng.integers(2**31, size=2))
        fm = gen_feature_model(3, 2, 4, 3, seed=fseed)
        ds = sample_with_features(w, T, fm, 100_000, dseed)
        truth = np.linalg.norm(
            exact_three_view_joint(w, [*fm.models, T]) - empirical_three_view(ds)
        )
        result = fit_three_view(empirical_three_view(ds), 3, seed=0, n=ds.n)
        assert result.converged
        assert result.residual <= truth
        assert result.restarts_used == restarts_used

    def test_requires_two_features(self):
        fm = gen_feature_model(2, 1, 3, seed=0)
        ds = sample_with_features(
            Prior([0.5, 0.5]), asymmetric_T(2, 0.2), fm, n=100, seed=0
        )
        with pytest.raises(CapabilityError, match="two feature columns"):
            empirical_three_view(ds)
