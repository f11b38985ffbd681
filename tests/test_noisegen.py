import tracemalloc

import numpy as np
import pytest

from noise_id.datasets import ROW_BLOCK
from noise_id.errors import ValidationError
from noise_id.features import gen_feature_model, sample_with_features
from noise_id.matrices import Prior, TransitionMatrix
from noise_id.noisegen import (
    UnstructuredParams,
    _sample_rows,
    asymmetric_T,
    check_2nn,
    instance_noise,
    part_dependent_T,
    sample_iid_noisy,
    sample_truncated_normal,
    sample_views,
    theorem5_threshold,
    unstructured_process,
)

from .oracles import one_shot_instance_noise, one_shot_sample_rows, truncated_normal_mean_mc


class TestAsymmetricT:
    def test_K3(self):
        T = asymmetric_T(3, 0.3)
        np.testing.assert_allclose(
            T.entries, [[0.7, 0.3, 0.0], [0.0, 0.7, 0.3], [0.3, 0.0, 0.7]]
        )

    def test_eps_zero_is_identity(self):
        np.testing.assert_array_equal(asymmetric_T(4, 0.0).entries, np.eye(4))

    def test_K2(self):
        np.testing.assert_allclose(
            asymmetric_T(2, 0.2).entries, [[0.8, 0.2], [0.2, 0.8]]
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            asymmetric_T(3, 1.5)
        with pytest.raises(ValidationError):
            asymmetric_T(1, 0.1)


class TestSampleRows:
    """The sampler draws its uniforms ROW_BLOCK records at a time; outcomes
    and the generator's state after must match one draw of them all."""

    @pytest.mark.parametrize("draws", [1, 3])
    @pytest.mark.parametrize("n", [1, ROW_BLOCK, 3 * ROW_BLOCK + 5])
    def test_matches_one_shot_oracle(self, n, draws):
        probs = np.random.default_rng(1).dirichlet(np.ones(4), size=5)
        which = np.random.default_rng(2).integers(0, 5, n)
        ours, oracle = np.random.default_rng(3), np.random.default_rng(3)
        got = _sample_rows(ours, probs, which, draws)
        want = one_shot_sample_rows(oracle, probs, which, draws)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert ours.random() == oracle.random()

    def test_iid_dataset_matches_one_shot_oracle(self):
        prior, T, n, p = Prior([0.3, 0.5, 0.2]), asymmetric_T(3, 0.25), 2 * ROW_BLOCK + 7, 3
        ds = sample_iid_noisy(prior, T, p, n, seed=4)
        rng = np.random.default_rng(4)
        y0 = one_shot_sample_rows(rng, prior.weights[None, :], np.zeros(n, dtype=np.int64), 1)[:, 0]
        noisy0 = one_shot_sample_rows(rng, T.entries, y0, p)
        np.testing.assert_array_equal(ds.y, y0 + 1)
        np.testing.assert_array_equal(ds.noisy, noisy0 + 1)

    def test_feature_dataset_matches_one_shot_oracle(self):
        # hidden state, then each feature, then the noisy label, one column
        # at a time from the same stream
        prior, T, n = Prior([0.3, 0.5, 0.2]), asymmetric_T(3, 0.25), ROW_BLOCK + 3
        fm = gen_feature_model(3, 2, [2, 4], seed=8)
        ds = sample_with_features(prior, T, fm, n, seed=4)
        rng = np.random.default_rng(4)
        h0 = one_shot_sample_rows(rng, prior.weights[None, :], np.zeros(n, dtype=np.int64), 1)[:, 0]
        cols = [one_shot_sample_rows(rng, m.entries, h0, 1) for m in (*fm.models, T)]
        np.testing.assert_array_equal(ds.y, h0 + 1)
        np.testing.assert_array_equal(ds.r, np.hstack(cols[:2]) + 1)
        np.testing.assert_array_equal(ds.noisy, cols[2] + 1)

    def test_no_views_draws_only_the_hidden_state(self):
        prior, n = Prior([0.3, 0.7]), 50
        h, out = sample_views(prior, [], n, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        want = one_shot_sample_rows(rng, prior.weights[None, :], np.zeros(n, dtype=np.int64), 1)
        np.testing.assert_array_equal(h, want[:, 0] + 1)
        assert out.shape == (n, 0)


class TestSampleIidNoisy:
    def test_identity_T_copies_clean_label(self):
        ds = sample_iid_noisy(
            Prior([0.3, 0.7]), TransitionMatrix(np.eye(2)), p=3, n=500, seed=0
        )
        assert (ds.noisy == ds.y[:, None]).all()

    def test_binary_positive_marginal(self):
        # P(noisy = class 1) = 0.7 * 0.8 + 0.3 * 0.2 = 0.62
        ds = sample_iid_noisy(
            Prior([0.7, 0.3]),
            TransitionMatrix([[0.8, 0.2], [0.2, 0.8]]),
            p=3,
            n=1_000_000,
            seed=42,
        )
        assert abs((ds.noisy == 1).mean() - 0.62) < 0.003

    def test_determinism(self):
        a = sample_iid_noisy(Prior([0.5, 0.5]), asymmetric_T(2, 0.2), 3, 1000, seed=9)
        b = sample_iid_noisy(Prior([0.5, 0.5]), asymmetric_T(2, 0.2), 3, 1000, seed=9)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.noisy, b.noisy)

    def test_empirical_conditional_matches_T(self):
        K = 3
        T = asymmetric_T(K, 0.3)
        ds = sample_iid_noisy(Prior(np.full(K, 1 / K)), T, p=1, n=1_000_000, seed=5)
        emp = np.zeros((K, K))
        for i in range(K):
            mask = ds.y == i + 1
            emp[i] = np.bincount(ds.noisy[mask, 0] - 1, minlength=K) / mask.sum()
        assert np.abs(emp - T.entries).max() < 0.005

    def test_conditional_independence(self):
        T = TransitionMatrix([[0.8, 0.2], [0.3, 0.7]])
        ds = sample_iid_noisy(Prior([0.6, 0.4]), T, p=2, n=1_000_000, seed=11)
        worst = 0.0
        for y in (1, 2):
            mask = ds.y == y
            n1, n2 = ds.noisy[mask, 0], ds.noisy[mask, 1]
            for a in (1, 2):
                for b in (1, 2):
                    joint = ((n1 == a) & (n2 == b)).mean()
                    prod = (n1 == a).mean() * (n2 == b).mean()
                    worst = max(worst, abs(joint - prod))
        assert worst < 0.01

    def test_validation(self):
        with pytest.raises(ValidationError):
            sample_iid_noisy(Prior([0.5, 0.5]), asymmetric_T(2, 0.1), p=0, n=10, seed=0)


class TestTruncatedNormal:
    def test_range_and_mean(self):
        rng = np.random.default_rng(0)
        q = sample_truncated_normal(rng, 0.4, 0.1, 0.0, 1.0, 100_000)
        assert q.min() >= 0.0 and q.max() <= 1.0
        assert abs(q.mean() - truncated_normal_mean_mc(0.4, 0.1, 0.0, 1.0)) < 0.005


class TestInstanceNoise:
    def test_probability_rows(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 4))
        y = rng.integers(1, 4, size=200)
        noisy, pvec = instance_noise(x, y, eps=0.3, K=3, seed=1)
        np.testing.assert_allclose(pvec.sum(axis=1), 1.0, atol=1e-9)
        assert noisy.min() >= 1 and noisy.max() <= 3
        # mass on the clean class is exactly 1 - q, and q in [0, 1]
        clean_mass = pvec[np.arange(200), y - 1]
        assert ((clean_mass >= 0.0) & (clean_mass <= 1.0)).all()

    def test_flip_fraction_tracks_truncated_normal_mean(self):
        rng = np.random.default_rng(0)
        n, S, K = 50_000, 10, 10
        x = rng.standard_normal((n, S))
        y = rng.integers(1, K + 1, size=n)
        noisy, pvec = instance_noise(x, y, eps=0.4, K=K, seed=7)
        flip = (noisy != y).mean()
        q = 1.0 - pvec[np.arange(n), y - 1]
        target = truncated_normal_mean_mc(0.4, 0.1, 0.0, 1.0)
        assert abs(flip - target) < 0.02
        # p[y] = 1 - q exactly, i.e. flip mass q is carried verbatim
        np.testing.assert_array_equal(pvec[np.arange(n), y - 1], 1.0 - q)

    def test_eps_zero_still_flips_sometimes(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20_000, 3))
        y = rng.integers(1, 3, size=20_000)
        noisy, _ = instance_noise(x, y, eps=0.0, K=2, seed=2)
        assert 0 < (noisy != y).mean() < 0.2

    @pytest.mark.parametrize("n", [1, ROW_BLOCK, 2 * ROW_BLOCK + 5])
    def test_matches_one_shot_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 10))
        y = rng.integers(1, 4, size=n)
        noisy, pvec = instance_noise(x, y, eps=0.3, K=3, seed=4)
        want_noisy, want_pvec = one_shot_instance_noise(x, y, 0.3, 3, 4)
        np.testing.assert_array_equal(pvec, want_pvec)
        np.testing.assert_array_equal(noisy, want_noisy)

    def test_softmax_memory_is_blocked(self):
        # the rows it returns are n x K, and the flip rates, the row index
        # and the drawn labels are n each: two n x K arrays in all
        n, K = 100_000, 3
        rng = np.random.default_rng(5)
        x = rng.standard_normal((n, 10))
        y = rng.integers(1, K + 1, size=n)
        tracemalloc.start()
        try:
            instance_noise(x, y, eps=0.3, K=K, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * K * 8

    def test_validation(self):
        with pytest.raises(ValidationError):
            instance_noise(np.zeros((0, 2)), np.array([]), 0.2, 2, seed=0)
        with pytest.raises(ValidationError):
            instance_noise([[np.inf]], [1], 0.2, 2, seed=0)
        with pytest.raises(ValidationError):
            instance_noise([[1.0]], [3], 0.2, 2, seed=0)
        # one class leaves nothing to flip to
        with pytest.raises(ValidationError, match="K >= 2"):
            instance_noise([[1.0]], [1], 0.2, 1, seed=0)


class TestPartDependent:
    def test_one_hot_returns_part(self):
        T = part_dependent_T([0.0, 1.0], (np.eye(2), np.full((2, 2), 0.5)))
        np.testing.assert_allclose(T.entries, 0.5)

    def test_equal_weights_average(self):
        T = part_dependent_T([0.5, 0.5], (np.eye(2), np.full((2, 2), 0.5)))
        np.testing.assert_allclose(T.entries, [[0.75, 0.25], [0.25, 0.75]])

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(0)
        parts = [rng.dirichlet(np.ones(3), size=3) for _ in range(4)]
        w = rng.dirichlet(np.ones(4))
        T = part_dependent_T(w, parts)
        np.testing.assert_allclose(T.entries.sum(axis=1), 1.0, atol=1e-12)

    def test_off_simplex_rejected(self):
        with pytest.raises(ValidationError):
            part_dependent_T([1.1], (np.eye(2),))

    @pytest.mark.parametrize(
        "weights, parts, message",
        [([], (), "at least one part"),
         ([0.5, 0.5], (np.eye(2), np.eye(3)), "share K"),
         ([1.0], (np.eye(2), np.eye(2)), "length 2"),
         ([1.0], ([[0.5, 0.4], [0.5, 0.5]],), "row 0 sums to 0.9")],
        ids=["no-parts", "mixed-K", "weights-length", "part-not-stochastic"],
    )
    def test_bad_parts_rejected(self, weights, parts, message):
        with pytest.raises(ValidationError, match=message):
            part_dependent_T(weights, parts)


def one_hot_params(npts=5, K=2, N=500, eps_close=0.0):
    probs = np.zeros((npts, K))
    probs[np.arange(npts), np.arange(npts) % K] = 1.0
    return UnstructuredParams(
        lam=(1.0, 2.0, 3.0),
        N=N,
        epsilon_close=eps_close,
        label_probs=probs,
        T=TransitionMatrix([[0.8, 0.2], [0.3, 0.7]]),
    )


class TestUnstructured:
    def test_threshold_formula(self):
        assert theorem5_threshold([1.0, 2.0, 3.0]) == pytest.approx(24.0)

    def test_above_threshold_full_satisfaction(self):
        params = one_hot_params()
        ds = unstructured_process(params, seed=0)
        assert params.N > ds.threshold_N
        assert ds.num_triplets > 0
        assert check_2nn(ds) == 1.0

    def test_single_point_trivially_satisfied(self):
        probs = np.array([[1.0, 0.0]])
        params = UnstructuredParams(
            lam=(1.0,), N=50, epsilon_close=0.0, label_probs=probs,
            T=TransitionMatrix([[0.9, 0.1], [0.2, 0.8]]),
        )
        ds = unstructured_process(params, seed=1)
        assert ds.num_triplets == 50
        assert check_2nn(ds) == 1.0

    def test_all_distinct_zero_triplets_warns(self):
        # epsilon 0 with N = number of points and a diffuse draw usually
        # leaves some singleton points; force distinctness with N=3, 50 points
        probs = np.tile([1.0, 0.0], (50, 1))
        params = UnstructuredParams(
            lam=(1.0,), N=3, epsilon_close=0.0, label_probs=probs,
            T=TransitionMatrix([[0.9, 0.1], [0.2, 0.8]]),
        )
        for seed in range(30):
            ds = unstructured_process(params, seed=seed)
            if ds.num_triplets == 0:
                with pytest.warns(UserWarning, match="vacuously"):
                    assert check_2nn(ds) == 1.0
                return
        pytest.fail("no seed produced an empty triplet set")

    def test_mixed_labels_counted_directly(self):
        # one domain point with a 50/50 label draw: triplets agree only when
        # all three independent label draws coincide
        probs = np.array([[0.5, 0.5]])
        params = UnstructuredParams(
            lam=(1.0,), N=2000, epsilon_close=0.0, label_probs=probs,
            T=TransitionMatrix([[0.9, 0.1], [0.2, 0.8]]),
        )
        rates = []
        for seed in range(5):
            ds = unstructured_process(params, seed=seed)
            rate = check_2nn(ds)
            direct = float((ds.labels == ds.labels[:, :1]).all(axis=1).mean())
            assert rate == direct
            rates.append(rate)
        # label draws are independent per instance, so agreement is not certain
        assert min(rates) < 1.0

    def test_determinism(self):
        params = one_hot_params()
        a = unstructured_process(params, seed=4)
        b = unstructured_process(params, seed=4)
        np.testing.assert_array_equal(a.members, b.members)
        np.testing.assert_array_equal(a.noisy, b.noisy)

    def test_validation(self):
        with pytest.raises(ValidationError):
            UnstructuredParams(
                lam=(0.0,), N=10, epsilon_close=0.0,
                label_probs=np.array([[1.0, 0.0]]),
                T=TransitionMatrix(np.eye(2)),
            )
        with pytest.raises(ValidationError):
            UnstructuredParams(
                lam=(1.0,), N=2, epsilon_close=0.0,
                label_probs=np.array([[1.0, 0.0]]),
                T=TransitionMatrix(np.eye(2)),
            )

    @pytest.mark.parametrize(
        "field, value",
        [("label_probs", [[np.nan, 1.0], [0.0, 1.0]]), ("lam", (1.0, np.nan)),
         ("lam", (1.0, np.inf)), ("lam", ((1.0, 2.0),)), ("lam", 2.0),
         ("epsilon_close", np.nan)],
        ids=["label-probs-nan", "lambda-nan", "lambda-inf", "lambda-2d", "lambda-scalar",
             "epsilon-nan"],
    )
    def test_non_finite_and_misshapen_refused(self, field, value):
        # nan passes a test written as "x < 0", so each test is written to fail it
        fields = dict(lam=(1.0,), N=10, epsilon_close=0.0,
                      label_probs=[[1.0, 0.0], [0.0, 1.0]], T=TransitionMatrix(np.eye(2)))
        with pytest.raises(ValidationError):
            UnstructuredParams(**{**fields, field: value})
