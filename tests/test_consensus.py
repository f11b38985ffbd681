import math
import time

import numpy as np
import pytest

from noise_id import consensus
from noise_id.consensus import (
    MAX_JOINT_CELLS,
    WITNESS_MIN_DISTANCE,
    binary_scenario,
    binary_stats,
    empirical_joint,
    err_metric,
    estimate,
    exact_joint,
    fit,
    mixing_bound,
    mpe_forward,
    mpe_inverse,
    mpe_noise_rates,
    witness_p2,
)
from noise_id.datasets import NoisyDataset
from noise_id.features import fit_three_view
from noise_id.errors import (
    CapabilityError,
    DegenerateClassError,
    DimensionError,
    SearchExhaustedError,
    SingularConversionError,
    ValidationError,
)
from noise_id.matrices import Prior, Scenario, TransitionMatrix, align_permutation
from noise_id.noisegen import asymmetric_T, sample_iid_noisy

from .oracles import grid_witness, outer_product_joint, permutation_sum


def _symmetric_with(v, cell, value):
    """v with one cell set to value, a cell that is its own orbit under axis
    swaps (all indices equal), so v stays symmetric."""
    v = np.array(v, dtype=float)
    v[cell] = value
    return v


# name: (a symmetric target, its K, what fit's message says)
BAD_TARGETS = {
    "nan": (np.full((2, 2, 2), np.nan), 2, "non-finite"),
    "inf": (_symmetric_with(np.full((2, 2, 2), 1 / 8), (0, 0, 0), np.inf), 2, "non-finite"),
    "negative": (_symmetric_with(np.full((2, 2, 2), 1 / 8), (0, 0, 0), -0.01), 2, ">= 0"),
    "sum": (np.full((2, 2, 2), 0.2), 2, "sums to 1.6"),
    "K-below-2": (np.ones((1, 1, 1)), 1, "K >= 2"),
}


class TestFitChecksTheTarget:
    """`fit` alone checks a target's values and shape, for tied labels and
    distinct views alike, before `_kernels.solve` runs."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def solve(*args):
            raise AssertionError("_kernels.solve ran on a bad target")

        monkeypatch.setattr(consensus._kernels, "solve", solve)

    @pytest.mark.parametrize("name", BAD_TARGETS)
    def test_bad_values_refused_through_estimate(self, name):
        target, _, message = BAD_TARGETS[name]
        with pytest.raises(ValidationError, match=message):
            estimate(target)

    @pytest.mark.parametrize("name", BAD_TARGETS)
    def test_bad_values_refused_through_fit_three_view(self, name):
        target, K, message = BAD_TARGETS[name]
        with pytest.raises(ValidationError, match=message):
            fit_three_view(target, K)

    def test_tied_axes_must_all_be_K(self):
        # the symmetry test cannot swap axes of different lengths, so the
        # shape reaches fit
        with pytest.raises(ValidationError, match=r"shape \(2, 2, 3\), expected \(3, 3, 3\)"):
            estimate(np.full((2, 2, 3), 1 / 12))

    def test_axes_must_match_dims(self):
        with pytest.raises(ValidationError, match=r"expected \(2, 2, 2\)"):
            fit(np.full((2, 3, 2), 1 / 12), 2, (2, 2, 2))

    def test_last_axis_must_be_K(self):
        with pytest.raises(ValidationError, match="last axis"):
            fit_three_view(np.full((2, 2, 3), 1 / 12), K=2)


class TestJointArrays:
    def test_read_only_float64_results(self):
        s = binary_scenario(0.6, 0.1, 0.3)
        ds = sample_iid_noisy(s.prior, s.T, p=3, n=50, seed=0)
        for joint in (exact_joint(s, 3), empirical_joint(ds)):
            assert joint.dtype == np.float64 and not joint.flags.writeable

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_symmetry_defect_sees_every_swap(self, p):
        assert consensus._symmetry_defect(np.full((2,) * p, 0.5**p)) == 0.0
        for cell in range(1, 2**p - 1):
            v = np.zeros(2**p)
            v[cell] = 1.0
            assert consensus._symmetry_defect(v.reshape((2,) * p)) == 1.0


class TestExactJoint:
    def test_identity_diagonal(self):
        s = Scenario(T=TransitionMatrix(np.eye(2)), prior=Prior([0.5, 0.5]))
        t = exact_joint(s, 3)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = expected[1, 1, 1] = 0.5
        np.testing.assert_allclose(t, expected)

    def test_binary_two_label_statistics(self):
        t = exact_joint(binary_scenario(0.7, 0.2, 0.2), 2)
        assert t[0, 0] == pytest.approx(0.46)
        assert t[1, 1] == pytest.approx(0.22)
        assert t[0].sum() == pytest.approx(0.62)

    def test_published_counterexample_pair_matches(self):
        a = exact_joint(binary_scenario(0.7, 0.2, 0.2), 2)
        b = exact_joint(binary_scenario(0.8, 0.242, 0.07), 2)
        assert np.abs(a - b).max() < 1e-3

    @pytest.mark.parametrize("p", [1, 4, 6])
    def test_matches_outer_products(self, p):
        s = Scenario(T=asymmetric_T(3, 0.3), prior=Prior([0.2, 0.3, 0.5]))
        want = outer_product_joint(s.prior.weights, [s.T.entries] * p)
        np.testing.assert_allclose(exact_joint(s, p), want, rtol=0, atol=1e-16)

    def test_cell_cap_before_allocating(self):
        s = binary_scenario(0.6, 0.1, 0.3)
        assert exact_joint(s, 10).ndim == 10  # 1024 cells, at the cap
        for p in (11, 200):
            with pytest.raises(CapabilityError, match="MAX_JOINT_CELLS"):
                exact_joint(s, p)

    def test_marginalization_consistency(self):
        s = Scenario(T=asymmetric_T(3, 0.3), prior=Prior([0.2, 0.3, 0.5]))
        t3 = exact_joint(s, 3)
        t2 = exact_joint(s, 2)
        np.testing.assert_allclose(t3.sum(axis=2), t2, atol=1e-14)
        # full marginalization gives P(noisy) = prior @ T
        np.testing.assert_allclose(
            t3.sum(axis=(1, 2)), s.prior.weights @ s.T.entries, atol=1e-14
        )


class TestEmpiricalJoint:
    def test_single_record(self):
        ds = NoisyDataset(
            y=[1], noisy=[[1, 1, 1]], K=2, provenance={"model": "manual"}
        )
        t = empirical_joint(ds)
        assert t[0, 0, 0] == 1.0
        assert t.sum() == 1.0

    def test_symmetrized_exactly(self):
        ds = sample_iid_noisy(
            Prior([0.6, 0.4]), asymmetric_T(2, 0.2), p=3, n=500, seed=0
        )
        t = empirical_joint(ds)
        assert consensus._symmetry_defect(t) == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_axis_order_sum_equals_permutation_loop(self, p):
        counts = np.random.default_rng(p).integers(0, 1000, size=(3,) * p)
        got = consensus._sum_over_axis_orders(counts)
        np.testing.assert_array_equal(got, permutation_sum(counts))

    def test_four_labels_counted_and_symmetrized(self):
        ds = sample_iid_noisy(
            Prior([0.3, 0.3, 0.4]), asymmetric_T(3, 0.3), p=4, n=2000, seed=3
        )
        counts = np.zeros((3,) * 4)
        for row in ds.noisy - 1:
            counts[tuple(row)] += 1
        want = permutation_sum(counts) / (math.factorial(4) * ds.n)
        t = empirical_joint(ds)
        assert consensus._symmetry_defect(t) == 0.0
        np.testing.assert_allclose(t, want, rtol=1e-15, atol=0)

    def test_no_labels(self):
        # the joint of no labels is the scalar 1; estimate refuses it for
        # having fewer than three labels
        ds = NoisyDataset(
            y=[1, 2], noisy=np.zeros((2, 0)), K=2, provenance={"model": "manual"}
        )
        t = empirical_joint(ds)
        assert t.ndim == 0 and t == 1.0
        with pytest.raises(CapabilityError, match="p=0 noisy labels"):
            estimate(t)

    def test_cell_cap(self):
        ds = sample_iid_noisy(
            Prior([0.3, 0.3, 0.4]), asymmetric_T(3, 0.3), p=7, n=20, seed=3
        )
        assert 3**7 > MAX_JOINT_CELLS >= 10**3
        with pytest.raises(CapabilityError, match="MAX_JOINT_CELLS"):
            empirical_joint(ds)

    def test_converges_to_exact(self):
        s = binary_scenario(0.7, 0.1, 0.2)
        ds = sample_iid_noisy(s.prior, s.T, p=3, n=1_000_000, seed=1)
        emp = empirical_joint(ds)
        assert np.abs(emp - exact_joint(s, 3)).max() < 0.003


class TestBinaryStats:
    def test_reference_point(self):
        s = binary_stats(0.7, 0.2, 0.2)
        assert s.as_tuple() == pytest.approx((0.62, 0.46, 0.22))

    def test_clean_corner(self):
        assert binary_stats(1.0, 0.0, 0.0).as_tuple() == (1.0, 1.0, 0.0)

    def test_published_alternative(self):
        s = binary_stats(0.8, 0.242, 0.07)
        assert s.posterior == pytest.approx(0.6204, abs=1e-4)
        assert s.pos_consensus == pytest.approx(0.4606, abs=1e-3)
        assert s.neg_consensus == pytest.approx(0.2198, abs=1e-3)

    def test_consensus_bounded_by_marginals(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g, ep, em = rng.random(3)
            s = binary_stats(g, ep, em)
            assert s.pos_consensus <= s.posterior + 1e-12
            assert s.neg_consensus <= 1 - s.posterior + 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            binary_stats(1.2, 0.0, 0.0)


class TestEstimate:
    def test_binary_reference_recovery(self):
        s = binary_scenario(0.6, 0.1, 0.3)
        result = estimate(exact_joint(s, 3), seed=0)
        assert result.converged
        assert np.abs(result.scenario.T.entries - s.T.entries).max() < 1e-6
        assert np.abs(result.scenario.prior.weights - s.prior.weights).max() < 1e-6

    def test_identity_exact(self):
        s = Scenario(T=TransitionMatrix(np.eye(2)), prior=Prior([0.5, 0.5]))
        result = estimate(exact_joint(s, 3), seed=0)
        assert result.residual < 1e-10
        np.testing.assert_allclose(result.scenario.T.entries, np.eye(2), atol=1e-9)

    def test_exact_zeros_need_one_restart(self):
        # the stalled restart is boundary-refined at once, not after every
        # other restart has also run to the descent cap
        s = Scenario(T=TransitionMatrix(np.eye(3)), prior=Prior([0.5, 0.3, 0.2]))
        result = estimate(exact_joint(s, 3), seed=0)
        assert result.restarts_used == 1
        assert len(result.per_restart_residuals) == result.restarts_used
        assert result.residual < 1e-12
        np.testing.assert_allclose(result.scenario.T.entries, np.eye(3), atol=1e-9)

    def test_near_zero_entry_exact_in_one_restart(self):
        # T[1, 1] = 0.0032 is near the boundary; the LM polish of restart 0
        # must run until it stops improving to reach an exact fit
        T = TransitionMatrix([[0.7740, 0.2260], [0.9968, 0.0032]])
        s = Scenario(T=T, prior=Prior([0.7755, 0.2245]))
        result = estimate(exact_joint(s, 3), seed=914281522)
        assert result.restarts_used == 1
        assert result.residual < 1e-12
        _, aligned = align_permutation(result.scenario.T.entries, T.entries)
        np.testing.assert_allclose(aligned, T.entries, atol=1e-6)

    def test_requires_order_three(self):
        s = binary_scenario(0.6, 0.1, 0.3)
        with pytest.raises(CapabilityError, match="p=2 noisy labels"):
            estimate(exact_joint(s, 2))
        # one class: 1 cell at any order, which no fit is needed for
        with pytest.raises(ValidationError, match="K >= 2"):
            estimate(np.ones((1,) * 30))

    @pytest.mark.parametrize("K,p", [(3, 4), (2, 5)])
    def test_more_labels_exact(self, K, p):
        rng = np.random.default_rng(10 * K + p)
        w = rng.dirichlet(np.full(K, 4.0))
        T = 0.5 * np.eye(K) + 0.5 * rng.dirichlet(np.ones(K), size=K)
        s = Scenario(T=TransitionMatrix(T), prior=Prior(w))
        result = estimate(exact_joint(s, p), seed=0)
        assert result.converged
        np.testing.assert_allclose(result.scenario.T.entries, T, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.scenario.prior.weights, w, rtol=0, atol=1e-9)

    def test_four_labels_beat_three(self):
        # sampled sweep: fitting all four labels recovers T better than
        # fitting the first three of the same records
        K, n = 3, 20_000
        rng = np.random.default_rng(0)
        errs = {3: [], 4: []}
        for _ in range(6):
            w = rng.dirichlet(np.full(K, 4.0))
            T = 0.5 * np.eye(K) + 0.5 * rng.dirichlet(np.ones(K), size=K)
            ds = sample_iid_noisy(
                Prior(w), TransitionMatrix(T), 4, n, int(rng.integers(2**31))
            )
            for p in (3, 4):
                sub = NoisyDataset(
                    y=ds.y, noisy=ds.noisy[:, :p], K=K, provenance=ds.provenance
                )
                result = estimate(empirical_joint(sub), seed=0, n=n)
                errs[p].append(err_metric(result.scenario.T.entries, T, True))
        assert np.median(errs[4]) < np.median(errs[3])

    def test_K_above_align_cap_refused_before_the_fit(self):
        K = 11
        w = np.full(K, 1 / K)
        T = 0.5 * np.eye(K) + 0.5 / K
        joint = outer_product_joint(w, [T] * 3)
        t0 = time.perf_counter()
        with pytest.raises(CapabilityError, match="MAX_ALIGN_K"):
            estimate(joint, restarts=1)
        assert time.perf_counter() - t0 < 1.0

    def test_rejects_asymmetric_tensor(self):
        v = np.zeros((2, 2, 2))
        v[0, 1, 1] = 1.0
        with pytest.raises(ValidationError, match="symmetric"):
            estimate(v)

    def test_deterministic_given_seed(self):
        s = Scenario(T=asymmetric_T(3, 0.3), prior=Prior([0.25, 0.35, 0.4]))
        a = estimate(exact_joint(s, 3), seed=5)
        b = estimate(exact_joint(s, 3), seed=5)
        np.testing.assert_array_equal(a.scenario.T.entries, b.scenario.T.entries)
        assert a.per_restart_residuals == b.per_restart_residuals


class TestWitness:
    def test_reference_input_yields_valid_witness(self):
        w = witness_p2(0.7, 0.2, 0.2)
        assert w.residual <= 1e-12
        assert w.distance >= WITNESS_MIN_DISTANCE
        got = binary_stats(w.gamma, w.e_plus, w.e_minus)
        want = binary_stats(0.7, 0.2, 0.2)
        assert max(
            abs(a - b) for a, b in zip(got.as_tuple(), want.as_tuple())
        ) == w.residual
        # witnesses stay informative
        assert w.e_plus + w.e_minus < 1.0

    def test_published_pair_lies_on_the_witness_curve(self):
        # the published alternative parameters reproduce the statistics of the
        # reference point to about 1e-3, i.e. they are an approximate witness
        a = binary_stats(0.7, 0.2, 0.2)
        b = binary_stats(0.8, 0.242, 0.07)
        assert max(
            abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple())
        ) < 1e-3

    @pytest.mark.parametrize(
        "params, case",
        [((1.0, 0.0, 0.0), "zero variance"), ((0.5, 0.5, 0.5), "zero variance"),
         ((0.0, 0.2, 0.3), "zero variance"), ((0.3, 0.7, 0.3), "zero variance"),
         ((0.5, 0.0, 0.0), "pin the parameters")],
        ids=["clean-corner", "uninformative", "gamma-0", "uninformative-rounded", "clean-labels"],
    )
    def test_no_witness_names_the_case(self, params, case):
        with pytest.raises(SearchExhaustedError, match=case):
            witness_p2(*params)
        # the grid search finds none either, or only an uninformative label
        # let through by its 1e-8 statistics tolerance
        found = grid_witness(*params)
        assert found is None or found[1] + found[2] > 1 - 1e-7

    def test_interior_success_rate(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            g = rng.uniform(0.15, 0.85)
            ep = rng.uniform(0.05, 0.4)
            em = rng.uniform(0.05, min(0.4, 0.95 - ep))
            witness_p2(g, ep, em)

    def test_finds_a_witness_wherever_the_grid_search_does(self):
        # "the grid search finds one => the closed form finds one" is checked
        # as its contrapositive: the search runs only where the closed form
        # raises
        rng = np.random.default_rng(15)
        for params in rng.uniform(size=(3000, 3)):
            try:
                w = witness_p2(*params)
            except SearchExhaustedError:
                assert grid_witness(*params) is None, params
                continue
            assert w.residual <= 1e-12, params
            assert w.e_plus + w.e_minus < 1.0, params
            assert w.distance >= WITNESS_MIN_DISTANCE, params


class TestMpe:
    def test_forward_zero(self):
        assert mpe_forward(0.0, 0.0) == (0.0, 0.0)

    def test_forward_reference(self):
        pm, pp = mpe_forward(0.25, 0.5)
        assert pm == pytest.approx(0.25 * 0.5 / 0.875)
        assert pp == pytest.approx(0.5 * 0.75 / 0.875)
        assert pm == pytest.approx(0.142857142857, abs=1e-9)
        assert pp == pytest.approx(0.428571428571, abs=1e-9)

    def test_round_trip(self):
        for ptm, ptp in [(0.25, 0.5), (0.1, 0.1), (0.0, 0.9), (0.6, 0.3)]:
            pm, pp = mpe_forward(ptm, ptp)
            back = mpe_inverse(pm, pp)
            assert back[0] == pytest.approx(ptm, abs=1e-12)
            assert back[1] == pytest.approx(ptp, abs=1e-12)

    def test_singular(self):
        with pytest.raises(SingularConversionError):
            mpe_forward(1.0, 1.0)
        with pytest.raises(SingularConversionError):
            mpe_inverse(0.5, 1.0)

    def test_noise_rates_zero(self):
        assert mpe_noise_rates(0.0, 0.0, 0.3) == (0.0, 0.0)

    def test_noise_rates_reference(self):
        em, ep = mpe_noise_rates(0.2, 0.3, 0.5)
        assert em == pytest.approx(0.15 / 0.55)
        assert ep == pytest.approx(0.10 / 0.45)

    def test_noise_rates_degenerate(self):
        with pytest.raises(DegenerateClassError):
            mpe_noise_rates(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_consistency_with_forward_model(self, seed):
        # build a scenario, read off the exact marginal quantities, convert
        # back, and require the original noise rates
        rng = np.random.default_rng(seed)
        g = rng.uniform(0.1, 0.9)
        ep = rng.uniform(0.02, 0.45)
        em = rng.uniform(0.02, 0.45)
        p_tilde = g * (1 - ep) + (1 - g) * em  # P(noisy = +1)
        pi_plus = (1 - g) * em / p_tilde       # P(Y = -1 | noisy = +1)
        pi_minus = g * ep / (1 - p_tilde)      # P(Y = +1 | noisy = -1)
        em2, ep2 = mpe_noise_rates(pi_minus, pi_plus, p_tilde)
        assert em2 == pytest.approx(em, abs=1e-12)
        assert ep2 == pytest.approx(ep, abs=1e-12)


class TestErrMetric:
    def test_zero_on_equal(self):
        T = np.array([[0.8, 0.2], [0.2, 0.8]])
        assert err_metric(T, T) == 0.0

    def test_reference_value(self):
        T = [[0.8, 0.2], [0.2, 0.8]]
        T_hat = [[0.7, 0.3], [0.3, 0.7]]
        assert err_metric(T_hat, T) == pytest.approx(10.0)

    def test_permutation_invariant_mode(self):
        T = np.array([[0.8, 0.2], [0.3, 0.7]])
        assert err_metric(T[[1, 0]], T, permutation_invariant=True) == pytest.approx(0.0)
        assert err_metric(T[[1, 0]], T) > 0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            err_metric(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_truth_refused(self, bad):
        # a nan truth once left the alignment search with no permutation
        truth = [[bad, 0.5], [0.5, 0.5]]
        with pytest.raises(ValidationError, match="non-finite"):
            err_metric(np.eye(2), truth, permutation_invariant=True)


class TestMixingBound:
    def test_all_equal(self):
        T = np.eye(2)
        assert mixing_bound(T, T, T) == (0.0, 0.0, True)

    def test_midpoint_reference(self):
        T1 = np.eye(2)
        T2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        lhs, rhs, holds = mixing_bound(T1, T2, (T1 + T2) / 2)
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(math.sqrt(2.0))
        assert holds

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_holds_on_random_triples(self, K):
        rng = np.random.default_rng(K)
        for _ in range(200):
            T1, T2, Ts = (rng.dirichlet(np.ones(K), size=K) for _ in range(3))
            _, _, holds = mixing_bound(T1, T2, Ts)
            assert holds

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mixing_bound(np.eye(2), np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_refused(self, bad):
        M = [[bad, 0.5], [0.5, 0.5]]
        for args in ((M, np.eye(2), np.eye(2)), (np.eye(2), np.eye(2), M)):
            with pytest.raises(ValidationError, match="non-finite"):
                mixing_bound(*args)
