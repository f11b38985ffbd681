import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noise_id.errors import CapabilityError, DimensionError, ValidationError
from noise_id.identifiability import ObservationModel
from noise_id.matrices import (
    ObsMatrix,
    Prior,
    Scenario,
    TransitionMatrix,
    align_permutation,
    frobenius_distance,
    kruskal_rank,
    max_trace_permutation,
    numerical_rank,
)

from .oracles import brute_force_kruskal, elementwise_frobenius


def random_row_stochastic(rng, rows, cols):
    return rng.dirichlet(np.ones(cols), size=rows)


class TestTypes:
    def test_transition_matrix_validates_rows(self):
        with pytest.raises(ValidationError):
            TransitionMatrix([[0.5, 0.4], [0.5, 0.5]])

    def test_transition_matrix_must_be_square(self):
        with pytest.raises(DimensionError):
            TransitionMatrix([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])

    def test_transition_matrix_rejects_negative(self):
        with pytest.raises(ValidationError):
            TransitionMatrix([[1.1, -0.1], [0.5, 0.5]])

    def test_obs_matrix_allows_rectangular(self):
        m = ObsMatrix([[0.2, 0.3, 0.5], [0.5, 0.25, 0.25]])
        assert (m.K, m.kappa) == (2, 3)

    def test_prior_validates(self):
        with pytest.raises(ValidationError, match=r"prior sums to 0\.9, not 1"):
            Prior([0.5, 0.4])
        assert Prior([0.5, 0.5]).non_degenerate
        assert not Prior([1.0, 0.0]).non_degenerate

    def test_scenario_dimension_check(self):
        T = TransitionMatrix([[0.8, 0.2], [0.2, 0.8]])
        with pytest.raises(DimensionError):
            Scenario(T=T, prior=Prior([0.5, 0.3, 0.2]))
        assert Scenario(T=T, prior=Prior([0.6, 0.4])).K == 2

    def test_entries_are_immutable(self):
        T = TransitionMatrix([[0.8, 0.2], [0.2, 0.8]])
        with pytest.raises(ValueError):
            T.entries[0, 0] = 0.0

    def test_transition_matrix_is_a_frozen_obs_matrix(self):
        T = TransitionMatrix([[0.8, 0.2], [0.2, 0.8]])
        assert isinstance(T, ObsMatrix) and (T.K, T.kappa) == (2, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            T.entries = np.eye(2)
        assert ObservationModel((T,) * 3, 2).models == (T,) * 3

    def test_transition_matrix_messages_say_so(self):
        # the sum reads as a plain float, not as "np.float64(0.9)"
        with pytest.raises(ValidationError, match=r"transition matrix row 0 sums to 0\.9, not 1"):
            TransitionMatrix([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="transition matrix needs K >= 2"):
            TransitionMatrix([[1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_refused_everywhere(self, bad):
        M = [[bad, 0.5], [0.5, 0.5]]
        for kind, what in ((TransitionMatrix, "transition matrix"),
                           (ObsMatrix, "observation matrix")):
            with pytest.raises(ValidationError, match=f"{what} contains non-finite entries"):
                kind(M)
        for fn in (kruskal_rank, numerical_rank, max_trace_permutation,
                   lambda m: align_permutation(m, np.eye(2)),
                   lambda m: align_permutation(np.eye(2), m),
                   lambda m: frobenius_distance(m, np.eye(2))):
            with pytest.raises(ValidationError, match="matrix contains non-finite entries"):
                fn(M)


class TestKruskalRank:
    def test_repeated_direction_drops_to_one(self):
        # second row appears scaled: every single row is nonzero, but the
        # pair {row 0, row 2} is dependent
        assert kruskal_rank([[1, 0, 0], [0, 1, 0], [2, 0, 0]]) == 1

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_identity(self, K):
        assert kruskal_rank(np.eye(K)) == K

    def test_zero_row_gives_zero(self):
        assert kruskal_rank([[0, 0], [1, 0]]) == 0

    def test_equal_rows_give_one(self):
        assert kruskal_rank([[0.5, 0.5], [0.5, 0.5]]) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exact_rational_oracle(self, seed):
        rng = np.random.default_rng(seed)
        M = np.round(random_row_stochastic(rng, 4, 4), 6)
        M[:, -1] = 1.0 - M[:, :-1].sum(axis=1)
        assert kruskal_rank(M) == brute_force_kruskal(M)

    def test_row_cap(self):
        # the cap bounds the subset enumeration, which only a matrix with
        # dependent rows needs
        M = np.eye(13)
        M[-1] = M[0]
        with pytest.raises(CapabilityError):
            kruskal_rank(M)

    @pytest.mark.parametrize("K", [10, 12, 13, 40])
    def test_full_rank_takes_all_rows(self, K):
        # a strictly diagonally dominant T: every subset of rows is independent
        M = np.eye(K) + random_row_stochastic(np.random.default_rng(K), K, K) / 2
        assert kruskal_rank(M) == K

    @given(
        st.integers(1, 6),
        st.sampled_from(["full", "repeated-row", "proportional-row", "column-pair"]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_square_matrices(self, n, kind, data):
        # small integer entries keep every independent subset's singular-value
        # ratio far above the tolerance, so the float and rational answers agree
        M = np.array(
            data.draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                               min_size=n, max_size=n)),
            dtype=float,
        )
        if kind == "full":
            M += 3 * n * np.eye(n)  # strictly diagonally dominant
        elif n > 1:
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
            if kind == "repeated-row":
                M[j] = M[i]
            elif kind == "proportional-row":
                M[j] = 2 * M[i]
            else:
                M[:, j] = M[:, i]
        assert kruskal_rank(M) == brute_force_kruskal(M)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_numerical_rank(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        M = random_row_stochastic(rng, rows, cols)
        kr = kruskal_rank(M)
        nr = numerical_rank(M)
        assert kr <= nr <= min(rows, cols)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_row_and_column_permutation(self, seed):
        rng = np.random.default_rng(seed)
        M = random_row_stochastic(rng, 4, 4)
        kr = kruskal_rank(M)
        assert kruskal_rank(M[rng.permutation(4)]) == kr
        assert kruskal_rank(M[:, rng.permutation(4)]) == kr

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_proportional_rows_cap_at_one(self, seed):
        rng = np.random.default_rng(seed)
        row = random_row_stochastic(rng, 1, 4)[0]
        M = np.vstack([row, row, random_row_stochastic(rng, 1, 4)[0]])
        assert kruskal_rank(M) <= 1


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_equal_rows(self):
        assert numerical_rank([[0.5, 0.5], [0.5, 0.5]]) == 1

    def test_adjacent_flip_K3(self):
        # det([[.7,.3,0],[0,.7,.3],[.3,0,.7]]) = 0.343 + 0.027 = 0.37 != 0
        T = [[0.7, 0.3, 0.0], [0.0, 0.7, 0.3], [0.3, 0.0, 0.7]]
        assert numerical_rank(T) == 3


class TestFrobenius:
    def test_zero_on_equal(self):
        A = np.eye(3)
        assert frobenius_distance(A, A) == 0.0

    def test_swap_distance_two(self):
        assert frobenius_distance([[1, 0], [0, 1]], [[0, 1], [1, 0]]) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            frobenius_distance(np.eye(2), np.eye(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_elementwise_oracle_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        A, B, C = (rng.random((3, 3)) for _ in range(3))
        assert frobenius_distance(A, B) == pytest.approx(
            elementwise_frobenius(A, B), abs=1e-12
        )
        assert frobenius_distance(A, B) == pytest.approx(frobenius_distance(B, A))
        assert (
            frobenius_distance(A, C)
            <= frobenius_distance(A, B) + frobenius_distance(B, C) + 1e-9
        )


class TestAlignment:
    def test_identity_permutation(self):
        T = np.array([[0.8, 0.2], [0.3, 0.7]])
        perm, aligned = align_permutation(T, T)
        assert perm == (0, 1)
        np.testing.assert_array_equal(aligned, T)

    def test_recovers_row_swap(self):
        T = np.array([[0.8, 0.2], [0.3, 0.7]])
        perm, aligned = align_permutation(T[[1, 0]], T)
        assert perm == (1, 0)
        assert frobenius_distance(aligned, T) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_construct_then_invert(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 6))
        T = random_row_stochastic(rng, K, K)
        p = rng.permutation(K)
        noisy = T[p] + rng.normal(0, 1e-4, (K, K))
        perm, aligned = align_permutation(noisy, T)
        # aligned[i] = noisy[perm[i]] = T[p[perm[i]]] must restore row order
        assert [p[i] for i in perm] == list(range(K))
        assert frobenius_distance(aligned, T) < 1e-2

    def test_k_limit(self):
        with pytest.raises(CapabilityError):
            align_permutation(np.eye(11), np.eye(11))

    def test_ties_go_to_the_first_permutation(self):
        flat = np.full((3, 3), 1 / 3)
        assert align_permutation(flat, flat)[0] == (0, 1, 2)
        assert max_trace_permutation(flat)[0] == (0, 1, 2)
        # equal rows 1 and 2 tie with their swap, which comes later
        T = np.array([[0.8, 0.1, 0.1], [0.2, 0.4, 0.4], [0.2, 0.4, 0.4]])
        assert align_permutation(T, T)[0] == (0, 1, 2)
        assert max_trace_permutation(T)[0] == (0, 1, 2)

    def test_max_trace_prefers_diagonal(self):
        T = np.array([[0.1, 0.9], [0.8, 0.2]])
        perm, aligned = max_trace_permutation(T)
        assert perm == (1, 0)
        assert np.trace(aligned) == pytest.approx(1.7)
