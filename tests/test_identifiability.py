import re
import time

import numpy as np
import pytest

from noise_id.errors import ValidationError
from noise_id.identifiability import (
    IDENTIFIABLE,
    NOT_GUARANTEED,
    IdentifiabilityReport,
    ObservationModel,
    check_generic,
    check_group_features,
    check_instance_three_labels,
    check_kruskal_sum,
    check_unknown_groups,
    is_informative_feature,
    is_informative_label,
)
from noise_id.matrices import ObsMatrix, TransitionMatrix

from .oracles import brute_force_generic_split, brute_force_kruskal

FULL_RANK_2 = TransitionMatrix([[0.8, 0.2], [0.3, 0.7]])
ADJACENT_3 = TransitionMatrix([[0.7, 0.3, 0.0], [0.0, 0.7, 0.3], [0.3, 0.0, 0.7]])


def random_full_rank_T(rng, K):
    while True:
        T = rng.dirichlet(np.ones(K), size=K)
        if abs(np.linalg.det(T)) > 1e-3:
            return TransitionMatrix(T)


class TestReport:
    def test_verdict_must_match_inequality(self):
        with pytest.raises(ValidationError):
            IdentifiabilityReport("x", 3, 5, (), IDENTIFIABLE)
        r = IdentifiabilityReport("x", 5, 5, (), IDENTIFIABLE)
        assert r.to_dict()["verdict"] == IDENTIFIABLE

    def test_observation_model_rejects_mixed_K(self):
        with pytest.raises(Exception):
            ObservationModel((np.eye(2), np.eye(3)), 2)


class TestKruskalSum:
    def test_three_full_rank_K4(self):
        T = np.eye(4) * 0.6 + 0.1
        r = check_kruskal_sum(ObservationModel((T, T, T), 4))
        assert (r.lhs, r.rhs, r.verdict) == (12, 10, IDENTIFIABLE)

    def test_two_labels_never_suffice(self):
        r = check_kruskal_sum(
            ObservationModel((FULL_RANK_2.entries, FULL_RANK_2.entries), 2)
        )
        assert (r.lhs, r.rhs, r.verdict) == (4, 5, NOT_GUARANTEED)

    def test_single_observation(self):
        r = check_kruskal_sum(ObservationModel((np.eye(2),), 2))
        # 2K + p - 1 = 4 + 1 - 1 = 4
        assert (r.lhs, r.rhs, r.verdict) == (2, 4, NOT_GUARANTEED)
        assert "sufficient" in r.notes


class TestInformativeLabel:
    def test_binary_low_noise(self):
        assert is_informative_label(FULL_RANK_2)

    def test_uniform_is_not(self):
        assert not is_informative_label(TransitionMatrix(np.full((3, 3), 1 / 3)))

    def test_adjacent_flip(self):
        assert is_informative_label(ADJACENT_3)


class TestInstanceThreeLabels:
    def test_full_rank_binary(self):
        r = check_instance_three_labels(FULL_RANK_2)
        assert (r.lhs, r.rhs, r.verdict) == (6, 6, IDENTIFIABLE)

    def test_rank_deficient(self):
        T = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
        r = check_instance_three_labels(T)
        assert r.verdict == NOT_GUARANTEED

    def test_K5_arithmetic(self):
        T = random_full_rank_T(np.random.default_rng(0), 5)
        r = check_instance_three_labels(T)
        assert (r.lhs, r.rhs, r.verdict) == (15, 12, IDENTIFIABLE)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("deficient", [False, True])
    def test_consistent_with_kruskal_sum_on_triple_stack(self, seed, deficient):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 5))
        T = random_full_rank_T(rng, K).entries.copy()
        if deficient:
            # the last row repeats row 0, or mixes rows 0 and 1 (K >= 3)
            T[-1] = T[0] if seed < 5 or K == 2 else (T[0] + T[1]) / 2
        a = check_instance_three_labels(TransitionMatrix(T))
        b = check_kruskal_sum(ObservationModel((T,) * 3, K))
        assert (a.lhs, a.rhs, a.verdict) == (b.lhs, b.rhs, b.verdict)
        assert a.verdict == (NOT_GUARANTEED if deficient else IDENTIFIABLE)

    def test_monotone_in_observations(self):
        # adding an observed variable never flips identifiable -> not_guaranteed
        rng = np.random.default_rng(7)
        for _ in range(10):
            K = int(rng.integers(2, 4))
            mats = [rng.dirichlet(np.ones(K), size=K) for _ in range(3)]
            base = check_kruskal_sum(ObservationModel(tuple(mats), K))
            extra = rng.dirichlet(np.ones(K), size=K)
            bigger = check_kruskal_sum(ObservationModel(tuple(mats) + (extra,), K))
            if base.verdict == IDENTIFIABLE:
                assert bigger.verdict == IDENTIFIABLE


class TestInformativeFeature:
    def test_equal_rows(self):
        assert not is_informative_feature(ObsMatrix([[0.5, 0.5], [0.5, 0.5]]))

    def test_identity(self):
        assert is_informative_feature(ObsMatrix(np.eye(2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        M = np.round(rng.dirichlet(np.ones(3), size=3), 6)
        M[:, -1] = 1.0 - M[:, :-1].sum(axis=1)
        assert is_informative_feature(ObsMatrix(M)) == (brute_force_kruskal(M) >= 2)


class TestGroupFeatures:
    def _features(self, rng, K, d):
        return ObservationModel(
            tuple(rng.dirichlet(np.ones(K), size=K) for _ in range(d)), K
        )

    def test_dstar_equals_K_identifiable(self):
        rng = np.random.default_rng(1)
        r = check_group_features(ADJACENT_3, self._features(rng, 3, 3))
        assert r.verdict == IDENTIFIABLE
        assert "d* = 3" in r.notes

    def test_below_threshold(self):
        rng = np.random.default_rng(1)
        r = check_group_features(ADJACENT_3, self._features(rng, 3, 2))
        assert r.verdict == NOT_GUARANTEED

    def test_uninformative_feature_not_counted(self):
        flat = np.full((2, 2), 0.5)
        feats = ObservationModel((np.eye(2), flat), 2)
        r = check_group_features(FULL_RANK_2, feats)
        assert "d* = 1" in r.notes
        assert r.verdict == NOT_GUARANTEED


class TestUnknownGroups:
    def test_two_groups_threshold(self):
        r = check_unknown_groups(2, 2, 7)
        assert (r.lhs, r.rhs, r.verdict) == (7, 7, IDENTIFIABLE)

    def test_one_group(self):
        assert check_unknown_groups(1, 2, 3).verdict == IDENTIFIABLE

    def test_below(self):
        assert check_unknown_groups(2, 2, 6).verdict == NOT_GUARANTEED

    def test_validation(self):
        with pytest.raises(ValidationError):
            check_unknown_groups(0, 2, 3)


class TestGeneric:
    def test_K10_three_binary_features(self):
        r = check_generic(10, [2, 2, 2])
        # best split: tau* = (4, 2); min-sum 4 + 2 + 10 = 16 < 22
        assert (r.lhs, r.rhs, r.verdict) == (16, 22, NOT_GUARANTEED)
        assert "split" in r.notes

    def test_K2_single_binary_feature(self):
        # one feature and the label are only two views, even at K = 2
        r = check_generic(2, [2])
        assert (r.lhs, r.rhs, r.verdict) == (0, 6, NOT_GUARANTEED)

    def test_no_features(self):
        assert check_generic(2, []).verdict == NOT_GUARANTEED

    def test_single_feature_large_K(self):
        assert check_generic(3, [4]).verdict == NOT_GUARANTEED

    def test_uneven_cardinalities_pick_best_split(self):
        # K=4: features (8, 2, 2). Even-size splits give min-sums
        # 4+4? -> {8},{2,2}: min(4,8)+min(4,4)+4 = 12 >= 10; the checker must
        # find a passing split even though a poor split ({2},{8,2}) also passes
        # here, so force a case where choice matters: K=6, cards (4, 2, 2):
        # {4},{2,2} -> 4+4+6 = 14 = 2K+2; {2},{4,2} -> 2+6+6 = 14 too; passes.
        r = check_generic(6, [4, 2, 2])
        assert r.lhs >= 14
        assert r.verdict == IDENTIFIABLE

    def test_cardinality_validation(self):
        with pytest.raises(ValidationError):
            check_generic(2, [2, 1])

    def test_best_split_matches_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            K = int(rng.integers(1, 7))
            cards = [int(c) for c in rng.integers(2, 6, size=rng.integers(2, 9))]
            r = check_generic(K, cards)
            best = brute_force_generic_split(K, cards)
            enough = len(cards) >= np.ceil(np.log2((K + 2) / 2))
            assert r.lhs == (best if enough else 0), (K, cards)
            # the split the notes name reaches the maximum
            g1 = [int(i) for i in re.search(r"features \[([\d, ]*)\]", r.notes)[1].split(",")]
            g2 = [i for i in range(len(cards)) if i not in g1]
            assert g1 and g2
            tau = [int(np.prod([cards[i] for i in g])) for g in (g1, g2)]
            assert f"tau* = {tau[0]}" in r.notes and f"tau* = {tau[1]}" in r.notes
            assert min(K, tau[0]) + min(K, tau[1]) + K == best

    def test_forty_features_in_polynomial_time(self):
        t0 = time.perf_counter()
        r = check_generic(3, [2] * 40)
        assert time.perf_counter() - t0 < 1.0
        assert (r.lhs, r.rhs, r.verdict) == (9, 8, IDENTIFIABLE)
