"""Each benchmark check accepts a correct output and rejects a corrupted one."""

import itertools

import numpy as np
import pytest

import checks
from checks import CheckFailed

W = np.array([0.3, 0.7])
T = np.array([[0.8, 0.2], [0.25, 0.75]])


def write_csv(path, header, rows):
    path.write_text(",".join(header) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return path


def test_read_csv_checks_header_rows_and_labels(tmp_path):
    header = ["y", "ytilde_1"]
    good = write_csv(tmp_path / "a.csv", header, [[1, 2], [2, 2], [2, 1]])
    cols = checks.read_csv(good, header, 3, {"y": (1, 2), "ytilde_1": (1, 2)})
    assert cols["y"].tolist() == [1, 2, 2]
    with pytest.raises(CheckFailed, match="header"):
        checks.read_csv(good, ["y", "ytilde_2"], 3, {})
    with pytest.raises(CheckFailed, match="shape"):
        checks.read_csv(good, header, 4, {})
    bad = write_csv(tmp_path / "b.csv", header, [[1, 2], [3, 2], [2, 1]])
    with pytest.raises(CheckFailed, match="column y"):
        checks.read_csv(bad, header, 3, {"y": (1, 2)})


def test_multinomial_rejects_shifted_frequencies():
    probs = checks.forward(W, T, T, T)
    rng = np.random.default_rng(0)
    counts = rng.multinomial(200_000, probs.ravel()).reshape(probs.shape)
    checks.check_multinomial(counts, probs, "ok")
    shifted = counts.copy()
    shifted[0, 0, 0] -= 2_000
    shifted[1, 1, 1] += 2_000
    with pytest.raises(CheckFailed, match="cell"):
        checks.check_multinomial(shifted, probs, "shifted")


def test_tuple_counts_match_a_loop():
    cols = [np.array([1, 2, 2, 1]), np.array([3, 1, 3, 3])]
    counts = checks.tuple_counts(cols, (2, 3))
    want = np.zeros((2, 3), int)
    for a, b in zip(*cols):
        want[a - 1, b - 1] += 1
    assert (counts == want).all()


def exact_report(w, T, perm):
    return {"prior": list(w[perm]), "T": T[perm].tolist(), "residual": 0.0, "err": 0.0}


def test_exact_recovery_rejects_an_entry_off_by_1e5():
    report = exact_report(W, T, [1, 0])
    checks.check_exact_recovery(report, W, T)
    report["T"][0] = [report["T"][0][0] + 1e-5, report["T"][0][1] - 1e-5]
    with pytest.raises(CheckFailed, match="exact recovery"):
        checks.check_exact_recovery(report, W, T)


def test_exact_recovery_rejects_a_wrong_residual():
    report = exact_report(W, T, [0, 1])
    report["residual"] = 1e-9
    with pytest.raises(CheckFailed, match="residual"):
        checks.check_exact_recovery(report, W, T)


def sampled_target(seed=1, n=50_000):
    probs = checks.forward(W, T, T, T)
    counts = np.random.default_rng(seed).multinomial(n, probs.ravel()).reshape(probs.shape)
    return checks.symmetrize(counts / n)


def test_sampled_fit_rejects_parameters_worse_than_the_truth():
    target = sampled_target()
    truth_res = float(np.linalg.norm(checks.forward(W, T, T, T) - target))
    report = {"prior": W.tolist(), "T": T.tolist(), "residual": truth_res}
    checks.check_sampled_fit(report, target, W, T)
    worse = np.array([[0.78, 0.22], [0.25, 0.75]])
    report = {"prior": W.tolist(), "T": worse.tolist(),
              "residual": float(np.linalg.norm(checks.forward(W, worse, worse, worse) - target))}
    with pytest.raises(CheckFailed, match="exceeds"):
        checks.check_sampled_fit(report, target, W, T)


def test_sampled_fit_rejects_a_misreported_residual():
    target = sampled_target()
    res = float(np.linalg.norm(checks.forward(W, T, T, T) - target))
    report = {"prior": W.tolist(), "T": T.tolist(), "residual": res * 0.9}
    with pytest.raises(CheckFailed, match="residual"):
        checks.check_sampled_fit(report, target, W, T)


def test_feature_fit_rejects_residual_and_marginal_corruption():
    A = np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    B = np.array([[0.5, 0.5], [0.9, 0.1]])
    probs = checks.forward(W, A, B, T)
    n = 100_000
    target = np.random.default_rng(2).multinomial(n, probs.ravel()).reshape(probs.shape) / n
    truth_res = float(np.linalg.norm(probs - target))
    report = {"prior": W.tolist(), "T": T.tolist(), "residual": truth_res}
    checks.check_feature_fit(report, target, W, [A, B, T])
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_feature_fit(dict(report, residual=2 * truth_res), target, W, [A, B, T])
    with pytest.raises(CheckFailed, match="marginal"):
        checks.check_feature_fit(dict(report, prior=[0.5, 0.5]), target, W, [A, B, T])


def test_err_rejects_a_misreported_error():
    T_hat = T[[1, 0]] + 0.01
    good = checks.err_pct(T_hat, T)
    assert good == pytest.approx(1.0)
    checks.check_err({"T": T_hat.tolist(), "err": good}, T)
    with pytest.raises(CheckFailed, match="err"):
        checks.check_err({"T": T_hat.tolist(), "err": good + 0.01}, T)


def test_kruskal_rank_of_a_repeated_direction():
    assert checks.kruskal_rank([[1, 0, 0], [0, 1, 0], [2, 0, 0]]) == 1
    assert checks.kruskal_rank(np.eye(4)) == 4


def scenario_doc():
    rng = np.random.default_rng(3)
    K = 4
    T = 0.6 * np.eye(K) + 0.4 * rng.dirichlet(np.ones(K), size=K)
    return {"K": K, "T": T.tolist(), "seed": 5, "p": 3,
            "features": {"d_star": 4, "cardinalities": 3, "min_kruskal": 2},
            "groups": {"count": 1}}


@pytest.mark.parametrize("mode", ["instance3", "kruskal", "group", "unknown-groups", "generic"])
def test_verdict_rejects_a_flipped_report(mode):
    doc = scenario_doc()
    lhs, rhs, krs = checks.expected_check(mode, doc)
    verdict = checks.IDENTIFIABLE if lhs >= rhs else checks.NOT_GUARANTEED
    report = {"lhs": lhs, "rhs": rhs, "per_model_kruskal": krs, "verdict": verdict}
    checks.check_verdict(report, mode, doc)
    flipped = checks.NOT_GUARANTEED if verdict == checks.IDENTIFIABLE else checks.IDENTIFIABLE
    with pytest.raises(CheckFailed):
        checks.check_verdict(dict(report, verdict=flipped), mode, doc)
    with pytest.raises(CheckFailed):
        checks.check_verdict(dict(report, lhs=lhs + 1), mode, doc)


def test_feature_matrices_meet_their_kruskal_floor():
    mats = checks.feature_matrices(4, 3, [2, 3, 5], 2, seed=9)
    assert [m.shape for m in mats] == [(4, 2), (4, 3), (4, 5)]
    assert all(checks.kruskal_rank(m) >= 2 for m in mats)
    assert all(np.allclose(m.sum(axis=1), 1.0) for m in mats)


def test_scoring_pair_optimum_is_the_known_permutation():
    rng = np.random.default_rng(4)
    for _ in range(5):
        T_hat, T_ref, perm = checks.scoring_pair(rng, 6)
        best = min(itertools.permutations(range(6)),
                   key=lambda p: ((T_hat[list(p)] - T_ref) ** 2).sum())
        assert list(best) == np.argsort(perm).tolist()


def test_scoring_rejects_a_wrong_error():
    T_hat, T_ref, perm = checks.scoring_pair(np.random.default_rng(5), 5)
    want = float(np.abs(T_hat[np.argsort(perm)] - T_ref).mean() * 100)
    checks.check_scoring(want, T_hat, T_ref, perm)
    with pytest.raises(CheckFailed, match="scoring"):
        checks.check_scoring(want * 1.001, T_hat, T_ref, perm)


def test_same_bytes_rejects_differing_digests():
    checks.check_same_bytes({"a": "00"}, {"a": "00"}, "ok")
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_same_bytes({"a": "00"}, {"a": "01"}, "data")
