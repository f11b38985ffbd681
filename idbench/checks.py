"""Correctness checks for the benchmark's outputs, built on numpy alone.

Nothing here imports ``noise_id``: every expected value is recomputed from
the benchmark's own inputs, so a wrong answer from the program cannot be
hidden by the same wrong code running twice. Each check raises
:class:`CheckFailed` with a message naming what disagreed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

IDENTIFIABLE = "identifiable"
NOT_GUARANTEED = "not_guaranteed"

# A cell frequency may sit this many binomial standard deviations from its
# forward-model probability; the chance of a false alarm over a few hundred
# cells is below 1e-6.
MULTINOMIAL_Z = 6.0


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's recomputation."""


def read_csv(path, header, n_rows, int_ranges):
    """Read a dataset CSV and check its layout.

    `header` is the exact expected column list, `n_rows` the record count and
    `int_ranges` maps a column name to the inclusive range its integer values
    must lie in. Returns {column name: column array}.
    """
    with open(path, newline="") as fh:
        got = fh.readline().rstrip("\r\n").split(",")
    if got != list(header):
        raise CheckFailed(f"{path}: header {got} != {list(header)}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n_rows, len(header)):
        raise CheckFailed(f"{path}: shape {data.shape} != {(n_rows, len(header))}")
    if not np.isfinite(data).all():
        raise CheckFailed(f"{path}: non-finite cells")
    cols = {name: data[:, i] for i, name in enumerate(header)}
    for name, (lo, hi) in int_ranges.items():
        col = cols[name]
        if (col != np.round(col)).any() or col.min() < lo or col.max() > hi:
            raise CheckFailed(f"{path}: column {name} not integers in {lo}..{hi}")
        cols[name] = col.astype(np.int64)
    return cols


def tuple_counts(columns, cards):
    """Counts of the joint outcomes of 1-based integer columns, as a tensor of
    shape `cards`, computed with one np.bincount over mixed-radix codes."""
    code = np.zeros(len(columns[0]), dtype=np.int64)
    for col, card in zip(columns, cards):
        code = code * card + (np.asarray(col, dtype=np.int64) - 1)
    return np.bincount(code, minlength=math.prod(cards)).reshape(cards)


def forward(w, *mats, keep_hidden=False):
    """Latent-class forward model: sum_y w[y] prod_i mats[i][y, j_i], by einsum.
    With keep_hidden the hidden axis is kept first instead of summed out."""
    letters = "abcdefgh"[: len(mats)]
    out = ("y" if keep_hidden else "") + letters
    spec = "y," + ",".join("y" + c for c in letters) + "->" + out
    return np.einsum(spec, np.asarray(w, float), *(np.asarray(m, float) for m in mats))


def check_multinomial(counts, probs, what):
    """Every cell frequency within MULTINOMIAL_Z binomial deviations of the
    model probability."""
    counts = np.asarray(counts, float)
    probs = np.asarray(probs, float)
    n = counts.sum()
    sd = np.sqrt(probs * (1.0 - probs) / n)
    dev = np.abs(counts / n - probs)
    worst = np.argmax(dev - MULTINOMIAL_Z * sd)
    if (dev > MULTINOMIAL_Z * sd + 1e-12).any():
        cell = np.unravel_index(worst, probs.shape)
        raise CheckFailed(
            f"{what}: cell {cell} frequency {counts.flat[worst] / n:.6g} vs "
            f"model {probs.flat[worst]:.6g} (n={n:.0f})"
        )


def symmetrize(t):
    """Average of a tensor over all permutations of its axes."""
    perms = list(itertools.permutations(range(t.ndim)))
    return sum(np.transpose(t, p) for p in perms) / len(perms)


def brute_align(T_hat, T):
    """Row permutation of T_hat closest to T in Frobenius norm, by trying all
    K! permutations. Returns (perm, T_hat[perm])."""
    T_hat, T = np.asarray(T_hat, float), np.asarray(T, float)
    K = T.shape[0]
    best = min(
        itertools.permutations(range(K)),
        key=lambda p: float(((T_hat[list(p)] - T) ** 2).sum()),
    )
    return list(best), T_hat[list(best)]


def err_pct(T_hat, T):
    """Permutation-invariant mean absolute entrywise error, percent scale."""
    _, aligned = brute_align(T_hat, T)
    return float(np.abs(aligned - np.asarray(T, float)).mean() * 100.0)


def check_close(got, want, tol, what):
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: reported {got!r}, recomputed {want!r}")


def check_err(report, T):
    """The reported `err` equals the brute-force permutation-invariant error."""
    check_close(report["err"], err_pct(report["T"], T), 1e-9, "err")


def check_exact_recovery(report, w, T, tol=1e-6):
    """An exact-tensor estimate: recovered (prior, T), aligned by brute force,
    within `tol` of the truth, and the reported residual equal to the
    benchmark's own residual of the recovered parameters."""
    perm, aligned = brute_align(report["T"], T)
    dev_T = float(np.abs(aligned - np.asarray(T)).max())
    dev_w = float(np.abs(np.asarray(report["prior"])[perm] - np.asarray(w)).max())
    if dev_T > tol or dev_w > tol:
        raise CheckFailed(f"exact recovery off by {max(dev_T, dev_w):.3g} (tol {tol})")
    Th = report["T"]
    own = float(np.linalg.norm(forward(report["prior"], Th, Th, Th) - forward(w, T, T, T)))
    check_close(report["residual"], own, 1e-12, "exact residual")


def check_sampled_fit(report, target, w, T):
    """A three-label fit to an empirical tensor: the reported residual equals
    the recomputed one, and no larger than what the true parameters give,
    since a least-squares fit must do at least as well as the truth."""
    Th = report["T"]
    own = float(np.linalg.norm(forward(report["prior"], Th, Th, Th) - target))
    check_close(report["residual"], own, 1e-9 * max(own, 1e-3), "sampled residual")
    truth = float(np.linalg.norm(forward(w, T, T, T) - target))
    if own > truth:
        raise CheckFailed(f"fit residual {own:.6g} exceeds the truth's {truth:.6g}")


def check_feature_fit(report, target, w, mats):
    """A two-feature-plus-label fit to an empirical three-view tensor. The
    report omits the fitted feature matrices, so check what (prior, T) and
    the residual pin down: the residual is no larger than the truth's, and
    the fitted label marginal T^T w lies within the residual's reach of the
    empirical one (Cauchy-Schwarz over the summed-out feature cells)."""
    truth = float(np.linalg.norm(forward(w, *mats) - target))
    res = report["residual"]
    if not 0.0 <= res <= truth:
        raise CheckFailed(f"feature fit residual {res!r} outside [0, truth {truth:.6g}]")
    marg = np.asarray(report["T"]).T @ np.asarray(report["prior"])
    cells = target.shape[0] * target.shape[1]
    gap = float(np.abs(marg - target.sum(axis=(0, 1))).max())
    if gap > math.sqrt(cells) * res + 1e-12:
        raise CheckFailed(f"label marginal off by {gap:.3g}, residual {res:.3g}")


def kruskal_rank(M):
    """Largest k such that every k rows of M are independent, by
    np.linalg.matrix_rank over row subsets."""
    M = np.asarray(M, float)
    kr = 0
    for size in range(1, M.shape[0] + 1):
        for idx in itertools.combinations(range(M.shape[0]), size):
            if np.linalg.matrix_rank(M[list(idx)]) < size:
                return kr
        kr = size
    return kr


def feature_matrices(K, d_star, cards, min_kruskal, seed):
    """The feature observation matrices a scenario's `features` section
    stands for: Dirichlet(1) rows from a generator seeded with `seed`, each
    matrix redrawn until its Kruskal rank reaches `min_kruskal`."""
    cards = [cards] * d_star if isinstance(cards, int) else list(cards)
    rng = np.random.default_rng(seed)
    mats = []
    for c in cards:
        while True:
            M = rng.dirichlet(np.ones(c), size=K)
            if kruskal_rank(M) >= min_kruskal:
                mats.append(M)
                break
    return mats


def expected_check(mode, doc):
    """(lhs, rhs, per-model Kruskal ranks) of the identifiability condition
    `mode` for a scenario document with an explicit T."""
    K = int(doc["K"])
    T = np.asarray(doc["T"], float)
    if mode == "instance3":
        kr = K if np.linalg.matrix_rank(T) == K else kruskal_rank(T)
        return 3 * kr, 2 * K + 2, [kr] * 3
    if mode == "kruskal":
        p = int(doc.get("p") or 3)
        kr = kruskal_rank(T)
        return p * kr, 2 * K + p - 1, [kr] * p
    feats = doc["features"]
    d = int(feats["d_star"])
    if mode == "group":
        mats = feature_matrices(
            K, d, feats.get("cardinalities", 2), int(feats.get("min_kruskal", 2)), doc["seed"]
        )
        krs = [kruskal_rank(M) for M in mats]
        informative = sum(kr >= 2 for kr in krs)
        kr_T = kruskal_rank(T)
        return kr_T + 2 * informative, 2 * K + informative, [kr_T] + krs
    if mode == "unknown-groups":
        return d, 2 * int(doc["groups"]["count"]) * K - 1, []
    if mode == "generic":
        cards = feats.get("cardinalities", 2)
        cards = [cards] * d if isinstance(cards, int) else list(cards)
        if d < 2:
            raise ValueError("the generic check here needs two or more features")
        best = max(
            min(K, math.prod(cards[i] for i in g1))
            + min(K, math.prod(cards[i] for i in range(d) if i not in g1))
            + K
            for size in range(1, d)
            for g1 in itertools.combinations(range(d), size)
        )
        enough = d >= math.ceil(math.log2((K + 2) / 2))
        return (best if enough else 0), 2 * K + 2, []
    raise ValueError(f"unknown mode {mode!r}")


def check_verdict(report, mode, doc):
    """A `check` report agrees with the condition recomputed here."""
    lhs, rhs, krs = expected_check(mode, doc)
    verdict = IDENTIFIABLE if lhs >= rhs else NOT_GUARANTEED
    got = (report["lhs"], report["rhs"], report["per_model_kruskal"], report["verdict"])
    if got != (lhs, rhs, krs, verdict):
        raise CheckFailed(f"check {mode} K={doc['K']}: {got} != {(lhs, rhs, krs, verdict)}")


def scoring_pair(rng, K):
    """(T_hat, T, perm) with T_hat = T[perm] + E, every row of E shorter than
    half the smallest distance between two rows of T. Row i of T_hat then
    lies nearer its source row than any other, so the optimal alignment is
    known without a K! search."""
    T = 0.6 * np.eye(K) + 0.4 * rng.dirichlet(np.ones(K), size=K)
    gap = min(np.linalg.norm(T[i] - T[j]) for i in range(K) for j in range(i))
    E = rng.standard_normal((K, K))
    E *= (0.45 * gap * rng.uniform(0.2, 1.0, K) / np.linalg.norm(E, axis=1))[:, None]
    perm = rng.permutation(K)
    return T[perm] + E, T, perm


def check_scoring(err, T_hat, T, perm):
    """err_metric on a scoring pair equals the error under the known
    alignment, row i of T matched to the row of T_hat drawn from it."""
    want = float(np.abs(T_hat[np.argsort(perm)] - T).mean() * 100.0)
    check_close(err, want, 1e-9, f"scoring K={T.shape[0]}")


def check_same_bytes(first, second, what):
    """Two digests of files written from one seed must match."""
    if first != second:
        raise CheckFailed(f"{what}: output differs between two runs with one seed")
