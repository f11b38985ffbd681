"""Independent reference implementations used to freeze expected values.

These deliberately avoid the library's own code paths: exact rational
arithmetic for rank decisions, direct elementwise sums for norms, plain
Monte Carlo for distribution summaries, scalar loops for the solver's
residual and Jacobian, outer products for the latent-class tensor, loops
over every axis order or feature split where the library uses polynomial
shortcuts, the csv module, one row at a time, for dataset files, and a
grid search for the two-label witness that the library gives in closed form.
"""

import csv
import itertools
import math
from fractions import Fraction

import numpy as np

from noise_id.errors import ValidationError


def _rational_rank(rows):
    """Exact rank by Gaussian elimination over the rationals."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1, 1) / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def brute_force_kruskal(matrix, decimals=9):
    """Kruskal rank by exhaustive subset enumeration on a rounded rational copy."""
    a = np.round(np.asarray(matrix, dtype=float), decimals)
    rows = [
        [Fraction(x).limit_denominator(10**decimals) for x in row] for row in a
    ]
    n = len(rows)
    kr = 0
    for size in range(1, n + 1):
        ok = all(
            _rational_rank([rows[i] for i in subset]) == size
            for subset in itertools.combinations(range(n), size)
        )
        if not ok:
            return kr
        kr = size
    return kr


def elementwise_frobenius(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += (a[i, j] - b[i, j]) ** 2
    return total**0.5


def truncated_normal_mean_mc(mean, sd, low, high, n=2_000_000, seed=123):
    """Monte-Carlo mean of a truncated normal, by plain rejection."""
    rng = np.random.default_rng(seed)
    out = []
    need = n
    while need > 0:
        draw = rng.normal(mean, sd, size=2 * need)
        keep = draw[(draw >= low) & (draw <= high)][:need]
        out.append(keep)
        need -= keep.size
    return float(np.concatenate(out).mean())


def outer_product_joint(w, mats):
    """sum_y w[y] * mats[0][y] (x) ... (x) mats[-1][y], one outer product at a
    time."""
    out = 0.0
    for y in range(len(w)):
        cube = w[y]
        for M in mats:
            cube = np.multiply.outer(cube, M[y])
        out = out + cube
    return out


def permutation_sum(t):
    """The sum of t over all p! orders of its axes, one transpose each."""
    return sum(np.transpose(t, perm) for perm in itertools.permutations(range(t.ndim)))


def brute_force_generic_split(K, cards):
    """The largest min(K, tau1) + min(K, tau2) + K over every split of the
    features into two nonempty groups, tau being the product of a group's
    cardinalities, by enumerating all 2^(d-1) - 1 splits."""
    d = len(cards)
    return max(
        min(K, math.prod(cards[i] for i in g1))
        + min(K, math.prod(cards[i] for i in range(d) if i not in g1))
        + K
        for r in range(1, d // 2 + 1)
        for g1 in itertools.combinations(range(d), r)
    )


def _binary_stats(gamma, e_plus, e_minus):
    return (
        gamma * (1 - e_plus) + (1 - gamma) * e_minus,
        gamma * (1 - e_plus) ** 2 + (1 - gamma) * e_minus**2,
        gamma * e_plus**2 + (1 - gamma) * (1 - e_minus) ** 2,
    )


def grid_witness(gamma, e_plus, e_minus, seed=0):
    """The two-label witness by search: for each prior g' of a seeded
    jittered 389-point grid over (0.02, 0.98), solve the quadratic in
    e_minus' that matches the posterior and the positive consensus, and keep
    the informative candidate at max-abs distance >= 0.01 from the input
    that matches all three statistics to 1e-8 with the smallest residual.
    Returns (g', e_plus', e_minus', residual, distance), or None when no
    candidate qualifies."""
    grid = 389
    stats = _binary_stats(gamma, e_plus, e_minus)
    p1, p2 = stats[0], stats[1]
    rng = np.random.default_rng(seed)
    base = np.linspace(0.02, 0.98, grid)
    jitter = rng.uniform(-0.5, 0.5, grid) * (0.96 / grid)
    gammas = np.clip(base + jitter, 0.02, 0.98)
    best = None
    for g in gammas:
        c = 1.0 - g
        # (c^2/g + c) b^2 - (2 p1 c / g) b + p1^2/g - p2 = 0, b = e_minus'
        qa = c * c / g + c
        qb = -2.0 * p1 * c / g
        qc = p1 * p1 / g - p2
        disc = qb * qb - 4 * qa * qc
        if disc < 0 or qa == 0:
            continue
        for b in ((-qb + math.sqrt(disc)) / (2 * qa), (-qb - math.sqrt(disc)) / (2 * qa)):
            if not 0.0 <= b <= 1.0:
                continue
            a = (p1 - c * b) / g
            if not 0.0 <= a <= 1.0:
                continue
            ep, em = 1.0 - a, b
            if ep + em >= 1.0 - 1e-9:
                continue
            dist = max(abs(g - gamma), abs(ep - e_plus), abs(em - e_minus))
            if dist < 0.01:
                continue
            res = max(abs(x - y) for x, y in zip(_binary_stats(g, ep, em), stats))
            if res > 1e-8:
                continue
            if best is None or res < best[3]:
                best = (float(g), float(ep), float(em), float(res), float(dist))
        if best is not None and best[3] == 0.0:
            break
    return best


# Scalar-loop residual and Jacobian of the tied and general latent-class
# models, the reference that _kernels._residual_jac is checked against.


def _softmax(u):
    m = np.max(u)
    e = np.exp(u - m)
    return e / np.sum(e)


def _row_softmax(V):
    K, n = V.shape
    out = np.empty((K, n))
    for i in range(K):
        out[i] = _softmax(V[i])
    return out


def _sym_residual_jac(theta, target, K):
    """Residual vector and Jacobian wrt theta for the tied-factor model."""
    u = theta[:K]
    V = theta[K:].reshape(K, K)
    w = _softmax(u)
    T = _row_softmax(V)
    n = K * K * K
    dim = K + K * K

    r = np.empty(n)
    model = np.zeros((K, K, K))
    for y in range(K):
        t = T[y]
        for a in range(K):
            for b in range(K):
                for c in range(K):
                    model[a, b, c] += w[y] * t[a] * t[b] * t[c]
    idx = 0
    for a in range(K):
        for b in range(K):
            for c in range(K):
                r[idx] = model[a, b, c] - target[a, b, c]
                idx += 1

    # dense partials wrt (w, T) first, then chain through the softmaxes;
    # problem sizes are tiny so the dense intermediates are cheap
    J = np.zeros((n, dim))
    dmodel_dw = np.zeros((n, K))
    dmodel_dT = np.zeros((n, K, K))
    for y in range(K):
        t = T[y]
        idx = 0
        for a in range(K):
            for b in range(K):
                for c in range(K):
                    dmodel_dw[idx, y] = t[a] * t[b] * t[c]
                    dmodel_dT[idx, y, a] += w[y] * t[b] * t[c]
                    dmodel_dT[idx, y, b] += w[y] * t[a] * t[c]
                    dmodel_dT[idx, y, c] += w[y] * t[a] * t[b]
                    idx += 1
    for i in range(n):
        for y in range(K):
            acc = 0.0
            for z in range(K):
                acc += dmodel_dw[i, z] * w[z] * ((1.0 if z == y else 0.0) - w[y])
            J[i, y] = acc
        for y in range(K):
            for a in range(K):
                acc = 0.0
                for bcol in range(K):
                    acc += (
                        dmodel_dT[i, y, bcol]
                        * T[y, bcol]
                        * ((1.0 if bcol == a else 0.0) - T[y, a])
                    )
                J[i, K + y * K + a] = acc
    return r, J


def _gen_residual_jac(theta, target, K, k1, k2, k3):
    u = theta[:K]
    off = K
    A = theta[off : off + K * k1].reshape(K, k1)
    off += K * k1
    B = theta[off : off + K * k2].reshape(K, k2)
    off += K * k2
    C = theta[off : off + K * k3].reshape(K, k3)
    w = _softmax(u)
    Am = _row_softmax(A)
    Bm = _row_softmax(B)
    Cm = _row_softmax(C)
    n = k1 * k2 * k3
    dim = theta.shape[0]

    r = np.empty(n)
    idx = 0
    for a in range(k1):
        for b in range(k2):
            for c in range(k3):
                acc = -target[a, b, c]
                for y in range(K):
                    acc += w[y] * Am[y, a] * Bm[y, b] * Cm[y, c]
                r[idx] = acc
                idx += 1

    dmodel_dw = np.zeros((n, K))
    dA = np.zeros((n, K, k1))
    dB = np.zeros((n, K, k2))
    dC = np.zeros((n, K, k3))
    idx = 0
    for a in range(k1):
        for b in range(k2):
            for c in range(k3):
                for y in range(K):
                    pa, pb, pc = Am[y, a], Bm[y, b], Cm[y, c]
                    dmodel_dw[idx, y] = pa * pb * pc
                    dA[idx, y, a] = w[y] * pb * pc
                    dB[idx, y, b] = w[y] * pa * pc
                    dC[idx, y, c] = w[y] * pa * pb
                idx += 1

    J = np.zeros((n, dim))
    for i in range(n):
        for y in range(K):
            acc = 0.0
            for z in range(K):
                acc += dmodel_dw[i, z] * w[z] * ((1.0 if z == y else 0.0) - w[y])
            J[i, y] = acc
        off = K
        for y in range(K):
            for a in range(k1):
                acc = 0.0
                for col in range(k1):
                    acc += dA[i, y, col] * Am[y, col] * (
                        (1.0 if col == a else 0.0) - Am[y, a]
                    )
                J[i, off + y * k1 + a] = acc
        off += K * k1
        for y in range(K):
            for b in range(k2):
                acc = 0.0
                for col in range(k2):
                    acc += dB[i, y, col] * Bm[y, col] * (
                        (1.0 if col == b else 0.0) - Bm[y, b]
                    )
                J[i, off + y * k2 + b] = acc
        off += K * k2
        for y in range(K):
            for c in range(k3):
                acc = 0.0
                for col in range(k3):
                    acc += dC[i, y, col] * Cm[y, col] * (
                        (1.0 if col == c else 0.0) - Cm[y, c]
                    )
                J[i, off + y * k3 + c] = acc
    return r, J


def rowwise_to_csv(ds, path):
    """The CSV file of NoisyDataset ds, written one cell at a time through
    the csv module (no provenance sidecar)."""
    header = []
    cols = []
    if ds.x is not None:
        header += [f"x_{i+1}" for i in range(ds.x.shape[1])]
        cols.append(ds.x)
    if ds.r is not None:
        header += [f"r_{i+1}" for i in range(ds.r.shape[1])]
        cols.append(ds.r)
    header.append("y")
    cols.append(ds.y[:, None])
    header += [f"ytilde_{i+1}" for i in range(ds.p)]
    cols.append(ds.noisy)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = []
            for block in cols:
                for v in block[i]:
                    if isinstance(v, (np.floating, float)):
                        row.append(repr(float(v)))
                    else:
                        row.append(int(v))
            writer.writerow(row)


def rowwise_from_csv(path):
    """(y, noisy, x, r) parsed from a dataset CSV one row at a time with the
    csv module; x and r are None without such columns. A cell that int or
    float rejects, or a missing one, raises ValidationError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = list(reader)
    if "y" not in header:
        raise ValidationError(f"{path}: CSV is missing the clean-label column 'y'")
    x_cols = [i for i, h in enumerate(header) if h.startswith("x_")]
    r_cols = [i for i, h in enumerate(header) if h.startswith("r_")]
    yt_cols = [i for i, h in enumerate(header) if h.startswith("ytilde_")]
    y_col = header.index("y")
    try:
        y = np.array([int(row[y_col]) for row in rows], dtype=np.int64)
        noisy = np.array(
            [[int(row[c]) for c in yt_cols] for row in rows], dtype=np.int64
        )
        x = (
            np.array([[float(row[c]) for c in x_cols] for row in rows])
            if x_cols
            else None
        )
        r = (
            np.array([[int(row[c]) for c in r_cols] for row in rows], dtype=np.int64)
            if r_cols
            else None
        )
    except (ValueError, IndexError):
        raise ValidationError(f"{path}: cannot parse the CSV") from None
    return y, noisy, x, r
