"""The benchmark's four workloads.

A workload runs in rounds. Round ``r`` draws its inputs from the generator
seeded with ``(seed, r)`` (``exact-solve`` runs one fixed sweep instead),
runs the same operations as every other round,
times each one, and then checks the outputs with :mod:`checks`, outside the
timed region. Every operation goes through ``noise_id.cli.main`` in this
process, except where a workload calls the library on purpose.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from noise_id import cli, consensus, features
from noise_id.matrices import Prior, TransitionMatrix

import checks
from checks import CheckFailed

N_IID = 300_000
N_INSTANCE = 20_000
S_INSTANCE = 10
N_FEATURES = 100_000
FEATURE_CARD = 4
WIDE_KS = (6, 7, 8, 9)
SCORING_KS = (8, 9)
CHECK_MODES = ("instance3", "kruskal", "group", "unknown-groups", "generic")
OUTPUT = ("--json", "--no-timestamp")


def run_cli(argv):
    """noise_id.cli.main(argv) with its output captured: (exit code, stdout,
    stderr). ``cli.main`` is looked up on each call, so a tracer's wrapper
    applies."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def cli_json(*argv):
    rc, out, err = run_cli(list(argv) + list(OUTPUT))
    if rc != 0:
        raise RuntimeError(f"exit {rc}: {err.strip()}")
    return json.loads(out)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Round:
    """One round's raw timings, operation counts, outputs and check problems.
    A round given a speed probe samples the core speed while its operations
    run; one given a tracer traces them."""

    def __init__(self, index, probe=None, tracer=None, points=()):
        self.index = index
        self.probe = probe
        self.tracer = tracer
        self.points = points
        self.op_s = {"generate": 0.0, "estimate": 0.0, "check": 0.0}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.csv_bytes = 0
        self.err_pcts = []
        self.digests = {}
        self.speed_samples = []

    @property
    def round_s(self):
        return sum(self.op_s.values())

    @contextmanager
    def ops(self):
        """The block holding a round's operations."""
        first = len(self.probe.samples) if self.probe else 0
        with self.probe.sampling() if self.probe else nullcontext():
            with self.tracer.installed(self.points) if self.tracer else nullcontext():
                yield
        if self.probe:
            self.speed_samples = self.probe.samples[first:]

    def timed(self, kind, fn, *args):
        """Run one operation and add its time to `kind`. An operation that
        raises counts as failed and yields None."""
        self.attempted += 1
        stolen = self.probe.stolen if self.probe else 0.0
        t0 = perf_counter()
        try:
            return fn(*args)
        except Exception as e:
            self.failed += 1
            print(f"round {self.index}: {kind} failed: {e!r}", file=sys.stderr)
            return None
        finally:
            dt = perf_counter() - t0
            if self.probe:
                dt -= self.probe.stolen - stolen
            self.op_s[kind] += dt

    def must_reject(self, argv):
        """Run one malformed-input command, untimed. It succeeds only when the
        CLI refuses the input with exit code 2, as its usage text promises."""
        self.attempted += 1
        try:
            rc = run_cli(argv)[0]
        except Exception:
            rc = None
        if rc != cli.EXIT_VALIDATION:
            self.failed += 1

    def check(self, what, fn, *args):
        """Run one check and return its result; a failure is recorded, not
        raised, and returns None. A check of an output that is missing,
        because its operation or an earlier check failed, is skipped. An
        output without the fields a check reads fails that check."""
        if any(a is None for a in args):
            return None
        try:
            return fn(*args)
        except CheckFailed as e:
            self.problems.append(f"round {self.index} {what}: {e}")
        except (KeyError, TypeError, ValueError, IndexError) as e:
            self.problems.append(f"round {self.index} {what}: malformed output ({e!r})")
        return None


class LabelsIO:
    """Three i.i.d. noisy labels at K=2 through generate and estimate, plus a
    write-only instance-model dataset with float columns, plus three
    malformed inputs the CLI should refuse."""

    name = "labels-io"

    def __init__(self, work, seed):
        self.work, self.seed = work, seed
        bad_eps = write_json(
            work / "bad_eps.json",
            {"K": 2, "noise_model": {"type": "asymmetric"}, "seed": 1, "n": 10, "p": 3},
        )
        bad_k = write_json(
            work / "bad_k.json",
            {"K": "three", "T": [[0.9, 0.1], [0.2, 0.8]], "seed": 1, "n": 10, "p": 3},
        )
        bad_cell = work / "bad_cell.csv"
        bad_cell.write_text("y,ytilde_1,ytilde_2,ytilde_3\n1,1,2,1\n2,x,2,2\n")
        self.malformed = [
            ["generate", bad_eps, "-o", work / "bad.csv"],
            ["generate", bad_k, "-o", work / "bad.csv"],
            ["estimate", bad_cell],
        ]

    def round(self, rr):
        rng = np.random.default_rng((self.seed, rr.index))
        K = 2
        a = rng.uniform(0.25, 0.75)
        w = np.array([a, 1.0 - a])
        flips = rng.uniform(0.05, 0.3, 2)
        T = np.array([[1 - flips[0], flips[0]], [flips[1], 1 - flips[1]]])
        doc = {"K": K, "prior": w.tolist(), "T": T.tolist(),
               "seed": int(rng.integers(2**31)), "n": N_IID, "p": 3}
        inst = {"K": 3, "seed": int(rng.integers(2**31)), "n": N_INSTANCE,
                "noise_model": {"type": "instance", "eps": float(rng.uniform(0.1, 0.4)),
                                "S": S_INSTANCE}}
        wk = self.work
        scen, truth = write_json(wk / "scen.json", doc), write_json(wk / "T.json", {"T": doc["T"]})
        inst_scen = write_json(wk / "inst.json", inst)
        data, inst_csv = wk / "data.csv", wk / "inst.csv"

        with rr.ops():
            gen = rr.timed("generate", cli_json, "generate", scen, "-o", data)
            est = rr.timed("estimate", cli_json, "estimate", data, "--truth", truth)
            igen = rr.timed("generate", cli_json, "generate", inst_scen, "-o", inst_csv)
        for argv in self.malformed:
            rr.must_reject(argv)

        header = ["y", "ytilde_1", "ytilde_2", "ytilde_3"]
        if gen is not None:
            rr.csv_bytes += data.stat().st_size
            rr.digests["data"] = digest(data, f"{data}.provenance.json")

            def check_data():
                if gen["records"] != N_IID:
                    raise CheckFailed(f"generate reported {gen['records']} records")
                cols = checks.read_csv(data, header, N_IID, {h: (1, K) for h in header})
                counts = checks.tuple_counts([cols[h] for h in header], (K,) * 4)
                checks.check_multinomial(
                    counts, checks.forward(w, T, T, T, keep_hidden=True), "label tuples"
                )
                return checks.symmetrize(counts.sum(axis=0) / N_IID)

            target = rr.check("data.csv", check_data)
            rr.check("estimate", checks.check_sampled_fit, est, target, w, T)
            rr.check("estimate err", checks.check_err, est, T)
        if est is not None:
            rr.err_pcts.append(est["err"])
        if igen is not None:
            rr.csv_bytes += inst_csv.stat().st_size
            rr.digests["inst"] = digest(inst_csv, f"{inst_csv}.provenance.json")

            def check_inst():
                head = [f"x_{i + 1}" for i in range(S_INSTANCE)] + ["y", "ytilde_1"]
                cols = checks.read_csv(inst_csv, head, N_INSTANCE,
                                       {"y": (1, 3), "ytilde_1": (1, 3)})
                counts = checks.tuple_counts([cols["y"]], (3,))
                checks.check_multinomial(counts, np.full(3, 1 / 3), "instance clean labels")

            rr.check("inst.csv", check_inst)


def interior_draw(rng, K):
    """Prior and T as in the exact-recovery acceptance sweep (Dirichlet(1)
    draws kept when every prior entry is >= 0.05 and |det T| >= 0.1), and
    with every entry of T >= 0.05 too. Draws with an entry of T near 0 are
    left to the boundary scenario: the solver misses some of them (see
    README)."""
    while True:
        w = rng.dirichlet(np.ones(K))
        T = rng.dirichlet(np.ones(K), size=K)
        if min(w.min(), T.min()) >= 0.05 and abs(np.linalg.det(T)) >= 0.1:
            return w, T


class ExactSolve:
    """`estimate --exact` on a fixed sweep of interior draws, two at K=2 and
    two at K=3, plus one boundary scenario with exact zeros in T.

    The sweep does not depend on the run's seed. One exact solve takes
    anywhere from 0.3 to 9 s depending on the draw and the solver seed, so a
    run of a few seed-drawn solves cannot hold its round time steady from one
    seed to the next; the same fixed sweep in every run can (see README)."""

    name = "exact-solve"
    KS = (2, 2, 3, 3)
    SWEEP_SEED = 5

    def __init__(self, work, seed):
        rng = np.random.default_rng(self.SWEEP_SEED)
        self.cases = []
        for i, K in enumerate(self.KS):
            w, T = interior_draw(rng, K)
            path = write_json(work / f"scen{i}_K{K}.json",
                              {"K": K, "prior": w.tolist(), "T": T.tolist()})
            argv = ["estimate", path, "--exact", "--seed", int(rng.integers(2**31))]
            self.cases.append((argv, w, T))
        # asymmetric_T(3, 0.3) with the default uniform prior; its zeros keep
        # every restart short of the early exit, so one restart is given
        boundary = write_json(
            work / "boundary.json", {"K": 3, "noise_model": {"type": "asymmetric", "eps": 0.3}}
        )
        self.cases.append((["estimate", boundary, "--exact", "--restarts", 1, "--seed", 0],
                           np.full(3, 1 / 3), 0.7 * np.eye(3) + 0.3 * np.roll(np.eye(3), 1, 1)))

    def round(self, rr):
        with rr.ops():
            reports = [rr.timed("estimate", cli_json, *argv) for argv, _, _ in self.cases]
        for rep, (argv, w, T) in zip(reports, self.cases):
            what = Path(argv[1]).name
            rr.check(what, checks.check_exact_recovery, rep, w, T)
            rr.check(what + " err", checks.check_err, rep, T)


class FeatureRecovery:
    """Two features of cardinality 4 plus one noisy label at K=3: build the
    dataset through the library, estimate from features, check two modes."""

    name = "feature-recovery"
    K = 3

    def __init__(self, work, seed):
        self.work, self.seed = work, seed

    def build(self, w, T, fseed, dseed, path):
        fm = features.gen_feature_model(self.K, 2, FEATURE_CARD, self.K, seed=fseed)
        ds = features.sample_with_features(Prior(w), TransitionMatrix(T), fm, N_FEATURES, dseed)
        ds.to_csv(path)
        return [m.entries for m in fm.models]

    def round(self, rr):
        rng = np.random.default_rng((self.seed, rr.index))
        K = self.K
        w = rng.dirichlet(np.full(K, 4.0))
        T = 0.5 * np.eye(K) + 0.5 * rng.dirichlet(np.ones(K), size=K)
        fseed, dseed = (int(x) for x in rng.integers(2**31, size=2))
        doc = {"K": K, "prior": w.tolist(), "T": T.tolist(), "seed": fseed,
               "features": {"d_star": 2, "cardinalities": FEATURE_CARD, "min_kruskal": K}}
        wk = self.work
        scen, truth = write_json(wk / "fscen.json", doc), write_json(wk / "T.json", {"T": doc["T"]})
        data = wk / "features.csv"

        with rr.ops():
            mats = rr.timed("generate", self.build, w, T, fseed, dseed, data)
            est = rr.timed("estimate", cli_json, "estimate", data, "--from-features",
                           "--truth", truth)
            reps = {m: rr.timed("check", cli_json, "check", scen, "--mode", m)
                    for m in ("group", "generic")}

        if mats is not None:
            rr.csv_bytes += data.stat().st_size
            rr.digests["features"] = digest(data, f"{data}.provenance.json")
            header = ["r_1", "r_2", "y", "ytilde_1"]
            ranges = {"r_1": (1, FEATURE_CARD), "r_2": (1, FEATURE_CARD),
                      "y": (1, K), "ytilde_1": (1, K)}

            def check_data():
                own = checks.feature_matrices(K, 2, FEATURE_CARD, K, fseed)
                if not all(np.array_equal(a, b) for a, b in zip(own, mats)):
                    raise CheckFailed("feature matrices differ from the seeded draw")
                cols = checks.read_csv(data, header, N_FEATURES, ranges)
                counts = checks.tuple_counts(
                    [cols[h] for h in ("y", "r_1", "r_2", "ytilde_1")],
                    (K, FEATURE_CARD, FEATURE_CARD, K),
                )
                checks.check_multinomial(
                    counts, checks.forward(w, *mats, T, keep_hidden=True), "feature tuples"
                )
                return counts.sum(axis=0) / N_FEATURES

            target = rr.check("features.csv", check_data)
            rr.check("estimate", checks.check_feature_fit, est, target, w, [*mats, T])
            rr.check("estimate err", checks.check_err, est, T)
        if est is not None:
            rr.err_pcts.append(est["err"])
        for mode, rep in reps.items():
            rr.check(f"check {mode}", checks.check_verdict, rep, mode, doc)


class WideK:
    """`check` in all five modes at K = 6..9, and permutation-invariant
    scoring at K = 8 and 9."""

    name = "wide-K"

    def __init__(self, work, seed):
        self.work, self.seed = work, seed

    def round(self, rr):
        rng = np.random.default_rng((self.seed, rr.index))
        docs = []
        for K in WIDE_KS:
            T = 0.6 * np.eye(K) + 0.4 * rng.dirichlet(np.ones(K), size=K)
            docs.append({
                "K": K, "prior": rng.dirichlet(np.full(K, 5.0)).tolist(), "T": T.tolist(),
                "seed": int(rng.integers(2**31)), "p": 3,
                "features": {"d_star": int(rng.integers(K - 1, K + 2)),
                             "cardinalities": int(rng.integers(2, 4)), "min_kruskal": 2},
                "groups": {"count": int(rng.integers(1, 3))},
            })
        paths = [write_json(self.work / f"wide{d['K']}.json", d) for d in docs]
        pairs = [checks.scoring_pair(rng, K) for K in SCORING_KS]

        def score(T_hat, T):
            return consensus.err_metric(T_hat, T, permutation_invariant=True)

        with rr.ops():
            reports = [[rr.timed("check", cli_json, "check", p, "--mode", m) for m in CHECK_MODES]
                       for p in paths]
            scores = [rr.timed("check", score, T_hat, T) for T_hat, T, _ in pairs]
        for doc, reps in zip(docs, reports):
            for mode, rep in zip(CHECK_MODES, reps):
                rr.check(f"check {mode}", checks.check_verdict, rep, mode, doc)
        for err, (T_hat, T, perm) in zip(scores, pairs):
            rr.check("scoring", checks.check_scoring, err, T_hat, T, perm)


WORKLOADS = {w.name: w for w in (LabelsIO, ExactSolve, FeatureRecovery, WideK)}
