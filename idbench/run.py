#!/usr/bin/env python3
"""Benchmark for noise-id: one workload, one seed, one JSON result.

Usage (from the repository root):

    python3 idbench/run.py --workload labels-io --seed 1 --seconds 10 --trace 0

An untraced run first measures set-up time in fresh interpreters. Every run
plays one untimed warm-up round, then whole timed rounds until ``--seconds``
of round time have passed, checking every output on the way. The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` every
timed round runs under the span tracer and the metrics are the per-layer
ones. See idbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".idbench_work"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)
SETUP_REPEATS = 7
SETUP_CODE = "import time, noise_id.cli; print(repr(time.perf_counter()))"


def measure_setup(env, probe):
    """Median raw seconds from spawning a fresh interpreter until it has
    imported noise_id.cli, with the core speed sampled around each start.
    The child reads the same system-wide monotonic clock as this process, so
    its interpreter shutdown is left out."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        probe.sample()
        t0 = perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        samples.append(float(out.stdout) - t0)
    probe.sample()
    return statistics.median(samples)


def layer_metrics(rr):
    """Per-layer figures of one traced round."""
    st = rr.tracer.self_times()

    def t(name):
        return st.get(name, (0.0, 0))[0]

    def c(name):
        return st.get(name, (0.0, 0))[1]

    fits = c("kernels.fit_symmetric")
    return {
        "traced_round_s": rr.round_s,
        "generate_s": rr.op_s["generate"],
        "estimate_s": rr.op_s["estimate"],
        "check_s": rr.op_s["check"],
        "err_pct": statistics.fmean(rr.err_pcts) if rr.err_pcts else 0.0,
        "datasets.to_csv_s": t("datasets.to_csv"),
        "datasets.from_csv_s": t("datasets.from_csv"),
        "datasets.csv_mb": rr.csv_bytes / 1e6,
        "noisegen.sample_s": t("noisegen.sample"),
        "features.sample_s": t("features.sample"),
        "consensus.empirical_joint_s": t("consensus.empirical_joint"),
        "features.empirical_three_view_s": t("features.empirical_three_view"),
        "kernels.fit_symmetric_s": t("kernels.fit_symmetric"),
        "kernels.fit_symmetric_calls": fits,
        "kernels.refine_boundary_s": t("kernels.refine_boundary"),
        "kernels.refine_boundary_calls": c("kernels.refine_boundary"),
        "consensus.restart_yield": c("consensus.estimate") / fits if fits else 0.0,
        "kernels.fit_general_s": t("kernels.fit_general"),
        "kernels.fit_general_calls": c("kernels.fit_general"),
        "matrices.align_s": t("matrices.align"),
        "matrices.align_calls": c("matrices.align"),
        "matrices.kruskal_rank_s": t("matrices.kruskal_rank"),
        "matrices.kruskal_rank_calls": c("matrices.kruskal_rank"),
        "identifiability.check_self_s": t("identifiability.check"),
        "cli.self_s": t("cli"),
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "noise_id" / "cli.py").is_file():
        print(f"idbench: no noise_id source at {SRC.relative_to(ROOT)}", file=sys.stderr)
        return 2
    # one single-threaded process: fix BLAS threads before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))

    import numpy as np
    import noise_id

    if Path(noise_id.__file__).resolve().parent != (SRC / "noise_id").resolve():
        print(f"idbench: imported noise_id from {noise_id.__file__}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    # trace runs report raw per-layer times only: no set-up, no speed sampling
    setup_probe = speed.SpeedProbe()
    raw_setup_s = None if args.trace else measure_setup(env, setup_probe)
    probe = None if args.trace else speed.SpeedProbe()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](WORK, args.seed)
        warm = workloads.Round(0)
        wl.round(warm)
        points = tracing.wrap_points()
        rounds, spent = [], 0.0
        while spent < args.seconds or not rounds:
            tracer = tracing.Tracer() if args.trace else None
            rr = workloads.Round(len(rounds), probe, tracer, points)
            wl.round(rr)
            rounds.append(rr)
            spent += rr.round_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    # round 0 repeats the warm-up's inputs, so its files must match byte for byte
    rounds[0].check("outputs", checks.check_same_bytes, warm.digests, rounds[0].digests,
                    "round 0 against the warm-up")
    problems = [p for rr in [warm] + rounds for p in rr.problems]
    for p in problems:
        print(f"idbench: {p}", file=sys.stderr)

    # each round at the core speed of its own time span: the speed drifts in
    # phases of a few seconds, so one factor for the whole run lags behind;
    # a round too short to be sampled takes the whole run's factor
    round_factors = [
        speed.factor(rr.speed_samples) if rr.speed_samples else probe.factor()
        for rr in rounds
    ] if probe else None
    if args.trace:
        per_round = [layer_metrics(rr) for rr in rounds]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        # the core speed drifts too much for traced minus untraced round time
        # to show a cost this small, so count the spans and price each one
        metrics["trace_overhead_s"] = tracing.span_cost() * statistics.median(
            len(rr.tracer.spans) for rr in rounds
        )
        wanted = spec["per_layer"]
    else:
        metrics = {
            "round_s": statistics.median(rr.round_s * f for rr, f in zip(rounds, round_factors)),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": raw_setup_s * setup_probe.factor(),
        }
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"idbench: metrics {sorted(metrics)} do not match BENCHMARK.json")

    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "raw_round_s": [rr.round_s for rr in rounds],
        "warmup_raw_round_s": warm.round_s, "raw_setup_s": raw_setup_s,
        "speed_factor": probe.factor() if probe else None,
        "round_speed_factors": round_factors,
        "speed_samples": len(probe.samples) if probe else 0,
        "setup_speed_factor": None if args.trace else setup_probe.factor(),
        "cores": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rr.attempted for rr in rounds),
        "failed": sum(rr.failed for rr in rounds),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
