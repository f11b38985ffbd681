"""Command-line entry point.

Grammar: ``noise-id <check|generate|estimate|witness|simulate-2nn|bound>``.
Exit codes: 0 success, 2 validation failure, 3 capability (insufficient
observations), 4 search exhausted, 1 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import consensus, features, identifiability, noisegen
from .datasets import NoisyDataset, _read_json
from .errors import (
    CapabilityError,
    NoiseIdError,
    SearchExhaustedError,
    ValidationError,
)
from .matrices import Prior, Scenario, TransitionMatrix

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_CAPABILITY = 3
EXIT_SEARCH = 4

SCENARIO_FIELDS = {
    "K", "prior", "T", "noise_model", "features", "groups", "seed", "n", "p",
}
PARAMS_FIELDS = {"lambda", "N", "epsilon_close", "label_probs", "T"}
# a tuple, not a set: `in` must not hash the value, which may be a JSON list
NOISE_MODELS = ("asymmetric", "explicit", "instance", "part_dependent")


_REQUIRED = object()


@contextlib.contextmanager
def _located(path):
    """Name the file at path (or files, joined by commas) in any
    ValidationError raised while its document is converted or checked
    against the others; a message that begins with that name already is
    left as it is."""
    try:
        yield
    except ValidationError as e:
        if str(e).startswith(str(path)):
            raise
        raise type(e)(f"{path}: {e}") from None


def _field(doc, key, cast, default=_REQUIRED, section=""):
    """cast(doc[key]), or default when the key is absent or null. A missing
    required field, or a value that cast rejects, raises ValidationError
    naming the field."""
    name = f"{section}.{key}" if section else key
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValidationError(f"missing required field '{name}'")
        return default
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError, argparse.ArgumentTypeError) as e:
        raise ValidationError(f"field '{name}': {e}") from None


def _floats(v):
    return np.asarray(v, dtype=float)


def _int_at_least(least):
    """A cast to an int >= least, for `_field` and for argparse (which
    names it "int" when int() fails). A bool, or a float with a fractional
    part, is refused rather than truncated."""

    def cast(v):
        if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
            raise ValueError(f"must be an integer, got {v!r}")
        n = int(v)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
        return n

    cast.__name__ = "int"
    return cast


def _cardinalities(d_star):
    """A cast to a tuple of d_star ints >= 2: one int stands for every
    feature, and a list gives one per feature."""
    card = _int_at_least(2)

    def cast(v):
        if not isinstance(v, list):
            return (card(v),) * d_star
        if len(v) != d_star:
            raise ValueError(f"need one entry per feature (d_star = {d_star}), got {len(v)}")
        return tuple(map(card, v))

    return cast


def _seed(v):
    """v itself, once np.random.SeedSequence takes it as entropy: an int
    >= 0 or a list of them."""
    np.random.SeedSequence(v)
    return v


class ScenarioFile:
    """Validated view of a scenario JSON document; `path` names it in the
    messages of later checks."""

    def __init__(self, doc: dict, path: str = "<memory>"):
        self.path = path
        if not isinstance(doc, dict):
            raise ValidationError("scenario must be a JSON object")
        unknown = set(doc) - SCENARIO_FIELDS
        if unknown:
            raise ValidationError(f"unknown fields {sorted(unknown)}")
        self.K = _field(doc, "K", _int_at_least(1))
        self.seed = _field(doc, "seed", _seed, None)
        self.n = _field(doc, "n", _int_at_least(1), None)
        self.p = _field(doc, "p", _int_at_least(1), None)

        uniform = np.full(self.K, 1.0 / self.K)
        self.prior = Prior(_field(doc, "prior", _floats, uniform))
        if self.prior.K != self.K:
            raise ValidationError("prior length does not match K")

        nm = doc.get("noise_model") or {"type": "explicit"}
        if not isinstance(nm, dict) or nm.get("type") not in NOISE_MODELS:
            raise ValidationError(f"noise_model.type must be one of {sorted(NOISE_MODELS)}")
        self.noise_model = nm
        if nm["type"] in ("asymmetric", "instance"):
            self.eps = _field(nm, "eps", float, section="noise_model")
        if nm["type"] == "instance":
            self.S = _field(nm, "S", _int_at_least(0), 10, section="noise_model")

        self.T = None
        if nm["type"] == "asymmetric":
            self.T = noisegen.asymmetric_T(self.K, self.eps)
        elif nm["type"] == "part_dependent":
            parts = _field(nm, "parts", lambda v: tuple(map(_floats, v)), section="noise_model")
            weights = _field(nm, "weights", _floats, section="noise_model")
            self.T = noisegen.part_dependent_T(weights, parts)
        elif doc.get("T") is not None:
            self.T = TransitionMatrix(_field(doc, "T", _floats))
        # a missing T is only an error for commands that need one; scenario()
        # raises then
        if self.T is not None and self.T.K != self.K:
            raise ValidationError("T shape does not match K")

        self.features = doc.get("features")
        if self.features is not None:
            fs = self.features
            if not isinstance(fs, dict):
                raise ValidationError("features must be a JSON object")
            extra = set(fs) - {"d_star", "cardinalities", "min_kruskal"}
            if extra:
                raise ValidationError(f"unknown feature fields {sorted(extra)}")
            self.d_star = _field(fs, "d_star", _int_at_least(0), section="features")
            self.cardinalities = _field(
                fs, "cardinalities", _cardinalities(self.d_star), (2,) * self.d_star,
                section="features",
            )
            self.min_kruskal = _field(fs, "min_kruskal", _int_at_least(1), 2, section="features")
        self.groups = doc.get("groups")
        if self.groups is not None:
            if not isinstance(self.groups, dict):
                raise ValidationError("groups must be a JSON object")
            self.group_count = _field(self.groups, "count", _int_at_least(1), section="groups")

    def feature_model(self, seed) -> identifiability.ObservationModel:
        """The feature matrices of the `features` section, drawn from seed;
        `check --mode group` and `generate` draw the same ones."""
        with _located(self.path):
            return features.gen_feature_model(
                self.K, self.d_star, self.cardinalities, self.min_kruskal, seed=seed
            )

    def scenario(self) -> Scenario:
        if self.T is None:
            raise ValidationError(f"{self.path}: no transition matrix available")
        return Scenario(T=self.T, prior=self.prior)


def load_scenario(path) -> ScenarioFile:
    doc = _read_json(path)
    with _located(path):
        return ScenarioFile(doc, str(path))


def load_matrix(path) -> np.ndarray:
    """The transition matrix in the JSON file at path (a matrix, or an
    object whose field T holds one), or ValidationError naming the file."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "T" in doc:
        doc = doc["T"]
    with _located(path):
        return TransitionMatrix(doc).entries


def emit(report: dict, args) -> None:
    if not getattr(args, "no_timestamp", False):
        report = dict(report)
        report["timestamp"] = datetime.datetime.now().isoformat(timespec="seconds")
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in report.items():
            if isinstance(value, (list, tuple)) and value and isinstance(value[0], (list, tuple)):
                print(f"{key}:")
                for row in value:
                    print("  " + "  ".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row))
            else:
                print(f"{key}: {_fmt(value)}")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def _require_seed(args, sf: ScenarioFile | None = None):
    seed = args.seed
    if seed is None and sf is not None:
        seed = sf.seed
    if seed is None:
        if getattr(args, "strict", False):
            raise ValidationError("--strict requires an explicit seed")
        seed = 0
    return seed


def cmd_check(args) -> int:
    sf = load_scenario(args.scenario)
    mode = args.mode
    if mode == "instance3":
        report = identifiability.check_instance_three_labels(sf.scenario().T)
    elif mode == "kruskal":
        p = sf.p or 3
        obs = identifiability.ObservationModel((sf.scenario().T,) * p)
        report = identifiability.check_kruskal_sum(obs)
    elif mode == "group":
        if sf.features is None:
            raise ValidationError("group mode requires a 'features' section")
        fm = sf.feature_model(_require_seed(args, sf))
        report = identifiability.check_group_features(sf.scenario().T, fm)
    elif mode == "unknown-groups":
        if sf.features is None or sf.groups is None:
            raise ValidationError(
                "unknown-groups mode requires 'features' and 'groups' sections"
            )
        report = identifiability.check_unknown_groups(
            sf.group_count, sf.K, sf.d_star
        )
    else:  # generic
        if sf.features is None:
            raise ValidationError("generic mode requires a 'features' section")
        report = identifiability.check_generic(sf.K, sf.cardinalities)
    emit({"mode": mode, **report.to_dict()}, args)
    return EXIT_OK


def cmd_generate(args) -> int:
    sf = load_scenario(args.scenario)
    seed = _require_seed(args, sf)
    n = sf.n or 1000
    nm = sf.noise_model
    with _located(sf.path):
        if nm["type"] == "instance":
            if sf.p not in (None, 1):
                raise ValidationError(
                    "field 'p': an instance scenario draws one noisy label per "
                    f"record, got p={sf.p}"
                )
            if sf.features is not None:
                raise ValidationError("field 'features': an instance scenario draws none")
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((n, sf.S))
            y, _ = noisegen.sample_views(sf.prior, [], n, rng)
            noisy, pvec = noisegen.instance_noise(x, y, sf.eps, sf.K, (seed, 1))
            ds = NoisyDataset(
                y=y,
                noisy=noisy,
                K=sf.K,
                x=x,
                provenance={
                    "model": "instance",
                    "eps": sf.eps,
                    "S": sf.S,
                    "K": sf.K,
                    "n": n,
                    "seed": seed,
                    "prior": sf.prior.weights.tolist(),
                },
            )
        else:
            p = sf.p or 3
            T = sf.scenario().T
            if sf.features is None:
                ds = noisegen.sample_iid_noisy(sf.prior, T, p, n, seed)
            else:
                # the records draw from their own stream, not the matrices'
                fm = sf.feature_model(seed)
                ds = features.sample_with_features(sf.prior, T, fm, n, (seed, 1), p)
            ds.provenance["noise_model"] = nm
    ds.to_csv(args.out)
    if nm["type"] == "instance" and args.emit_rows:
        rows_path = Path(args.out).with_suffix(".rows.csv")
        np.savetxt(rows_path, pvec, delimiter=",", fmt="%.17g")
    emit(
        {"written": str(args.out), "records": ds.n, "noisy_labels": ds.p, "seed": seed},
        args,
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    seed = _require_seed(args)
    truth = load_matrix(args.truth) if args.truth else None
    if args.exact:
        sf = load_scenario(args.source)
        joint = consensus.exact_joint(sf.prior, [sf.scenario().T] * (sf.p or 3))
        result = consensus.estimate(joint, restarts=args.restarts, seed=seed)
        if truth is None:
            truth = sf.scenario().T.entries
    else:
        ds = NoisyDataset.from_csv(args.source)
        with _located(args.source):
            if args.from_features:
                result = consensus.fit(
                    features.empirical_three_view(ds), False, args.restarts, seed, ds.n
                )
            else:
                result = consensus.estimate(
                    consensus.empirical_joint(ds), restarts=args.restarts, seed=seed, n=ds.n
                )
    report = {
        "prior": result.scenario.prior.weights.tolist(),
        "T": result.scenario.T.entries.tolist(),
        "residual": result.residual,
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "alignment_permutation": list(result.permutation),
    }
    if truth is not None:
        with _located(args.truth or args.source):
            report["err"] = consensus.err_metric(
                result.scenario.T.entries, truth, permutation_invariant=True
            )
    emit(report, args)
    return EXIT_OK


def cmd_witness(args) -> int:
    w = consensus.witness_p2(args.gamma, args.e_plus, args.e_minus)
    emit(
        {
            "input": [args.gamma, args.e_plus, args.e_minus],
            "witness": [w.gamma, w.e_plus, w.e_minus],
            "statistic_residual": w.residual,
            "parameter_distance": w.distance,
            "statistics": list(
                consensus.binary_stats(args.gamma, args.e_plus, args.e_minus).as_tuple()
            ),
        },
        args,
    )
    return EXIT_OK


def cmd_simulate_2nn(args) -> int:
    path = args.params
    doc = _read_json(path)
    with _located(path):
        if not isinstance(doc, dict):
            raise ValidationError("parameters must be a JSON object")
        unknown = set(doc) - PARAMS_FIELDS
        if unknown:
            raise ValidationError(f"unknown fields {sorted(unknown)}")
        params = noisegen.UnstructuredParams(
            lam=_field(doc, "lambda", _floats),
            N=_field(doc, "N", _int_at_least(3)),
            epsilon_close=_field(doc, "epsilon_close", float, 0.0),
            label_probs=_field(doc, "label_probs", _floats),
            T=TransitionMatrix(_field(doc, "T", _floats)),
        )
    seed = _require_seed(args)
    rates = []
    thresholds = []
    for t in range(args.trials):
        ds = noisegen.unstructured_process(params, (seed, t))
        thresholds.append(ds.threshold_N)
        rates.append(noisegen.check_2nn(ds))
    rates = np.asarray(rates)
    threshold = float(np.max(thresholds))
    emit(
        {
            "N": params.N,
            "threshold": threshold,
            "clears_threshold": bool(params.N > threshold),
            "trials": args.trials,
            "mean_satisfaction": float(rates.mean()),
            "all_satisfied_fraction": float((rates == 1.0).mean()),
            "note": "probability bound 1 - N*exp(-2N) noted, not asserted",
        },
        args,
    )
    return EXIT_OK


def cmd_bound(args) -> int:
    paths = (args.t1, args.t2, args.tstar)
    mats = [load_matrix(path) for path in paths]
    with _located(", ".join(paths)):
        lhs, rhs, holds = consensus.mixing_bound(*mats)
    emit({"lhs": lhs, "rhs": rhs, "holds": bool(holds)}, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="noise-id",
        description="Identifiability checks, synthetic noisy-label data, and "
        "transition-matrix recovery.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--no-timestamp", action="store_true")

    def seeded(p):
        common(p)
        p.add_argument("--seed", type=_int_at_least(0), default=None)
        p.add_argument("--strict", action="store_true", help="require an explicit seed")

    p = sub.add_parser("check", help="run an identifiability checker")
    p.add_argument("scenario")
    p.add_argument(
        "--mode",
        choices=["instance3", "kruskal", "group", "unknown-groups", "generic"],
        default="instance3",
    )
    seeded(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="generate a synthetic noisy dataset")
    p.add_argument("scenario")
    p.add_argument("-o", "--out", required=True)
    p.add_argument(
        "--emit-rows",
        action="store_true",
        help="also dump per-instance transition rows (instance model)",
    )
    seeded(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("estimate", help="recover (prior, T) from data")
    p.add_argument("source", help="dataset CSV, or scenario file with --exact")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--exact", action="store_true", help="fit the exact forward joint")
    source.add_argument(
        "--from-features", action="store_true",
        help="fit two feature columns and the first noisy label as distinct views",
    )
    p.add_argument("--restarts", type=_int_at_least(1), default=20)
    p.add_argument("--truth", default=None, help="matrix file for error reporting")
    seeded(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("witness", help="two-label non-identifiability witness")
    # argparse's default takes "-5.96e-08" for an option; any "-" followed
    # by a digit, or by "." and a digit, is a number here
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("gamma", type=float)
    p.add_argument("e_plus", type=float)
    p.add_argument("e_minus", type=float)
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("simulate-2nn", help="triplet process and 2-NN satisfaction")
    p.add_argument("params")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    seeded(p)
    p.set_defaults(func=cmd_simulate_2nn)

    p = sub.add_parser("bound", help="two-group mixing error lower bound")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument("tstar")
    common(p)
    p.set_defaults(func=cmd_bound)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at the null device so
        # that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INTERNAL
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapabilityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPABILITY
    except SearchExhaustedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEARCH
    except NoiseIdError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
