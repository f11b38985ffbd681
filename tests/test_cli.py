import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import noise_id
from noise_id.cli import (
    EXIT_CAPABILITY,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SEARCH,
    EXIT_VALIDATION,
    _int_at_least,
    load_scenario,
    main,
)
from noise_id.errors import ConvergenceWarning


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def binary_scenario_file(tmp_path):
    return write(
        tmp_path,
        "scenario.json",
        {
            "K": 2,
            "prior": [0.6, 0.4],
            "T": [[0.9, 0.1], [0.3, 0.7]],
            "noise_model": {"type": "explicit"},
            "seed": 1,
            "n": 200,
            "p": 3,
        },
    )


class TestCheck:
    def test_instance3_identifiable(self, binary_scenario_file, capsys):
        assert main(["check", binary_scenario_file, "--no-timestamp"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "identifiable" in out
        assert "timestamp" not in out

    def test_kruskal_p2_not_guaranteed(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "p2.json",
            {"K": 2, "T": [[0.9, 0.1], [0.3, 0.7]], "p": 2},
        )
        assert main(["check", path, "--mode", "kruskal", "--no-timestamp"]) == EXIT_OK
        assert "not_guaranteed" in capsys.readouterr().out

    def test_malformed_prior_exit_2(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "bad.json",
            {"K": 2, "prior": [0.5, 0.4], "T": [[0.9, 0.1], [0.3, 0.7]]},
        )
        assert main(["check", path]) == EXIT_VALIDATION

    def test_unknown_field_exit_2(self, tmp_path):
        path = write(tmp_path, "bad2.json", {"K": 2, "bogus": 1})
        assert main(["check", path]) == EXIT_VALIDATION

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", str(path)]) == EXIT_VALIDATION
        assert ":1:" in capsys.readouterr().err

    def test_unknown_groups_mode(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "ug.json",
            {"K": 2, "features": {"d_star": 7}, "groups": {"count": 2}},
        )
        assert main(["check", path, "--mode", "unknown-groups", "--json",
                     "--no-timestamp"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "identifiable"
        assert (doc["lhs"], doc["rhs"]) == (7, 7)

    def test_generic_mode(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "gen.json",
            {"K": 10, "features": {"d_star": 3, "cardinalities": 2}},
        )
        assert main(["check", path, "--mode", "generic", "--json",
                     "--no-timestamp"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "not_guaranteed"


class TestGenerate:
    def test_asymmetric_shape(self, tmp_path, capsys):
        scen = write(
            tmp_path,
            "asym.json",
            {
                "K": 3,
                "noise_model": {"type": "asymmetric", "eps": 0.3},
                "seed": 5,
                "n": 1000,
                "p": 3,
            },
        )
        out = tmp_path / "data.csv"
        assert main(["generate", scen, "-o", str(out), "--no-timestamp"]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1001
        assert lines[0] == "y,ytilde_1,ytilde_2,ytilde_3"

    def test_byte_identical_reruns(self, tmp_path):
        scen = write(
            tmp_path,
            "asym.json",
            {"K": 2, "noise_model": {"type": "asymmetric", "eps": 0.2},
             "seed": 9, "n": 500, "p": 3},
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", scen, "-o", str(a), "--no-timestamp"])
        main(["generate", scen, "-o", str(b), "--no-timestamp"])
        assert a.read_bytes() == b.read_bytes()

    def test_instance_model_emit_rows(self, tmp_path):
        scen = write(
            tmp_path,
            "inst.json",
            {"K": 3, "noise_model": {"type": "instance", "eps": 0.2, "S": 4},
             "seed": 2, "n": 50},
        )
        out = tmp_path / "inst.csv"
        assert main(
            ["generate", scen, "-o", str(out), "--emit-rows", "--no-timestamp"]
        ) == EXIT_OK
        rows = np.loadtxt(tmp_path / "inst.rows.csv", delimiter=",")
        assert rows.shape == (50, 3)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_instance_model_p1_is_the_default(self, tmp_path):
        doc = {"K": 3, "noise_model": {"type": "instance", "eps": 0.2, "S": 4},
               "seed": 2, "n": 50}
        files = []
        for name, extra in (("plain", {}), ("p1", {"p": 1})):
            scen = write(tmp_path, f"{name}.json", {**doc, **extra})
            out = tmp_path / f"{name}.csv"
            assert main(["generate", scen, "-o", str(out), "--no-timestamp"]) == EXIT_OK
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_strict_requires_seed(self, tmp_path):
        scen = write(
            tmp_path,
            "noseed.json",
            {"K": 2, "noise_model": {"type": "asymmetric", "eps": 0.2}, "n": 10},
        )
        out = tmp_path / "x.csv"
        assert main(["generate", scen, "-o", str(out), "--strict"]) == EXIT_VALIDATION
        assert main(["generate", scen, "-o", str(out)]) == EXIT_OK


class TestEstimate:
    def test_exact_binary(self, binary_scenario_file, capsys):
        assert main(
            ["estimate", binary_scenario_file, "--exact", "--json", "--no-timestamp"]
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["err"] < 1e-4
        assert doc["residual"] < 1e-10
        assert doc["converged"] is True

    def test_p2_dataset_exit_3(self, tmp_path, capsys):
        scen = write(
            tmp_path,
            "p2.json",
            {"K": 2, "noise_model": {"type": "asymmetric", "eps": 0.2},
             "seed": 0, "n": 100, "p": 2},
        )
        out = tmp_path / "p2.csv"
        main(["generate", scen, "-o", str(out), "--no-timestamp"])
        assert main(["estimate", str(out)]) == EXIT_CAPABILITY
        assert "three" in capsys.readouterr().err

    def test_p4_dataset_fits_every_label(self, tmp_path, capsys):
        scen = write(
            tmp_path,
            "p4.json",
            {"K": 2, "noise_model": {"type": "asymmetric", "eps": 0.2},
             "seed": 0, "n": 5000, "p": 4},
        )
        out = tmp_path / "p4.csv"
        main(["generate", scen, "-o", str(out), "--no-timestamp"])
        capsys.readouterr()
        truth = write(tmp_path, "truth.json", [[0.8, 0.2], [0.2, 0.8]])
        assert main(
            ["estimate", str(out), "--truth", truth, "--json", "--no-timestamp"]
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["err"] <= 2.0

    def test_p7_dataset_exit_3_naming_the_cap(self, tmp_path, capsys):
        scen = write(
            tmp_path,
            "p7.json",
            {"K": 3, "noise_model": {"type": "asymmetric", "eps": 0.2},
             "seed": 0, "n": 50, "p": 7},
        )
        out = tmp_path / "p7.csv"
        main(["generate", scen, "-o", str(out), "--no-timestamp"])
        capsys.readouterr()
        assert main(["estimate", str(out)]) == EXIT_CAPABILITY
        err = capsys.readouterr().err
        assert "2187 cells" in err and "MAX_JOINT_CELLS" in err

    def test_K11_exact_exit_3_at_once(self, tmp_path):
        # 11**3 cells are above MAX_JOINT_CELLS and K=11 above MAX_ALIGN_K;
        # either cap refuses the input before a fit starts
        T = (0.5 * np.eye(11) + 0.5 / 11).tolist()
        scen = write(tmp_path, "k11.json", {"K": 11, "T": T})
        t0 = time.perf_counter()
        assert main(["estimate", scen, "--exact", "--restarts", "1"]) == EXIT_CAPABILITY
        assert time.perf_counter() - t0 < 1.0

    def test_K11_features_exit_3_before_the_fit(self, tmp_path, capsys):
        # the alignment cap (K <= 10) is checked before any restart runs
        rng = np.random.default_rng(0)
        rows = rng.integers(1, 12, size=(200, 4))
        rows[:, :2] = rng.integers(1, 4, size=(200, 2))
        rows[:11, 2:] = np.arange(1, 12)[:, None]
        data = tmp_path / "k11.csv"
        data.write_text(
            "r_1,r_2,y,ytilde_1\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
        )
        t0 = time.perf_counter()
        assert main(["estimate", str(data), "--from-features"]) == EXIT_CAPABILITY
        assert time.perf_counter() - t0 < 1.0
        assert "MAX_ALIGN_K" in capsys.readouterr().err

    def test_sampled_estimate_with_truth(self, tmp_path, capsys):
        scen = write(
            tmp_path,
            "s.json",
            {"K": 2, "noise_model": {"type": "asymmetric", "eps": 0.2},
             "seed": 0, "n": 60000, "p": 3},
        )
        out = tmp_path / "s.csv"
        main(["generate", scen, "-o", str(out), "--no-timestamp"])
        capsys.readouterr()
        truth = write(tmp_path, "truth.json", [[0.8, 0.2], [0.2, 0.8]])
        assert main(
            ["estimate", str(out), "--truth", truth, "--json", "--no-timestamp"]
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["err"] <= 2.0

    @pytest.mark.parametrize(
        "name, text, argv, message",
        [
            ("p0.csv", "y\n1\n2\n", [], "p=0 noisy labels"),
            ("p1.csv", "y,ytilde_1\n1,1\n2,2\n", [], "p=1 noisy labels"),
            ("p2.csv", "y,ytilde_1,ytilde_2\n1,1,2\n2,2,2\n", [], "p=2 noisy labels"),
            ("p2.json", '{"K": 2, "T": [[0.9, 0.1], [0.3, 0.7]], "p": 2}', ["--exact"],
             "p=2 noisy labels"),
            ("r1.csv", "r_1,y,ytilde_1\n1,1,1\n2,2,2\n", ["--from-features"],
             "feature-path estimation needs two feature columns plus a noisy "
             "label (three observed variables)"),
        ],
        ids=["csv-p0", "csv-p1", "csv-p2", "exact-p2", "one-feature"],
    )
    def test_too_few_observations_exit_3(self, tmp_path, capsys, name, text, argv, message):
        path = tmp_path / name
        path.write_text(text)
        assert main(["estimate", str(path), *argv]) == EXIT_CAPABILITY
        if message.startswith("p="):
            message += (
                " per record; three conditionally independent labels are "
                "required for instance-level recovery"
            )
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_deterministic_report(self, binary_scenario_file, capsys):
        main(["estimate", binary_scenario_file, "--exact", "--no-timestamp"])
        first = capsys.readouterr().out
        main(["estimate", binary_scenario_file, "--exact", "--no-timestamp"])
        assert capsys.readouterr().out == first


class TestWitness:
    def test_reference_witness(self, capsys):
        assert main(
            ["witness", "0.7", "0.2", "0.2", "--json", "--no-timestamp"]
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["statistic_residual"] <= 1e-12
        assert doc["parameter_distance"] >= 0.01

    @pytest.mark.parametrize(
        "params",
        [("0.5", "0.5", "0.5"), ("0", "0.2", "0.3"), ("1", "0", "0"), ("0.5", "0", "0")],
        ids=["uninformative", "gamma-0", "clean-corner", "clean-labels"],
    )
    def test_no_witness_exit_4(self, params, capsys):
        assert main(["witness", *params]) == EXIT_SEARCH
        assert capsys.readouterr().err.startswith("error: ")

    def test_deterministic(self, capsys):
        main(["witness", "0.7", "0.2", "0.2", "--no-timestamp"])
        first = capsys.readouterr().out
        main(["witness", "0.7", "0.2", "0.2", "--no-timestamp"])
        assert capsys.readouterr().out == first

    @given(st.lists(st.floats(-0.1, 1.1), min_size=3, max_size=3))
    @example([0.0, 0.0, -5.96e-08])
    @settings(max_examples=200, deadline=None)
    def test_any_input_exits_with_a_contract_code(self, params):
        # a negative number in exponent form is a number, not an option, so
        # argparse never exits here
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["witness", *map(repr, params)])
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_SEARCH)
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("value", ["-5.96e-08", "-1e-3", "-.5"])
    def test_negative_exponent_form_is_out_of_range(self, value, capsys):
        assert main(["witness", "0", "0", value]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: e_minus must lie in [0, 1]\n"


VALID_PARAMS = {
    "lambda": [1.0, 2.0, 3.0],
    "N": 8,
    "epsilon_close": 0.0,
    "label_probs": [[1, 0], [0, 1], [0.5, 0.5]],
    "T": [[0.8, 0.2], [0.3, 0.7]],
}


@st.composite
def mutated_params(draw):
    """A valid simulate-2nn parameter file with one to three faults: a field
    dropped, a field or one entry of a list field replaced (by a string,
    null, a list, a float including nan, or an int in [-3, 50], so N stays
    small), or an unknown field added."""
    doc = json.loads(json.dumps(VALID_PARAMS))
    value = st.one_of(
        st.text(max_size=3),
        st.none(),
        st.lists(st.integers(-3, 50), max_size=3),
        st.floats(-3, 50),
        st.just(float("nan")),
        st.integers(-3, 50),
    )
    for _ in range(draw(st.integers(1, 3))):
        # an entry fault most often, since many of those keep the file valid
        fault = draw(st.sampled_from(["drop", "replace", "entry", "entry", "entry", "unknown"]))
        if fault == "unknown":
            doc["extra"] = draw(value)
        elif not doc:
            break
        elif fault == "drop":
            del doc[draw(st.sampled_from(sorted(doc)))]
        else:
            owner, key = doc, draw(st.sampled_from(sorted(doc)))
            if fault == "entry":
                # an entry of lambda, or a cell of label_probs or T
                while isinstance(owner[key], list) and owner[key]:
                    owner, key = owner[key], draw(st.integers(0, len(owner[key]) - 1))
            owner[key] = draw(value)
    return doc


class TestSimulate2nn:
    def params(self, tmp_path, N):
        return write(
            tmp_path,
            "params.json",
            {
                "lambda": [1.0, 2.0, 3.0],
                "N": N,
                "epsilon_close": 0.0,
                "label_probs": [[1, 0], [0, 1], [1, 0], [0, 1], [1, 0]],
                "T": [[0.8, 0.2], [0.3, 0.7]],
            },
        )

    def test_above_threshold(self, tmp_path, capsys):
        path = self.params(tmp_path, 500)
        assert main(
            ["simulate-2nn", path, "--trials", "20", "--json", "--no-timestamp"]
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["clears_threshold"] is True
        assert doc["all_satisfied_fraction"] >= 0.99

    def test_below_threshold_flagged(self, tmp_path, capsys):
        path = self.params(tmp_path, 3)
        with pytest.warns(UserWarning, match="no triplets formed"):
            assert main(
                ["simulate-2nn", path, "--trials", "5", "--json", "--no-timestamp"]
            ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["clears_threshold"] is False

    def test_missing_field_exit_2(self, tmp_path):
        path = write(tmp_path, "bad.json", {"lambda": [1.0]})
        assert main(["simulate-2nn", path]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "field, value, message",
        [("N", 10.7, "'N': must be an integer, got 10.7"),
         ("N", 2, "'N': must be >= 3, got 2"),
         ("lambda", "abc", "'lambda'"),
         ("extra", 1, "unknown fields ['extra']"),
         ("label_probs", [[float("nan"), 1], [0, 1]], "label_probs rows must be distributions"),
         ("lambda", [1.0, float("nan")], "lambda must be"),
         ("epsilon_close", float("nan"), "epsilon_close must be >= 0")],
        ids=["N-float", "N-small", "lambda-word", "unknown-field", "label-probs-nan",
             "lambda-nan", "epsilon-nan"],
    )
    def test_strict_parameter_file(self, tmp_path, capsys, field, value, message):
        doc = dict(VALID_PARAMS, **{field: value})
        assert main(["simulate-2nn", write(tmp_path, "p.json", doc)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @given(mutated_params())
    @example(dict(VALID_PARAMS, **{"lambda": "abc"}))
    @settings(max_examples=80, deadline=None)
    def test_any_parameter_file_exits_with_a_contract_code(self, doc):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "no triplets formed")
            path = Path(tmp) / "p.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["simulate-2nn", str(path), "--trials", "2"])
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_CAPABILITY, EXIT_SEARCH)
        assert "Traceback" not in err.getvalue()


class TestBound:
    def test_midpoint(self, tmp_path, capsys):
        t1 = write(tmp_path, "t1.json", [[1, 0], [0, 1]])
        t2 = write(tmp_path, "t2.json", [[0, 1], [1, 0]])
        ts = write(tmp_path, "ts.json", [[0.5, 0.5], [0.5, 0.5]])
        assert main(["bound", t1, t2, ts, "--json", "--no-timestamp"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["lhs"] == pytest.approx(2.0)
        assert doc["rhs"] == pytest.approx(2**0.5)
        assert doc["holds"] is True

    def test_missing_file_exit_2(self, tmp_path):
        t1 = write(tmp_path, "t1.json", [[1, 0], [0, 1]])
        assert main(["bound", t1, t1, str(tmp_path / "nope.json")]) == EXIT_VALIDATION


class TestNonFiniteMatrices:
    """A matrix file with a nan or an infinite entry (1e400 in JSON) exits 2."""

    @pytest.fixture(params=["NaN", "1e400"], ids=["nan", "inf"])
    def bad_matrix(self, request, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(f"[[{request.param}, 0.5], [0.5, 0.5]]")
        return str(path)

    def test_estimate_truth(self, binary_scenario_file, bad_matrix, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert main(["generate", binary_scenario_file, "-o", str(data)]) == EXIT_OK
        for source in ([str(data)], [binary_scenario_file, "--exact"]):
            argv = ["estimate", *source, "--truth", bad_matrix, "--restarts", "1"]
            assert main(argv) == EXIT_VALIDATION
            assert "non-finite entries" in capsys.readouterr().err

    def test_bound(self, bad_matrix, tmp_path, capsys):
        good = write(tmp_path, "good.json", [[1, 0], [0, 1]])
        for argv in ([bad_matrix, good, good], [good, good, bad_matrix]):
            assert main(["bound", *argv, "--json"]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.out == "" and "non-finite entries" in captured.err


class TestMalformedInput:
    """Malformed files exit 2 with a message naming the file, not a traceback."""

    @pytest.mark.parametrize(
        "name, text, argv, located",
        [
            ("no_eps.json",
             '{"K": 2, "noise_model": {"type": "asymmetric"}, "n": 10}',
             ["generate", "{path}", "-o", "{out}"], "noise_model.eps"),
            ("k_word.json",
             '{"K": "three", "T": [[0.9, 0.1], [0.2, 0.8]], "n": 10}',
             ["generate", "{path}", "-o", "{out}"], "'K'"),
            ("cell.csv",
             "y,ytilde_1,ytilde_2,ytilde_3\n1,1,2,1\n2,x,2,2\n",
             ["estimate", "{path}"], ":3: column 'ytilde_1'"),
            ("big.csv",
             "y,ytilde_1,ytilde_2,ytilde_3\n1,1,2,1\n2,99999999999999999999,2,2\n",
             ["estimate", "{path}"], ":3: column 'ytilde_1'"),
            ("header.csv",
             "y,ytilde_1,ytilde_2,ytilde_3\n",
             ["estimate", "{path}"], "no records"),
            ("utf8.csv",
             "y,ytilde_1,ytilde_2,ytilde_3\n1,1,2,1\n2,\udcff,2,2\n",
             ["estimate", "{path}"], ":3: text that is not UTF-8"),
            ("inst_p.json",
             '{"K": 3, "noise_model": {"type": "instance", "eps": 0.2}, "n": 10, "p": 3}',
             ["generate", "{path}", "-o", "{out}"], "'p'"),
            ("matrix.json",
             '[["a", 0.5], [0.5, 0.5]]',
             ["bound", "{path}", "{path}", "{path}"], "matrix.json"),
            ("seed_word.json",
             '{"K": 2, "T": [[0.9, 0.1], [0.2, 0.8]], "n": 10, "seed": "x"}',
             ["generate", "{path}", "-o", "{out}"], "'seed'"),
            ("seed_neg.json",
             '{"K": 2, "T": [[0.9, 0.1], [0.2, 0.8]], "n": 10, "seed": -1}',
             ["generate", "{path}", "-o", "{out}"], "'seed'"),
            ("seed_float.json",
             '{"K": 2, "T": [[0.9, 0.1], [0.2, 0.8]], "n": 10, "seed": 1.5}',
             ["generate", "{path}", "-o", "{out}"], "'seed'"),
            ("inst_n.json",
             '{"K": 3, "noise_model": {"type": "instance", "eps": 0.2}, "n": -3}',
             ["generate", "{path}", "-o", "{out}"], "'n': must be >= 0"),
            ("inst_S.json",
             '{"K": 3, "noise_model": {"type": "instance", "eps": 0.2, "S": -2}, "n": 10}',
             ["generate", "{path}", "-o", "{out}"], "'noise_model.S': must be >= 0"),
            ("type_list.json",
             '{"K": 2, "noise_model": {"type": []}, "n": 10}',
             ["generate", "{path}", "-o", "{out}"], "noise_model.type"),
            ("k_float.json",
             '{"K": 2.7, "T": [[0.9, 0.1], [0.3, 0.7]], "n": 10.9, "p": 3.5}',
             ["generate", "{path}", "-o", "{out}"], "'K': must be an integer, got 2.7"),
            ("n_float.json",
             '{"K": 2, "T": [[0.9, 0.1], [0.3, 0.7]], "n": 10.9}',
             ["generate", "{path}", "-o", "{out}"], "'n': must be an integer, got 10.9"),
            ("p_float.json",
             '{"K": 2, "T": [[0.9, 0.1], [0.3, 0.7]], "n": 10, "p": 3.5}',
             ["generate", "{path}", "-o", "{out}"], "'p': must be an integer, got 3.5"),
            ("k_bool.json",
             '{"K": true, "T": [[0.9, 0.1], [0.3, 0.7]], "n": 10}',
             ["generate", "{path}", "-o", "{out}"], "'K': must be an integer, got True"),
            ("d_star.json",
             '{"K": 3, "features": {"d_star": -2, "cardinalities": 2}}',
             ["check", "{path}", "--mode", "generic"], "'features.d_star': must be >= 0"),
            ("count.json",
             '{"K": 3, "features": {"d_star": 2}, "groups": {"count": 1.9}}',
             ["check", "{path}", "--mode", "unknown-groups"], "'groups.count': must be an"),
            ("min_kr.json",
             '{"K": 2, "T": [[0.9, 0.1], [0.3, 0.7]], "features": {"d_star": 2, "min_kruskal": -1}}',
             ["check", "{path}", "--mode", "group"], "'features.min_kruskal': must be >= 1"),
            ("cards_generic.json",
             '{"K": 3, "features": {"d_star": 5, "cardinalities": [2, 2]}}',
             ["check", "{path}", "--mode", "generic"], "'features.cardinalities'"),
            ("cards_group.json",
             '{"K": 2, "T": [[0.9, 0.1], [0.3, 0.7]], "features": {"d_star": 5, "cardinalities": [2, 2]}}',
             ["check", "{path}", "--mode", "group"], "'features.cardinalities'"),
            ("cards_one.json",
             '{"K": 3, "features": {"d_star": 2, "cardinalities": [2, 1]}}',
             ["check", "{path}", "--mode", "generic"], "'features.cardinalities': must be >= 2"),
        ],
        ids=["missing-eps", "K-not-integer", "csv-cell", "csv-int64-overflow",
             "csv-header-only", "csv-not-utf8", "instance-p", "matrix-cell",
             "seed-word", "seed-negative", "seed-float", "instance-n-negative",
             "instance-S-negative", "noise-model-type-list", "K-n-p-float",
             "n-float", "p-float", "K-bool", "d-star-negative", "group-count-float",
             "min-kruskal-negative", "cardinalities-count-generic",
             "cardinalities-count-group", "cardinality-below-2"],
    )
    def test_exits_2_naming_the_file(self, tmp_path, name, text, argv, located):
        path = tmp_path / name
        # a lone surrogate in text stands for a byte that is not UTF-8
        path.write_bytes(text.encode(errors="surrogateescape"))
        argv = [a.format(path=path, out=tmp_path / "out.csv") for a in argv]
        self.assert_exits_2(argv, path, located)

    @pytest.mark.parametrize(
        "text, located",
        [("{bad", ":1: invalid JSON"), ("[1]", "JSON object"), ('{"K": "x"}', "'K'")],
        ids=["invalid-json", "not-an-object", "K-not-integer"],
    )
    def test_bad_sidecar_exits_2(self, tmp_path, text, located):
        data = tmp_path / "d.csv"
        data.write_text("y,ytilde_1,ytilde_2,ytilde_3\n1,1,2,1\n2,1,2,2\n")
        sidecar = tmp_path / "d.csv.provenance.json"
        sidecar.write_text(text)
        self.assert_exits_2(["estimate", str(data)], sidecar, located)

    @staticmethod
    def assert_exits_2(argv, path, located):
        env = dict(os.environ, PYTHONPATH=str(Path(noise_id.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "noise_id.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == EXIT_VALIDATION
        assert str(path) in proc.stderr
        assert located in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        path = write(tmp_path, "s.json", {"K": 2, "T": [[0.9, 0.1], [0.3, 0.7]]})
        env = dict(os.environ, PYTHONPATH=str(Path(noise_id.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "noise_id.cli", "check", path, "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == EXIT_INTERNAL
        assert err == ""

    def test_list_seed_still_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "s.json",
                     {"K": 2, "T": [[0.9, 0.1], [0.2, 0.8]], "n": 10, "seed": [1, 2]})
        argv = ["generate", path, "-o", str(tmp_path / "o.csv"), "--json", "--no-timestamp"]
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == [1, 2]

    @pytest.mark.parametrize(
        "argv",
        [["generate", "s.json", "-o", "o.csv"],
         ["estimate", "s.json", "--exact"],
         ["check", "s.json", "--mode", "group"],
         ["simulate-2nn", "p.json"]],
        ids=["generate", "estimate", "check", "simulate-2nn"],
    )
    def test_negative_seed_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main([*argv, "--seed", "-1"])
        assert e.value.code == EXIT_VALIDATION
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["witness", "0.7", "0.2", "0.2"], ["bound", "a.json", "b.json", "c.json"]],
        ids=["witness", "bound"],
    )
    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--strict"]])
    def test_commands_that_draw_nothing_take_no_seed(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as e:
            main([*argv, *flag])
        assert e.value.code == EXIT_VALIDATION
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_integer_cast(self):
        cast = _int_at_least(1)
        assert [cast(v) for v in ("7", 7, 7.0)] == [7, 7, 7]
        for bad in (True, 2.5, "2.5", 0):
            with pytest.raises((ValueError, argparse.ArgumentTypeError)):
                cast(bad)

    def test_one_cardinality_stands_for_every_feature(self, tmp_path):
        doc = {"K": 3, "features": {"d_star": 3, "cardinalities": 4}}
        assert load_scenario(write(tmp_path, "s.json", doc)).cardinalities == (4, 4, 4)
        doc["features"] = {"d_star": 2}
        assert load_scenario(write(tmp_path, "s.json", doc)).cardinalities == (2, 2)

    @pytest.mark.parametrize(
        "argv",
        [["estimate", "s.json", "--exact", "--restarts", "0"],
         ["simulate-2nn", "p.json", "--trials", "0"]],
        ids=["restarts", "trials"],
    )
    def test_counts_below_one_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == EXIT_VALIDATION
        assert "must be >= 1" in capsys.readouterr().err


VALID_SCENARIOS = [
    {"K": 2, "prior": [0.6, 0.4], "T": [[0.9, 0.1], [0.3, 0.7]],
     "noise_model": {"type": "explicit"}, "seed": 1, "n": 20, "p": 3,
     "features": {"d_star": 2, "cardinalities": 3, "min_kruskal": 2},
     "groups": {"count": 1}},
    {"K": 3, "prior": [0.2, 0.3, 0.5], "noise_model": {"type": "instance", "eps": 0.2, "S": 4},
     "seed": 2, "n": 20,
     "features": {"d_star": 3, "cardinalities": [2, 3, 2]}, "groups": {"count": 2}},
]


def _numeric_list(v):
    return isinstance(v, list) and len(v) > 0 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    )


def _break_row(draw, row):
    """row with one fault: an entry more or less, a negative entry, or an
    entry moved so that the row no longer sums to 1. The last two break a
    row whatever K is, so they come back flagged."""
    row = list(row)
    i = draw(st.integers(0, len(row) - 1))
    fault = draw(st.sampled_from(["longer", "shorter", "negative", "sum"]))
    if fault == "longer":
        row.insert(i, draw(st.floats(0, 1)))
    elif fault == "shorter":
        del row[i]
    elif fault == "negative":
        row[i] = draw(st.floats(-1, -1e-3))
    else:
        row[i] += draw(st.sampled_from([-1, 1])) * draw(st.floats(1e-3, 0.5))
    return row, fault in ("negative", "sum")


@st.composite
def mutated_scenario(draw):
    """A valid scenario with one to three faults, and whether it still holds
    a row broken whatever K is. Each fault drops a field (top-level or in a
    section), replaces it by a string, null, a list, a float or an int in
    [-3, 50], or breaks the prior or one row of T that no fault has touched
    yet (see `_break_row`)."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_SCENARIOS))))
    value = st.one_of(
        st.text(max_size=3),
        st.none(),
        st.lists(st.integers(-3, 50), max_size=3),
        st.floats(-3, 50),
        st.integers(-3, 50),
    )
    touched, broken = [], []
    for _ in range(draw(st.integers(1, 3))):
        T = doc["T"] if isinstance(doc.get("T"), list) else []
        rows = [(T, i) for i in range(len(T))] + [(doc, "prior")] * ("prior" in doc)
        rows = [(owner, key) for owner, key in rows if _numeric_list(owner[key])
                and all(owner[key] is not r for r in touched)]
        paths = [(doc, k) for k in doc] + [
            (doc[k], j) for k in doc if isinstance(doc[k], dict) for j in doc[k]
        ]
        if rows and draw(st.booleans()):
            owner, key = draw(st.sampled_from(rows))
            owner[key], breaks = _break_row(draw, owner[key])
            touched.append(owner[key])
            if breaks:
                broken.append(owner[key])
        elif paths:
            owner, key = draw(st.sampled_from(paths))
            if draw(st.booleans()):
                del owner[key]
            else:
                owner[key] = draw(value)
    T = doc.get("T")
    held = [doc.get("prior"), *(T if isinstance(T, list) else [])]
    return doc, any(row is b for row in held for b in broken)


def _instance(**fields):
    doc = json.loads(json.dumps(VALID_SCENARIOS[1]))
    for key, value in fields.items():
        (doc["noise_model"] if key == "S" else doc)[key] = value
    return doc, False


class TestScenarioProperty:
    @given(mutated_scenario())
    @example(_instance(seed="x"))
    @example(_instance(seed=1.5))
    @example(_instance(n=-3))
    @example(_instance(S=-2))
    @settings(max_examples=40, deadline=None)
    def test_every_command_exits_with_a_contract_code(self, case):
        # every command reads the whole scenario, so a broken row is refused
        # whatever the command
        doc, broken = case
        runs = [["check", "{path}", "--mode", mode]
                for mode in ("instance3", "kruskal", "group", "unknown-groups", "generic")]
        runs += [["generate", "{path}", "-o", "{out}"],
                 ["estimate", "{path}", "--exact", "--restarts", "1"]]
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            # a fit that stops short, or lands where uniqueness fails, says
            # so by a warning; neither is an exit-code fault
            warnings.simplefilter("ignore", ConvergenceWarning)
            warnings.filterwarnings("ignore", "recovered parameters violate")
            path = Path(tmp) / "s.json"
            path.write_text(json.dumps(doc))
            for argv in runs:
                argv = [a.format(path=path, out=Path(tmp) / "o.csv") for a in argv]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_CAPABILITY, EXIT_SEARCH), argv
                assert code == EXIT_VALIDATION or not broken, argv
