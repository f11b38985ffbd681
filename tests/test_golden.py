"""Golden outputs: the bytes `generate` writes for one small scenario of each
noise model, and the values `estimate` reports for one exact and one sampled
three-label input. Each was recorded from the code at the time; a change that
moves one says which and why."""

import hashlib
import json

import numpy as np
import pytest

from noise_id.cli import EXIT_OK, main

T3 = [[0.7, 0.2, 0.1], [0.15, 0.75, 0.1], [0.1, 0.25, 0.65]]

SCENARIOS = {
    "explicit": {"K": 3, "prior": [0.2, 0.3, 0.5], "T": T3, "seed": 1, "n": 300, "p": 3},
    "asymmetric": {
        "K": 2, "noise_model": {"type": "asymmetric", "eps": 0.2}, "seed": 2, "n": 300, "p": 4,
    },
    "instance": {
        "K": 3, "noise_model": {"type": "instance", "eps": 0.3, "S": 4}, "seed": 3, "n": 100,
    },
    "part_dependent": {
        "K": 2,
        "noise_model": {
            "type": "part_dependent",
            "weights": [0.25, 0.75],
            "parts": [[[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4], [0.1, 0.9]]],
        },
        "seed": 4, "n": 300, "p": 3,
    },
    "features": {
        "K": 3, "T": T3, "seed": 5, "n": 300, "p": 1,
        "features": {"d_star": 2, "cardinalities": 3, "min_kruskal": 2},
    },
}

# SHA-256 of each scenario's CSV followed by its provenance sidecar
GENERATE_SHA256 = {
    "explicit": "2157fa8826e2780ca7f9cf60757ec97a099cba964d286475fb29b3e6ea5b35a2",
    "asymmetric": "b5ef44c52d05585712d041f62c3051929391d198bec08cab1f6730bfeea53c08",
    "instance": "042f3d84396be6a586e402a9c2e97c767400222136faec38bdebe5475de65768",
    "part_dependent": "e84c762678ad4ce9b02fa579fbc382db0bac4dadb8b7cf25181a46eaff898547",
    "features": "1d17f5f3fffcc684ba49d8042c2c5c4dc435a8b82ad39ae6ea3b05eae3022415",
}

# estimate --json --no-timestamp on the exact tensor of the "explicit"
# scenario and on a 3000-record CSV of it
ESTIMATE = {
    "exact": {
        "T": [
            [0.6999999999999998, 0.20000000000000004, 0.10000000000000002],
            [0.15, 0.75, 0.09999999999999996],
            [0.1, 0.25000000000000006, 0.6499999999999999],
        ],
        "alignment_permutation": [0, 1, 2],
        "converged": True,
        "err": 4.009138700035287e-15,
        "prior": [0.2, 0.29999999999999993, 0.5000000000000001],
        "residual": 6.585098055769091e-17,
        "restarts_used": 1,
    },
    "sampled": {
        "T": [
            [0.6793827274026303, 0.20823667917704972, 0.11238059342032018],
            [0.1528854799694752, 0.749533842564708, 0.09758067746581665],
            [0.09942843547756709, 0.24533593547559965, 0.6552356290468333],
        ],
        "alignment_permutation": [0, 1, 2],
        "converged": True,
        "prior": [0.2088151969018578, 0.2931307532885469, 0.4980540498095954],
        "residual": 0.0003397219545615592,
        "restarts_used": 1,
    },
}


def run(capsys, *argv):
    assert main([*map(str, argv), "--json", "--no-timestamp"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def scenario_file(tmp_path, name, **changes):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**SCENARIOS[name], **changes}))
    return path


def generate(tmp_path, capsys, name, **changes):
    out = tmp_path / f"{name}.csv"
    run(capsys, "generate", scenario_file(tmp_path, name, **changes), "-o", out)
    return out


@pytest.mark.parametrize("name", SCENARIOS)
def test_generate_bytes(tmp_path, capsys, name):
    out = generate(tmp_path, capsys, name)
    h = hashlib.sha256(out.read_bytes())
    h.update(out.with_suffix(".csv.provenance.json").read_bytes())
    assert h.hexdigest() == GENERATE_SHA256[name]


def check_report(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key in ("prior", "T", "residual", "err"):
            np.testing.assert_allclose(got[key], value, rtol=0, atol=1e-12, err_msg=key)
        else:
            assert got[key] == value, key


def test_exact_estimate(tmp_path, capsys):
    got = run(capsys, "estimate", scenario_file(tmp_path, "explicit"), "--exact")
    check_report(got, ESTIMATE["exact"])


def test_sampled_estimate(tmp_path, capsys):
    out = generate(tmp_path, capsys, "explicit", n=3000)
    got = run(capsys, "estimate", out, "--seed", 0)
    check_report(got, ESTIMATE["sampled"])
