"""One round of each benchmark workload (idbench/workloads.py), played as
the benchmark plays it but untimed: a renamed library function, a missing
output file or a changed CSV layout fails here, not first in a benchmark
run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "idbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_plays_clean(tmp_path, name):
    rr = workloads.Round(0)
    workloads.WORKLOADS[name](tmp_path, 1).round(rr)
    assert rr.attempted > 0
    assert rr.failed == 0
    assert rr.problems == []
