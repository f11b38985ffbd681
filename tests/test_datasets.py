import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noise_id.datasets import ROW_BLOCK, NoisyDataset
from noise_id.errors import ValidationError
from noise_id.matrices import Prior
from noise_id.noisegen import asymmetric_T, sample_iid_noisy

from .oracles import rowwise_from_csv, rowwise_to_csv


def make_ds(n=20, seed=0):
    return sample_iid_noisy(Prior([0.4, 0.6]), asymmetric_T(2, 0.2), 3, n, seed)


class TestValidation:
    def test_label_range(self):
        with pytest.raises(ValidationError):
            NoisyDataset(y=[0], noisy=[[1]], K=2, provenance={"model": "m"})
        with pytest.raises(ValidationError):
            NoisyDataset(y=[1], noisy=[[3]], K=2, provenance={"model": "m"})

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            NoisyDataset(y=[1, 2], noisy=[[1]], K=2, provenance={"model": "m"})

    def test_provenance_required(self):
        with pytest.raises(ValidationError):
            NoisyDataset(y=[1], noisy=[[1]], K=2, provenance={})

    def test_shapes(self):
        ds = make_ds()
        assert ds.n == 20 and ds.p == 3


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = make_ds()
        path = tmp_path / "data.csv"
        ds.to_csv(path)
        assert path.exists()
        assert (tmp_path / "data.csv.provenance.json").exists()
        back = NoisyDataset.from_csv(path)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.noisy, ds.noisy)
        assert back.K == ds.K
        assert back.provenance["model"] == "iid"

    def test_round_trip_with_features(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = NoisyDataset(
            y=[1, 2, 1],
            noisy=[[2], [2], [1]],
            K=2,
            provenance={"model": "manual", "K": 2},
            x=rng.standard_normal((3, 2)),
            r=[[1, 3], [2, 1], [1, 2]],
        )
        path = tmp_path / "feat.csv"
        ds.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x_1,x_2,r_1,r_2,y,ytilde_1"
        back = NoisyDataset.from_csv(path)
        np.testing.assert_array_equal(back.r, ds.r)
        # floats survive the text round trip exactly (repr serialization)
        np.testing.assert_array_equal(back.x, ds.x)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            NoisyDataset.from_csv(path)

    def test_byte_identical_on_same_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        make_ds(seed=3).to_csv(p1)
        make_ds(seed=3).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


def seeded_ds(n, K, p, S=0, d=0, seed=0):
    """n records at K classes with p noisy labels, S float columns (the
    first cells -0.0, 5e-324 and 1e308) and d categorical columns."""
    rng = np.random.default_rng(seed)
    y = rng.integers(1, K + 1, n)
    y[0] = K
    x = None
    if S:
        x = rng.standard_normal((n, S)) * 10.0 ** rng.integers(-300, 300, (n, S))
        x.flat[:3] = [-0.0, 5e-324, 1e308]
    r = rng.integers(1, 5, (n, d)) if d else None
    noisy = rng.integers(1, K + 1, (n, p))
    return NoisyDataset(y=y, noisy=noisy, K=K, provenance={"model": "m", "K": K}, x=x, r=r)


def assert_same(a, b):
    """Equal dtype, shape and bytes (so -0.0 differs from 0.0), or both None."""
    assert (a is None) == (b is None)
    if a is not None:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestCsvOracle:
    """to_csv and from_csv against the row-at-a-time csv-module oracle."""

    @pytest.mark.parametrize(
        "n, K, p, S, d",
        [(40, 2, 3, 3, 2), (60, 12, 5, 0, 0), (30, 3, 1, 2, 0), (1, 2, 1, 3, 2), (1, 12, 5, 0, 1),
         (ROW_BLOCK - 1, 3, 3, 2, 2), (ROW_BLOCK, 3, 3, 2, 2), (ROW_BLOCK + 1, 3, 3, 2, 2),
         (2 * ROW_BLOCK + 1, 12, 2, 1, 1)],
        ids=["x-and-r", "K12-p5", "p1", "n1", "n1-K12",
             "block-minus-1", "block", "block-plus-1", "two-blocks-plus-1"],
    )
    def test_matches_rowwise_oracle(self, tmp_path, n, K, p, S, d):
        ds = seeded_ds(n, K, p, S, d)
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        ds.to_csv(ours)
        rowwise_to_csv(ds, oracle)
        assert ours.read_bytes() == oracle.read_bytes()
        back = NoisyDataset.from_csv(ours)
        for got, want in zip((back.y, back.noisy, back.x, back.r), rowwise_from_csv(oracle)):
            assert_same(got, want)
        assert_same(back.x, ds.x)

    @pytest.mark.parametrize(
        "text, rows",
        [("y,ytilde_1\r\n1,2\r\n\r\n2,1\r\n\r\n", [[1, 2], [2, 1]]),
         ('y,ytilde_1\n"1",2\n2,"1"\n', [[1, 2], [2, 1]])],
        ids=["blank-lines-skipped", "quoted-cells"],
    )
    def test_format(self, tmp_path, text, rows):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        back = NoisyDataset.from_csv(path)
        np.testing.assert_array_equal(np.column_stack([back.y, back.noisy]), rows)

    def test_no_float_columns_add_no_cells(self, tmp_path):
        ds = NoisyDataset(
            y=[1, 2, 1], noisy=[[2], [2], [1]], K=2, provenance={"model": "m"},
            x=np.zeros((3, 0)), r=[[1], [3], [2]],
        )
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        ds.to_csv(ours)
        rowwise_to_csv(ds, oracle)
        assert ours.read_bytes() == oracle.read_bytes()

    def test_hash_line_is_a_bad_cell_not_a_comment(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,ytilde_1\n1,2\n# note\n2,1\n")
        with pytest.raises(ValidationError, match=":3: column 'y'"):
            NoisyDataset.from_csv(path)


def traced_peak_mb(fn, *args):
    """The peak of the memory that tracemalloc traces while fn(*args) runs, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestCsvMemory:
    """to_csv builds the text of one block of ROW_BLOCK records at a time, so
    its peak allocation does not grow with the record count."""

    def test_integer_columns(self, tmp_path):
        n = 200_000
        rng = np.random.default_rng(0)
        ds = NoisyDataset(
            y=rng.integers(1, 3, n), noisy=rng.integers(1, 3, (n, 3)), K=2,
            provenance={"model": "m"},
        )
        assert traced_peak_mb(ds.to_csv, tmp_path / "d.csv") < 4

    def test_float_columns(self, tmp_path):
        n = 20_000
        rng = np.random.default_rng(0)
        ds = NoisyDataset(
            y=rng.integers(1, 4, n), noisy=rng.integers(1, 4, (n, 1)), K=3,
            provenance={"model": "m"}, x=rng.standard_normal((n, 10)),
        )
        assert traced_peak_mb(ds.to_csv, tmp_path / "d.csv") < 4


ALPHABET = '0123456789,"\r\n -+.e#x_'


@st.composite
def mutated_csv(draw):
    """The CSV text of a small valid dataset with at most one mutation: one
    character deleted, duplicated or replaced, one cell quoted, or a row
    with one cell too few or too many inserted."""
    K = draw(st.sampled_from([2, 12]))
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    S, d = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    labels = st.integers(1, K)
    ds = NoisyDataset(
        y=draw(st.lists(labels, min_size=n, max_size=n)),
        noisy=draw(st.lists(st.lists(labels, min_size=p, max_size=p), min_size=n, max_size=n)),
        K=K,
        provenance={"model": "m"},
        x=draw(st.lists(st.lists(st.floats(allow_nan=False), min_size=S, max_size=S),
                        min_size=n, max_size=n)) if S else None,
        r=draw(st.lists(st.lists(st.integers(-3, 30), min_size=d, max_size=d),
                        min_size=n, max_size=n)) if d else None,
    )
    with tempfile.TemporaryDirectory() as tmp:
        ds.to_csv(Path(tmp) / "d.csv")
        text = (Path(tmp) / "d.csv").read_bytes().decode()
    kind = draw(st.sampled_from(["none", "delete", "duplicate", "replace", "quote", "row"]))
    i = draw(st.integers(0, len(text) - 1))
    if kind == "delete":
        text = text[:i] + text[i + 1 :]
    elif kind == "duplicate":
        text = text[: i + 1] + text[i:]
    elif kind == "replace":
        text = text[:i] + draw(st.sampled_from(ALPHABET)) + text[i + 1 :]
    elif kind in ("quote", "row"):
        lines = text.split("\r\n")
        at = draw(st.integers(0, n))
        cells = lines[at].split(",")
        if kind == "quote":
            j = draw(st.integers(0, len(cells) - 1))
            cells[j] = f'"{cells[j]}"'
            lines[at] = ",".join(cells)
        else:
            width = len(cells) + draw(st.sampled_from([-1, 1]))
            lines.insert(max(at, 1), ",".join(["1"] * width))
        text = "\r\n".join(lines)
    return text


def without_blank_lines(text):
    return "".join(line for line in io.StringIO(text, newline="") if line.strip("\r\n"))


class TestCsvProperty:
    @given(mutated_csv())
    @settings(max_examples=300, deadline=None)
    def test_mutated_csv_matches_oracle_or_is_rejected(self, text):
        """from_csv may reject what the oracle reads (a digit separator, a
        non-ASCII digit), but blank lines are the one input it reads where
        the oracle fails: it skips them, so the oracle reads the text
        without them."""
        with tempfile.TemporaryDirectory() as tmp:
            ours, oracle = Path(tmp) / "ours.csv", Path(tmp) / "oracle.csv"
            ours.write_bytes(text.encode())
            oracle.write_bytes(without_blank_lines(text).encode())
            try:
                back = NoisyDataset.from_csv(ours)
            except ValidationError:
                return
            for got, want in zip((back.y, back.noisy, back.x, back.r), rowwise_from_csv(oracle)):
                assert_same(got, want)
