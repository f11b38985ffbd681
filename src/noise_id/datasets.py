"""Dataset container and CSV serialization.

Labels are stored 1-based (classes 1..K) both in memory and on disk. The CSV
layout is: continuous feature columns ``x_1..x_S``, categorical feature
columns ``r_1..r_d``, clean label ``y``, then noisy labels
``ytilde_1..ytilde_p``. Provenance (generating model, seed, parameters) goes
to a JSON sidecar next to the CSV.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError


@dataclass
class NoisyDataset:
    y: np.ndarray
    noisy: np.ndarray
    K: int
    provenance: dict
    x: np.ndarray | None = None
    r: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.int64)
        self.noisy = np.asarray(self.noisy, dtype=np.int64)
        if self.noisy.ndim == 1:
            self.noisy = self.noisy[:, None]
        n = self.y.shape[0]
        if self.noisy.shape[0] != n:
            raise ValidationError("y and noisy must have matching lengths")
        for name, arr in (("y", self.y), ("noisy", self.noisy)):
            if arr.size and (arr.min() < 1 or arr.max() > self.K):
                raise ValidationError(f"{name} labels must lie in 1..{self.K}")
        if self.x is not None:
            self.x = np.asarray(self.x, dtype=np.float64)
            if self.x.ndim == 1:
                self.x = self.x[:, None]
            if self.x.shape[0] != n:
                raise ValidationError("x rows must match the record count")
        if self.r is not None:
            self.r = np.asarray(self.r, dtype=np.int64)
            if self.r.ndim == 1:
                self.r = self.r[:, None]
            if self.r.shape[0] != n:
                raise ValidationError("r rows must match the record count")
        if not isinstance(self.provenance, dict) or not self.provenance:
            raise ValidationError("provenance is required")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.noisy.shape[1]

    def to_csv(self, path) -> None:
        path = Path(path)
        header = []
        cols = []
        if self.x is not None:
            header += [f"x_{i+1}" for i in range(self.x.shape[1])]
            cols += [[repr(v) for v in col] for col in self.x.T.tolist()]
        if self.r is not None:
            header += [f"r_{i+1}" for i in range(self.r.shape[1])]
        header.append("y")
        header += [f"ytilde_{i+1}" for i in range(self.p)]
        for block in (self.r, self.y[:, None], self.noisy):
            if block is not None:
                cols += [_int_text(col) for col in block.T]
        lines = [",".join(header), *map(",".join, zip(*cols)), ""]
        path.write_bytes("\r\n".join(lines).encode())
        sidecar = path.with_suffix(path.suffix + ".provenance.json")
        sidecar.write_text(json.dumps(self.provenance, indent=2, sort_keys=True))

    @classmethod
    def from_csv(cls, path) -> "NoisyDataset":
        """The dataset at path, with K the larger of the provenance sidecar's
        K and the largest label."""
        path = Path(path)
        try:
            with path.open(newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, [])
                skip = reader.line_num
                has_records = any(line.strip("\r\n") for line in fh)
        except FileNotFoundError:
            raise ValidationError(f"{path}: no such file") from None
        except UnicodeDecodeError:
            raise ValidationError(_bad_cell(path)) from None
        if "y" not in header:
            raise ValidationError(f"{path}: CSV is missing the clean-label column 'y'")
        if not has_records:
            raise ValidationError(f"{path}: no records")
        x_cols = [i for i, h in enumerate(header) if h.startswith("x_")]
        r_cols = [i for i, h in enumerate(header) if h.startswith("r_")]
        yt_cols = [i for i, h in enumerate(header) if h.startswith("ytilde_")]
        # quoted cells are accepted, '#' starts no comment, blank lines are skipped
        load = dict(delimiter=",", skiprows=skip, ndmin=2, quotechar='"', comments=None)
        try:
            labels = np.loadtxt(
                path, usecols=[header.index("y"), *yt_cols, *r_cols], dtype=np.int64, **load
            )
            x = np.loadtxt(path, usecols=x_cols, dtype=np.float64, **load) if x_cols else None
        except ValueError:
            raise ValidationError(_bad_cell(path)) from None
        y, noisy = labels[:, 0], labels[:, 1 : 1 + len(yt_cols)]
        r = labels[:, 1 + len(yt_cols) :] if r_cols else None
        sidecar = path.with_suffix(path.suffix + ".provenance.json")
        if sidecar.exists():
            provenance = _read_json(sidecar)
            if not isinstance(provenance, dict) or not provenance:
                raise ValidationError(
                    f"{sidecar}: provenance must be a nonempty JSON object"
                )
            if type(provenance.get("K", 0)) is not int:
                raise ValidationError(f"{sidecar}: field 'K' must be an integer")
        else:
            provenance = {"model": "unknown", "source": str(path)}
        hi = int(max(y.max(initial=1), noisy.max(initial=1)))
        K = max(provenance.get("K", hi), hi)
        return cls(y=y, noisy=noisy, K=K, provenance=provenance, x=x, r=r)


def _read_json(path):
    """The parsed JSON document at path; a missing file or invalid JSON
    raises ValidationError naming the file (and the line)."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValidationError(f"{path}: no such file") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}:{e.lineno}: invalid JSON: {e.msg}") from None


def _int_text(col) -> list:
    """The decimal text of each integer in col, made once per distinct value."""
    values, index = np.unique(col, return_inverse=True)
    return np.array([str(v) for v in values.tolist()], dtype=object)[index].tolist()


def _bad_cell(path) -> str:
    """Where the first text that from_csv cannot read is: the file, the CSV
    line and the column. Bytes that are not UTF-8 are decoded to surrogates
    here, so that they are found and named instead of raising."""
    cols = None
    with path.open(newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        for row in filter(None, reader):  # blank lines are skipped
            line = reader.line_num
            try:
                "".join(row).encode()
            except UnicodeEncodeError:
                return f"{path}:{line}: text that is not UTF-8"
            if cols is None:  # the header
                cols = [
                    (i, name, float if name.startswith("x_") else int)
                    for i, name in enumerate(row)
                    if name == "y" or name.startswith(("x_", "r_", "ytilde_"))
                ]
                continue
            for i, name, cast in cols:
                if i >= len(row):
                    return f"{path}:{line}: no cell for column '{name}'"
                try:
                    _parse(row[i], cast)
                except ValueError:
                    return f"{path}:{line}: column '{name}': cannot parse {row[i]!r}"
    return f"{path}: cannot parse the CSV"


def _parse(cell, cast):
    """Raise ValueError where from_csv cannot read cell: where cast does, and
    for a non-ASCII character, a digit separator '_' or an integer outside
    int64."""
    v = cast(cell)
    if not cell.isascii() or "_" in cell or (cast is int and not -(2**63) <= v < 2**63):
        raise ValueError(cell)
