"""Sample batches with provenance metadata and CSV serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import EmptyBatch, NonFiniteParameter


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """n points in R^d plus the seed / solver / grid that produced them.

    ``meta`` always records at least: seed, solver, grid, T, delta, n.
    Every point is finite; this is checked at construction.
    """

    points: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise EmptyBatch("sample batch contains no points")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteParameter("sample batch contains non-finite points")
        object.__setattr__(self, "points", pts)
        meta = dict(self.meta)
        meta.setdefault("n", pts.shape[0])
        object.__setattr__(self, "meta", meta)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path: str | Path) -> None:
        """Write points as CSV (header x0..x{d-1}) plus a JSON metadata sidecar.

        Floats are written with repr (shortest round-trip), so identical
        arrays always serialize to identical bytes.
        """
        path = Path(path)
        d = self.dim
        header = ",".join(f"x{j}" for j in range(d))
        # one map over all cells; zipping d references to the same iterator
        # groups them into rows without a Python loop per row
        cells = map(repr, self.points.ravel().tolist())
        rows = map(",".join, zip(*[cells] * d))
        path.write_text("\n".join([header, *rows]) + "\n")
        from .fileio import save_json  # not at the top: fileio imports this module
        save_json(self.meta, path.with_suffix(".meta.json"), sort_keys=True)

    @classmethod
    def from_csv(cls, path: str | Path) -> "SampleBatch":
        """Read a CSV written by to_csv. Raises EmptyBatch when it holds no
        rows, ValueError when its rows differ in length and
        NonFiniteParameter when a cell is NaN or infinite."""
        path = Path(path)
        rows = path.read_text().strip().splitlines()[1:]
        if not rows:
            raise EmptyBatch(f"{path} holds no sample rows")
        if len(set(map(str.count, rows, repeat(",")))) != 1:
            raise ValueError(f"{path}: rows differ in their number of fields")
        cells = ",".join(rows).split(",")
        pts = np.fromiter(map(float, cells), float, len(cells)).reshape(len(rows), -1)
        meta_path = path.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        return cls(points=pts, meta=meta)
