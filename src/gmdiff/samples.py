"""Sample batches with provenance metadata and CSV serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .errors import EmptyBatch, NonFiniteParameter

CSV_BLOCK_CELLS = 4096  # cells of samples.csv written or read at a time


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """n points in R^d plus the seed / solver / grid that produced them.

    ``meta`` always records n, and seed, solver, grid, T and delta where its
    producer (a sampler, a CSV's sidecar) gave them. Every point is finite.
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
        arrays always serialize to identical bytes. Blocks of CSV_BLOCK_CELLS
        cells keep the memory beyond the points constant.
        """
        path = Path(path)
        d = self.dim
        step = max(1, CSV_BLOCK_CELLS // d)
        with path.open("w") as f:
            f.write(",".join(f"x{j}" for j in range(d)) + "\n")
            for start in range(0, self.n, step):
                # one map over a block's cells; zipping d references to the same
                # iterator groups them into rows without a Python loop per row
                cells = map(repr, self.points[start:start + step].ravel().tolist())
                f.write("\n".join(map(",".join, zip(*[cells] * d))) + "\n")
        from .fileio import save_json  # not at the top: fileio imports this module
        save_json(self.meta, path.with_suffix(".meta.json"), sort_keys=True)

    @classmethod
    def from_csv(cls, path: str | Path) -> "SampleBatch":
        """Read a CSV written by to_csv, CSV_BLOCK_CELLS cells at a time: one row per
        LF, CR or CRLF line after the header, the first non-blank line, whose field
        count is d. Blank lines around the rows are ignored. Raises EmptyBatch on no
        rows, ValueError on another line separator in the header, a blank line between
        rows, a row not of d fields or a non-float cell; NonFiniteParameter on NaN or inf."""
        path = Path(path)
        blocks, blank_tail = [], False
        with path.open() as f:
            header = next((line for line in f if line.strip()), "")
            if len(header.splitlines()) > 1:
                raise ValueError(f"{path}: header holds a line separator other than LF, CR or CRLF")
            d = header.count(",") + 1
            step = max(1, CSV_BLOCK_CELLS // d)
            for rows in iter(lambda: list(islice(f, step)), []):
                if blank_tail and any(map(str.strip, rows)):
                    raise ValueError(f"{path}: blank line between sample rows")
                while rows and not rows[-1].strip():
                    rows.pop()
                    blank_tail = True
                if rows:
                    if set(map(str.count, rows, repeat(","))) != {d - 1}:
                        raise ValueError(f"{path}: a row's field count differs from the header's")
                    cells = ",".join(rows).split(",")
                    blocks.append(np.fromiter(map(float, cells), float, len(cells)).reshape(-1, d))
        if not blocks:
            raise EmptyBatch(f"{path} holds no sample rows")
        meta_path = path.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        return cls(points=np.concatenate(blocks), meta=meta)
