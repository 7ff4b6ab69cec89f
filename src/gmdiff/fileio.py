"""On-disk formats: mixture spec files and every other JSON record, and
sweep CSVs. Floats round-trip exactly through repr."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .metrics import SweepResult
from .mixture import GmmSpec, validate_spec


def load_spec(path: str | Path) -> GmmSpec:
    """Read a mixture spec file: {"dim": d, "components": [{weight, mean, cov}]}."""
    raw = json.loads(Path(path).read_text())
    return validate_spec(raw)


def _strict(value):
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def save_json(payload, path: str | Path, sort_keys: bool = False) -> None:
    """Write payload as strict (RFC 8259) JSON, 2-space indented, with a
    trailing newline; a non-finite float at any depth is written as null.
    sort_keys keeps the sorted keys of run.meta.json and samples.meta.json."""
    text = json.dumps(_strict(payload), indent=2, sort_keys=sort_keys, allow_nan=False)
    Path(path).write_text(text + "\n")


def save_spec(spec: GmmSpec, path: str | Path) -> None:
    save_json(spec.to_dict(), path)


def save_sweep_csv(result: SweepResult, path: str | Path) -> None:
    """Write the rows as CSV and the fitted slope to a .summary.json sidecar."""
    lines = ["axis_value,metric,value,stderr"]
    for row in result.rows:
        lines.append(f"{repr(row.axis_value)},{row.metric},"
                     f"{repr(row.value)},{repr(row.stderr)}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    save_json({"slope": result.slope, "slope_half_width": result.slope_half_width,
               "n_points": len(result.rows)}, path.with_suffix(".summary.json"))
