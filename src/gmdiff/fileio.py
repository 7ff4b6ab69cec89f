"""On-disk formats: mixture spec files (JSON), bound reports and sweep
CSVs. Floats round-trip exactly through repr."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .bounds import BoundReport
from .metrics import SweepResult
from .mixture import GmmSpec, validate_spec


def load_spec(path: str | Path) -> GmmSpec:
    """Read a mixture spec file: {"dim": d, "components": [{weight, mean, cov}]}."""
    raw = json.loads(Path(path).read_text())
    return validate_spec(raw)


def save_spec(spec: GmmSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(spec.to_dict(), indent=2) + "\n")


def save_bound_reports(reports: list[BoundReport], path: str | Path) -> None:
    """Write the reports as strict JSON: a non-finite value (L past the
    double range) is written as null; its log, log_L, stays finite."""
    payload = [{key: value if math.isfinite(value) else None
                for key, value in r.to_dict().items()} for r in reports]
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def save_sweep_csv(result: SweepResult, path: str | Path) -> None:
    """Write the rows as CSV and the fitted slope to a .summary.json sidecar."""
    lines = ["axis_value,metric,value,stderr"]
    for row in result.rows:
        lines.append(f"{repr(row.axis_value)},{row.metric},"
                     f"{repr(row.value)},{repr(row.stderr)}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    path.with_suffix(".summary.json").write_text(json.dumps({
        "slope": result.slope,
        "slope_half_width": result.slope_half_width,
        "n_points": len(result.rows),
    }, indent=2) + "\n")
