"""Command-line front end.

One binary, four subcommands plus replay:

  bounds  -- smoothness report for a spec at a list of times
  sample  -- run a reverse-process sampler, write CSV + metadata
  verify  -- run a named invariant suite, write a machine-readable report
  sweep   -- convergence sweep over N or epsilon0, write CSV + slope summary
  replay  -- re-run any command from its emitted metadata file

Every run that exits 0 or 1 writes run.meta.json with the fully resolved
configuration (defaults and seed included); replaying that file reproduces
the outputs byte for byte. Exit codes: 0 success, 1 verification failure,
2 input at fault (spec, flag, replayed config or path), 3 numerical failure,
4 internal error (a bug).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bounds import LOG_FLOAT_MAX, bound_report
from .errors import GmdiffError, NonFiniteState
from .fileio import load_spec, save_json, save_sweep_csv
from .metrics import convergence_sweep
from .mixture import GmmSpec
from .schedules import check_grid_args, exp_decay_grid, uniform_grid
from .solvers import (check_corrector_args, make_score_model, run_predictor_corrector,
                      run_sampler)
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4
# the type argparse gives each RunConfig field (an int is a float too)
_ARG_TYPES = {"str": (str,), "int": (int,), "float": (int, float),
              "float | None": (int, float, type(None)), "list": (list,)}
# each command's choice-valued options; argparse and RunConfig (which
# replayed configs reach without argparse) both read them
CHOICES = {
    "bounds": {},
    "sample": {"solver": ("em", "ei", "dpom", "dpum"), "schedule": ("uniform", "expdecay")},
    "verify": {"suite": tuple(SUITES)},
    "sweep": {"axis": ("N", "epsilon0"), "solver": ("em", "ei")},
}


@dataclass
class RunConfig:
    """Fully resolved invocation; serialized verbatim into run.meta.json."""

    command: str
    spec: str
    out: str
    seed: int
    solver: str = "ei"
    schedule: str = "uniform"
    T: float = 6.0
    N: int = 1024
    delta: float = 0.0
    epsilon0: float = 0.0
    n: int = 10000
    K: float = 1.0
    threads: int = 1
    t_list: list = field(default_factory=lambda: [0.0])
    suite: str = "score"
    axis: str = "N"
    values: list = field(default_factory=list)
    eps: float = 0.1
    h_pred: float | None = None
    h_corr: float | None = None
    corr_steps: int = 2
    friction: float = 2.0
    bins: int = 200

    def __post_init__(self):
        # replayed configs skip argparse, so the checks live here
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {self.seed!r}")
        if type(self.threads) is not int or self.threads < 1:
            raise ValueError(f"--threads must be an integer >= 1, got {self.threads!r}")
        for name, f in self.__dataclass_fields__.items():
            value = getattr(self, name)
            items = value if type(value) is list else []
            if (type(value) not in _ARG_TYPES[f.type]
                    or any(type(v) not in (int, float) for v in items)):
                raise ValueError(f"{name} must be of type {f.type}, got {value!r}")
            # every number but the seed (SeedSequence takes any integer) is used as a double
            if name != "seed" and any(type(v) is int and abs(v) > sys.float_info.max
                                      for v in [value, *items]):
                raise ValueError(f"{name} holds an integer past the double range")
        if self.command not in CHOICES:
            raise ValueError(f"command must be one of {list(CHOICES)}, got {self.command!r}")
        for name, allowed in CHOICES[self.command].items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {list(allowed)} for "
                                 f"{self.command}, got {getattr(self, name)!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="path to a mixture spec file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (a random one is drawn and recorded if absent)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmdiff")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="smoothness report at a list of times")
    _add_common(p)
    p.add_argument("--t-list", type=float, nargs="+", default=[0.0],
                   dest="t_list", help="times to report at (0 always included)")
    p.add_argument("--eps", type=float, default=0.1,
                   help="target accuracy for the step-count heuristic")

    p = sub.add_parser("sample", help="run a reverse-process sampler")
    _add_common(p)
    p.add_argument("--solver", choices=CHOICES["sample"]["solver"], default="ei")
    p.add_argument("--schedule", choices=CHOICES["sample"]["schedule"], default="uniform")
    p.add_argument("--T", type=float, default=6.0)
    p.add_argument("--N", type=int, default=1024)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--epsilon0", type=float, default=0.0)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--h-pred", type=float, default=None, dest="h_pred")
    p.add_argument("--h-corr", type=float, default=None, dest="h_corr")
    p.add_argument("--corr-steps", type=int, default=2, dest="corr_steps")
    p.add_argument("--friction", type=float, default=2.0)

    p = sub.add_parser("verify", help="run a named invariant suite")
    _add_common(p)
    p.add_argument("suite", choices=CHOICES["verify"]["suite"])
    p.add_argument("--T", type=float, default=1.5,
                   help="time for the mixture suite's forward check")

    p = sub.add_parser("sweep", help="convergence sweep over N or epsilon0")
    _add_common(p)
    p.add_argument("axis", choices=CHOICES["sweep"]["axis"])
    p.add_argument("--values", type=float, nargs="+", required=True)
    p.add_argument("--solver", choices=CHOICES["sweep"]["solver"], default="ei")
    p.add_argument("--T", type=float, default=8.0)
    p.add_argument("--N", type=int, default=8192,
                   help="fixed N for epsilon0 sweeps")
    p.add_argument("--epsilon0", type=float, default=0.0,
                   help="fixed epsilon0 for N sweeps")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--bins", type=int, default=200)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("replay", help="re-run a command from its metadata file")
    p.add_argument("meta", help="path to a run.meta.json")
    p.add_argument("--out", default=None, help="override the output directory")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1)[0])
    fields = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    fields["seed"] = seed
    return RunConfig(**fields)


def cmd_bounds(cfg: RunConfig, spec: GmmSpec, out_dir: Path) -> int:
    if not (math.isfinite(cfg.eps) and cfg.eps > 0.0):
        raise ValueError(f"--eps must be positive and finite, got {cfg.eps!r}")
    times = sorted(set([0.0] + [float(t) for t in cfg.t_list]))
    reports = [bound_report(spec, t, seed=cfg.seed) for t in times]
    save_json([r.to_dict() for r in reports], out_dir / "bounds.json")
    # log space: L itself can exceed the double range at high d
    log_n = (2.0 * max(r.log_L for r in reports) + math.log(spec.dim)
             - 2.0 * math.log(cfg.eps))
    n_suggest = math.ceil(math.exp(log_n)) if log_n <= LOG_FLOAT_MAX else f"e^{log_n:.6g}"
    print(f"wrote {out_dir / 'bounds.json'} ({len(reports)} time slices)")
    print(f"heuristic step count for accuracy eps={cfg.eps}: "
          f"N ~ L^2 d / eps^2 = {n_suggest} (constant taken as 1, sup of L over times)")
    return EXIT_OK


def cmd_sample(cfg: RunConfig, spec: GmmSpec, out_dir: Path) -> int:
    if cfg.N < 1:
        raise ValueError(f"--N must be >= 1, got {cfg.N}")
    # every flag is checked, whether or not the chosen solver reads it, and
    # before the calibrated report of the expdecay schedule
    check_grid_args(cfg.T, cfg.N, cfg.delta, cfg.K)
    h_pred = cfg.h_pred if cfg.h_pred is not None else cfg.T / cfg.N
    h_corr = cfg.h_corr if cfg.h_corr is not None else h_pred / 4.0
    check_corrector_args(h_pred, h_corr, cfg.corr_steps, cfg.friction)
    model = make_score_model(spec, "perturbed", cfg.epsilon0, seed=cfg.seed)
    if cfg.solver in ("em", "ei"):
        if cfg.schedule == "uniform":
            grid = uniform_grid(cfg.T, cfg.N, cfg.delta)
        else:
            L = bound_report(spec, 0.0, seed=cfg.seed).L
            grid = exp_decay_grid(cfg.T, cfg.N, max(L, 1.0), spec.dim, cfg.K, cfg.delta)
        batch = run_sampler(model, grid, cfg.solver, cfg.n, cfg.seed)
    else:
        variant = "overdamped" if cfg.solver == "dpom" else "underdamped"
        batch = run_predictor_corrector(
            model, cfg.T, h_pred, h_corr, cfg.corr_steps, variant,
            friction=cfg.friction, delta=cfg.delta, n=cfg.n, seed=cfg.seed)
    batch.meta["config"] = asdict(cfg)
    batch.to_csv(out_dir / "samples.csv")
    print(f"wrote {out_dir / 'samples.csv'} ({batch.n} points, dim {batch.dim})")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, spec: GmmSpec, out_dir: Path) -> int:
    if not math.isfinite(cfg.T):  # run.meta.json could record it only as null
        raise ValueError(f"--T must be finite for every suite, got {cfg.T!r}")
    kwargs = {"t": cfg.T} if cfg.suite == "mixture" else {}
    checks = SUITES[cfg.suite](spec, seed=cfg.seed, **kwargs)
    save_json([c.to_dict() for c in checks], out_dir / "verify.json")
    all_ok = all(c.passed for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: measured {c.measured:.6g} vs threshold {c.threshold:.6g}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_sweep(cfg: RunConfig, spec: GmmSpec, out_dir: Path) -> int:
    result = convergence_sweep(
        spec, cfg.solver, cfg.axis, list(cfg.values), cfg.n, cfg.seed, T=cfg.T,
        delta=cfg.delta, fixed_N=cfg.N, fixed_epsilon0=cfg.epsilon0, bins=cfg.bins,
        threads=cfg.threads)
    save_sweep_csv(result, out_dir / "sweep.csv")
    print(f"wrote {out_dir / 'sweep.csv'}; slope = {result.slope:.4f} "
          f"+- {result.slope_half_width:.4f}")
    return EXIT_OK


def cmd_replay(meta_path: str, out_override: str | None) -> int:
    payload = json.loads(Path(meta_path).read_text())
    if not (isinstance(payload, dict) and "config" in payload):
        raise ValueError(f"{meta_path}: no 'config' key to replay")
    try:
        cfg = RunConfig(**payload["config"])
    except TypeError as exc:
        # an unknown or missing required key, or a config that is not a mapping
        raise ValueError(f"{meta_path}: invalid config: {exc}") from None
    # run.meta.json records every field; a default here would be the sample
    # command's, not the replayed command's
    missing = [name for name in RunConfig.__dataclass_fields__ if name not in payload["config"]]
    if missing:
        raise ValueError(f"{meta_path}: config is missing {', '.join(missing)}")
    # NaN, Infinity or 1e999 could be recorded again only as null, which does not replay
    for name, value in payload["config"].items():
        floats = [v for v in (value if type(value) is list else [value]) if type(v) is float]
        if not all(map(math.isfinite, floats)):
            raise ValueError(f"{meta_path}: {name} must be finite, got {value!r}")
    if out_override is not None:
        cfg.out = out_override
    return _run(cfg)


DISPATCH = {
    "bounds": cmd_bounds,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def _run(cfg: RunConfig) -> int:
    """Load the spec, make the output directory and run the command's
    handler; on its return (exit 0 or 1) record cfg in run.meta.json."""
    spec = load_spec(cfg.spec)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    code = DISPATCH[cfg.command](cfg, spec, out_dir)
    save_json({"command": cfg.command, "config": asdict(cfg)}, out_dir / "run.meta.json",
              sort_keys=True)
    return code


def main(argv=None) -> int:
    """Run one command and return its exit code. Exit 2 means the input is
    at fault: the spec, a flag, a replayed config, or a path that is missing,
    is a directory or is in the way of --out (a GmdiffError, OSError or
    ValueError). Exit 4 means any other exception, which is a bug."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return cmd_replay(args.meta, args.out)
        return _run(_resolve_config(args))
    except NonFiniteState as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GmdiffError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # a bug, not a failed verification: keep it off exit code 1
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} "
              f"({Path(where.filename).name}:{where.lineno})", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
