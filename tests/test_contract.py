"""The exit-code contract: a malformed input exits 2 (a config or spec
error), never 4 (an internal error), and a run that does not exit 0 leaves
no run.meta.json behind.

- `gmdiff bounds` on spec files drawn from a grammar of near-valid specs:
  wrong types, non-finite numbers, huge magnitudes, wrong shapes, missing
  keys and lists whose items are not (weight, mean, cov) triples. It exits
  0 or 2 with no RuntimeWarning from gmdiff.bounds, and a report it writes
  holds finite moments, KL bound and radius R.
- `gmdiff sample` and `gmdiff sweep` with flag values drawn from nan,
  +-inf, 0, -1, tiny, huge and fractional, and `gmdiff replay` of configs
  with such values (or wrong types, or strings outside a key's parser
  choices) in one or two keys, or with one or two keys deleted. They exit
  0, 2 or 3: a huge but finite epsilon0 or step is a valid run whose
  chains diverge, the numerical-failure exit, with no RuntimeWarning from
  gmdiff.solvers or gmdiff.mixture before it. An out-of-choice solver,
  schedule or axis, or a deleted key, exits 2.

The counts of chains, steps, corrector steps and bins are capped, so an
accepted draw costs milliseconds, and --threads stays within {-3, 0, 1, 2}.
Everything runs in-process, through cli.main except one direct call of
bound_report and moment_diagnostics on a spec whose weight sits at the
validator's tolerance; the example counts keep the file to a few seconds.
"""

import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gmdiff.bounds
import gmdiff.mixture
import gmdiff.solvers
from gmdiff.bounds import bound_report
from gmdiff.cli import main
from gmdiff.metrics import moment_diagnostics
from gmdiff.mixture import sample, validate_spec

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, math.nan, math.inf]),
    st.integers(-10 ** 400, 10 ** 400),
)
scalars = st.one_of(numbers, st.none(), st.booleans(), st.text(max_size=3))
anything = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


def _one_in(draw, m: int) -> bool:
    return draw(st.integers(0, m - 1)) == 0


# magnitudes whose squares, sums or symmetrized covariances pass the double range
huge = st.one_of(st.sampled_from([1.3e154, 1e200, 1e300, 1e308, 1.7976931348623157e308]),
                 st.floats(1e150, 1.7976931348623157e308))


@st.composite
def fields(draw, d, k):
    """(weight, mean, cov) of one of k components; each field is valid, or
    with probability 1/4 a wrong type, a non-finite number or a wrong shape.
    A valid weight is (1 + e) / k with |e| <= 0.9e-10, so the k weights sum
    to within validate_spec's 1e-10 of 1 but rarely to exactly 1. A valid
    mean coordinate or covariance scale is huge with probability 1/8."""
    scale = draw(huge) if _one_in(draw, 8) else draw(st.floats(0.1, 4.0))
    mean = [draw(huge) * draw(st.sampled_from([1.0, -1.0])) if _one_in(draw, 8) else v
            for v in draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d))]
    weight = (1.0 + draw(st.floats(-0.9e-10, 0.9e-10))) / k
    valid = (weight, mean, [[scale if i == j else 0.0 for j in range(d)] for i in range(d)])
    wrong_shape = st.lists(st.lists(numbers, min_size=d + 1, max_size=d + 1),
                           min_size=1, max_size=d + 1)
    bad = st.one_of(numbers, anything, wrong_shape,
                    st.lists(numbers, min_size=d, max_size=d))
    return tuple(draw(bad) if _one_in(draw, 4) else value for value in valid)


@st.composite
def spec_json(draw):
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    triples = [draw(fields(d, k)) for _ in range(k)]
    form = draw(st.sampled_from(["mapping", "mapping", "triples", "triples", "anything"]))
    if form == "mapping":
        # each key missing with probability 1/8
        components = [{key: value for key, value in zip(("weight", "mean", "cov"), triple)
                       if not _one_in(draw, 8)} for triple in triples]
        raw = {"dim": draw(anything) if _one_in(draw, 4) else d, "components": components}
        if _one_in(draw, 8):
            del raw[draw(st.sampled_from(["dim", "components"]))]
        return raw
    if form == "triples":
        # one entry in four is a pair, a single item or a 4-item list
        return [list(triple) if not _one_in(draw, 4)
                else [*triple, 0.0][:draw(st.sampled_from([1, 2, 4]))]
                for triple in triples]
    return draw(anything)


def _reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def _assert_strict_json(out: Path, rc: int) -> None:
    """Every *.json a run that exits 0 or 1 leaves in out parses as strict
    JSON: a NaN or Infinity token makes the parse raise."""
    if rc in (0, 1):
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)


def _runtime_warnings(caught, *modules) -> list[str]:
    """Messages of the RuntimeWarnings in caught raised from the modules' files."""
    files = {Path(m.__file__) for m in modules}
    return [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning) and Path(w.filename) in files]


# one component whose weight is 1 + 9e-11: M2 = 10 * (1 + 9e-11) exceeds the
# component's own second moment, 10
EDGE_WEIGHT_SPEC = {"dim": 1, "components": [{"weight": 1 + 9e-11, "mean": [3.0],
                                              "cov": [[1.0]]}]}


@given(spec_json())
@example(EDGE_WEIGHT_SPEC)
@settings(max_examples=150, deadline=None)
def test_bounds_on_any_spec_exits_0_or_2(raw):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "spec.json", Path(tmp) / "out"
        # json.dumps writes NaN and Infinity, which json.loads reads back
        spec.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["bounds", "--spec", str(spec), "--out", str(out), "--seed", "1"])
        assert rc in (0, 2)
        assert (out / "run.meta.json").exists() == (rc == 0)
        _assert_strict_json(out, rc)
        # an overflow is refused or written as null, never warned about
        assert not _runtime_warnings(caught, gmdiff.bounds)
        if rc == 0:
            # a spec whose moments, KL bound or region overflow is refused,
            # not written as null
            report = json.loads((out / "bounds.json").read_text())[0]
            assert None not in (report["M2"], report["m2"], report["mu_max"],
                                report["kl_upper"], report["R"]), report


def test_weights_at_the_tolerance_give_finite_reports():
    spec = validate_spec(EDGE_WEIGHT_SPEC)
    report = bound_report(spec, 0.0, calibration_samples=2000, seed=1).to_dict()
    assert all(map(math.isfinite, report.values())), report
    diag = moment_diagnostics(sample(spec, 2000, seed=1), spec)
    assert all(np.all(np.isfinite(v)) for v in vars(diag).values()), diag


ANCHOR = str(Path(__file__).resolve().parents[1] / "specs" / "standard_mixture_1d.json")
# argparse's int() rejects every bad value that is not 0 or -1, so a count
# flag never asks for more than its valid values do; `sweep N --values
# 1e300` passes the value check but is past numpy's largest array size, so
# it fails before anything is allocated
# 10^400 is the exception: int() takes it, and the config check refuses it, past
# the double range, before any work (a float flag reads it as inf)
BAD_FLAGS = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "0.5", "2.5", str(10 ** 400))
BAD_JSON = [math.nan, math.inf, -math.inf, 0, -1, 1e-300, 1e300, 0.5, None, "x", [], {},
            True, [1.0], 10 ** 400]


@st.composite
def flags(draw, command, valid, bad):
    """argv for command with each flag at one of its valid values (None
    leaves it out), then zero to two flags at one of their bad values."""
    args = {name: draw(st.sampled_from(values)) for name, values in valid.items()}
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(bad)))
        args[name] = draw(st.sampled_from(bad[name]))
    argv = list(command)
    for name, value in args.items():
        if value is not None:
            argv += [name, *([value] if isinstance(value, str) else value)]
    return argv


SAMPLE_VALID = {
    "--solver": ["em", "ei", "dpom", "dpum"], "--schedule": ["uniform", "expdecay"],
    "--T": ["0.5", "2", "6"], "--N": ["1", "2", "8", "32"], "--n": ["1", "3"],
    "--delta": ["0", "0.01"], "--epsilon0": ["0", "0.1"], "--K": ["1", "2"],
    "--friction": ["0", "2"], "--corr-steps": ["0", "2"], "--seed": ["1"],
    "--h-pred": [None, "0.1", "0.5"], "--h-corr": [None, "0.1", "0.5"],
}
SAMPLE_BAD = {name: BAD_FLAGS for name in SAMPLE_VALID if name not in ("--solver", "--schedule")}
# 10^11 corrector steps per node is refused before the loop starts
SAMPLE_BAD["--corr-steps"] = (*BAD_FLAGS, "100000000000")


def sweep_flags(axis: str):
    valid = {"--values": [["1", "2", "4", "8"] if axis == "N" else ["0.1", "0.2", "0.4", "0.8"]],
             "--solver": ["em", "ei"], "--T": ["0.5", "2"], "--N": ["1", "4"],
             "--n": ["2", "5"], "--epsilon0": ["0", "0.1"], "--delta": ["0", "0.01"],
             "--bins": ["10", "20"], "--seed": ["1"], "--threads": ["1", "2"]}
    bad = {name: BAD_FLAGS for name in valid if name not in ("--solver", "--threads")}
    # too few values, or one bad value among four
    bad["--values"] = [["2"], *(["1", "2", "4", value] for value in BAD_FLAGS)]
    bad["--threads"] = ["-3", "0"]
    return flags(["sweep", axis], valid, bad)


# the parser's choices per command; a replayed config holding any other
# value in one of these keys must exit 2, not fall through to another solver
PARSER_CHOICES = {
    "sample": {"solver": ("em", "ei", "dpom", "dpum"), "schedule": ("uniform", "expdecay")},
    "sweep": {"solver": ("em", "ei"), "axis": ("N", "epsilon0")},
}
# strings outside those choices; dpum is a sample solver, not a sweep one
OUT_OF_CHOICE = ["xx", "EI", "uniform ", "dpum"]


# every key of a record written before run.meta.json held only its command's
# options (every command's options, at small valid values); a replay checks
# the other commands' keys and drops them
CONFIG_KEYS = {"command": "sample", "spec": ANCHOR, "out": "replaced by --out", "seed": 1,
               "solver": "ei", "schedule": "uniform", "T": 2.0, "N": 4, "delta": 0.0,
               "epsilon0": 0.0, "n": 3, "K": 1.0, "threads": 1, "t_list": [0.0],
               "suite": "score", "axis": "N", "values": [], "eps": 0.1, "h_pred": None,
               "h_corr": None, "corr_steps": 1, "friction": 2.0, "bins": 10}
# the keys of CONFIG_KEYS that each replayed command reads
OWN_KEYS = {
    "sample": {"command", "spec", "out", "seed", "solver", "schedule", "T", "N", "delta",
               "epsilon0", "n", "K", "h_pred", "h_corr", "corr_steps", "friction"},
    "sweep": {"command", "spec", "out", "seed", "axis", "values", "solver", "T", "N",
              "epsilon0", "delta", "n", "bins", "threads"},
}


@st.composite
def replayed_config(draw):
    """A complete valid sample or sweep config with one or two keys set to
    a bad JSON value (a choice key also to an out-of-choice string) or
    deleted."""
    config = dict(CONFIG_KEYS)
    if draw(st.booleans()):
        config["solver"] = draw(st.sampled_from(["em", "ei", "dpom", "dpum"]))
    else:
        config.update(command="sweep", values=[1, 2, 4, 8])
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(sorted(config)))
        if _one_in(draw, 6):
            del config[key]
        elif key in ("solver", "schedule", "axis") and draw(st.booleans()):
            config[key] = draw(st.sampled_from(OUT_OF_CHOICE))
        else:
            config[key] = draw(st.sampled_from(BAD_JSON))
    return config


def _out_of_choice(config) -> bool:
    command = config.get("command")
    choices = PARSER_CHOICES.get(command, {}) if isinstance(command, str) else {}
    return any(key in config and config[key] not in allowed
               for key, allowed in choices.items())


def _own_key_missing(config) -> bool:
    """A key of the config's own command is missing (command itself included)."""
    command = config.get("command")
    own = OWN_KEYS.get(command, set()) if isinstance(command, str) else set()
    return "command" not in config or not own <= set(config)


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:       # argparse rejected a flag value
        return exc.code


def _check_flags(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = _exit_code([*argv, "--spec", ANCHOR, "--out", str(out)])
        assert rc in (0, 2, 3)
        assert (out / "run.meta.json").exists() == (rc == 0)
        _assert_strict_json(out, rc)
        # a diverging chain is reported by the exit code alone
        assert not _runtime_warnings(caught, gmdiff.solvers, gmdiff.mixture)


@given(flags(["sample"], SAMPLE_VALID, SAMPLE_BAD))
@settings(max_examples=80, deadline=None)
def test_sample_flags_exit_0_2_or_3(argv):
    _check_flags(argv)


@given(st.one_of(sweep_flags("N"), sweep_flags("epsilon0")))
@settings(max_examples=80, deadline=None)
def test_sweep_flags_exit_0_2_or_3(argv):
    _check_flags(argv)


@given(replayed_config())
@settings(max_examples=80, deadline=None)
def test_replayed_config_exits_0_2_or_3(config):
    with tempfile.TemporaryDirectory() as tmp:
        meta, out = Path(tmp) / "run.meta.json", Path(tmp) / "out"
        meta.write_text(json.dumps({"command": config.get("command"), "config": config}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = _exit_code(["replay", str(meta), "--out", str(out)])
        must_fail = _out_of_choice(config) or _own_key_missing(config)
        assert rc in ((2,) if must_fail else (0, 2, 3))
        assert (out / "run.meta.json").exists() == (rc == 0)
        _assert_strict_json(out, rc)
        assert not _runtime_warnings(caught, gmdiff.solvers, gmdiff.mixture)
