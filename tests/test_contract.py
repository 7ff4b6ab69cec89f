"""The exit-code contract on spec files: `gmdiff bounds` on any JSON spec
exits 0 or 2 (a config or spec error), never 4 (an internal error), and an
exit 2 leaves no run.meta.json behind.

Spec files are drawn from a grammar of near-valid specs: wrong types,
non-finite numbers, wrong shapes, missing keys and lists whose items are
not (weight, mean, cov) triples. Everything runs in-process through
cli.main; the example count keeps the file to a few seconds.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gmdiff.cli import main

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


@st.composite
def fields(draw, d, k):
    """(weight, mean, cov) of one of k components; each field is valid, or
    with probability 1/4 a wrong type, a non-finite number or a wrong shape."""
    scale = draw(st.floats(0.1, 4.0))
    valid = (1.0 / k,
             draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d)),
             [[scale if i == j else 0.0 for j in range(d)] for i in range(d)])
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


@given(spec_json())
@settings(max_examples=150, deadline=None)
def test_bounds_on_any_spec_exits_0_or_2(raw):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "spec.json", Path(tmp) / "out"
        # json.dumps writes NaN and Infinity, which json.loads reads back
        spec.write_text(json.dumps(raw))
        rc = main(["bounds", "--spec", str(spec), "--out", str(out), "--seed", "1"])
        assert rc in (0, 2)
        assert (out / "run.meta.json").exists() == (rc == 0)
