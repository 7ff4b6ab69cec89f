import json
import math
from pathlib import Path

import numpy as np
import pytest
from gmdiff import sample
from gmdiff.bounds import bound_report
from gmdiff.errors import EmptyBatch, NonFiniteParameter
from gmdiff.fileio import (
    load_spec,
    save_json,
    save_spec,
    save_sweep_csv,
)
from gmdiff.metrics import SweepResult, SweepRow
from gmdiff.samples import CSV_BLOCK_CELLS, SampleBatch


def test_spec_round_trip(tmp_path, anchor):
    path = tmp_path / "spec.json"
    save_spec(anchor, path)
    loaded = load_spec(path)
    np.testing.assert_array_equal(loaded.weights, anchor.weights)
    np.testing.assert_array_equal(loaded.means, anchor.means)
    np.testing.assert_array_equal(loaded.covs, anchor.covs)


def test_anchor_spec_file_is_the_anchor(anchor):
    # the benchmark and the command-line examples read the file, the tests
    # build the spec with standard_mixture_1d(): they are the same bits
    loaded = load_spec(Path(__file__).resolve().parents[1] / "specs" / "standard_mixture_1d.json")
    for field in ("weights", "means", "covs"):
        got, want = getattr(loaded, field), getattr(anchor, field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), field


def test_spec_file_format_fields(tmp_path, anchor):
    path = tmp_path / "spec.json"
    save_spec(anchor, path)
    raw = json.loads(path.read_text())
    assert raw["dim"] == 1
    assert len(raw["components"]) == 2
    assert set(raw["components"][0]) == {"weight", "mean", "cov"}


def test_sample_batch_round_trip(tmp_path, anchor):
    batch = sample(anchor, 100, seed=3)
    csv = tmp_path / "pts.csv"
    batch.to_csv(csv)
    loaded = SampleBatch.from_csv(csv)
    np.testing.assert_array_equal(loaded.points, batch.points)
    assert loaded.meta["seed"] == 3


def test_sample_batch_csv_header(tmp_path):
    batch = SampleBatch(points=np.zeros((2, 3)), meta={"seed": 0})
    csv = tmp_path / "pts.csv"
    batch.to_csv(csv)
    assert csv.read_text().splitlines()[0] == "x0,x1,x2"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_batch_csv_bytes_match_per_row_repr(tmp_path, d):
    values = np.array([-0.0, 5e-324, 1e-5, 1e16, 2.0, -3.25])
    # 7 rows, and at every d past three full blocks plus a partial one
    for n in (7, 3 * CSV_BLOCK_CELLS + 7):
        pts = np.resize(values, (n, d))
        csv = tmp_path / "pts.csv"
        SampleBatch(points=pts, meta={}).to_csv(csv)
        lines = [",".join(f"x{j}" for j in range(d))]
        lines += [",".join(repr(float(v)) for v in row) for row in pts]
        assert csv.read_bytes() == ("\n".join(lines) + "\n").encode()
        loaded = SampleBatch.from_csv(csv).points
        assert loaded.shape == (n, d) and loaded.tobytes() == pts.tobytes()


@pytest.mark.parametrize("text", ["x0\n1.0\n\n2.0\n", "x0,x1\n1.0,2.0\n\n3.0,4.0\n",
                                  "x0\n1.0\n \t\n2.0\n", "x0\n\n1.0\n"])
def test_sample_batch_csv_rejects_interior_blank_line(tmp_path, text):
    csv = tmp_path / "pts.csv"
    csv.write_text(text)
    with pytest.raises(ValueError):
        SampleBatch.from_csv(csv)


@pytest.mark.parametrize("text", ["x0,x1\n1.0,2.0\n3.0,4.0\n\n \n\n",
                                  "\n  \n\nx0,x1\n1.0,2.0\n3.0,4.0",
                                  "\n\t\nx0,x1\r\n1.0,2.0\r\n3.0,4.0\r\n\r\n"])
def test_sample_batch_csv_ignores_outer_blank_lines(tmp_path, text):
    csv = tmp_path / "pts.csv"
    csv.write_text(text)
    assert SampleBatch.from_csv(csv).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


# at d = 1 a block holds CSV_BLOCK_CELLS rows; after CSV_BLOCK_CELLS - 1 rows
# the blank line ends the first block and rows follow in the next
@pytest.mark.parametrize("before", [1, CSV_BLOCK_CELLS - 1, CSV_BLOCK_CELLS, CSV_BLOCK_CELLS + 1])
def test_sample_batch_csv_blank_line_at_block_boundary(tmp_path, before):
    rows = [repr(float(i)) for i in range(2 * CSV_BLOCK_CELLS + 3)]
    csv = tmp_path / "pts.csv"
    csv.write_text("\n".join(["x0", *rows[:before], "", *rows[before:]]) + "\n")
    with pytest.raises(ValueError):
        SampleBatch.from_csv(csv)
    csv.write_text("\n".join(["x0", *rows[:before], "", "", ""]) + "\n")
    assert SampleBatch.from_csv(csv).points.ravel().tolist() == list(range(before))


@pytest.mark.parametrize("body", ["1.0,2.0\n3.0\n", "1.0\n2.0,3.0\n",
                                  "1.0,2.0\n3.0,4.0,5.0\n6.0\n"])
def test_sample_batch_csv_rejects_ragged_rows(tmp_path, body):
    csv = tmp_path / "pts.csv"
    csv.write_text("x0,x1\n" + body)
    with pytest.raises(ValueError):
        SampleBatch.from_csv(csv)


@pytest.mark.parametrize("text", ["x0\n1.0,2.0\n", "x0,x1,x2\n1.0\n", "x0,x1\n1.0\n2.0\n"])
def test_sample_batch_csv_width_is_the_header_width(tmp_path, text):
    csv = tmp_path / "pts.csv"
    csv.write_text(text)
    with pytest.raises(ValueError):
        SampleBatch.from_csv(csv)


# at d = 1 a block holds CSV_BLOCK_CELLS rows: a wide row last in the first
# block, first in the second and second in the second
@pytest.mark.parametrize("before", [CSV_BLOCK_CELLS - 1, CSV_BLOCK_CELLS, CSV_BLOCK_CELLS + 1])
def test_sample_batch_csv_rejects_wide_row_at_block_boundary(tmp_path, before):
    rows = [repr(float(i)) for i in range(before)]
    csv = tmp_path / "pts.csv"
    csv.write_text("\n".join(["x0", *rows, "1.0,2.0", "3.0"]) + "\n")
    with pytest.raises(ValueError):
        SampleBatch.from_csv(csv)


# a row is a line ended by LF, CR or CRLF, so a header line that a form feed
# splits further holds no rows: it is refused
@pytest.mark.parametrize("text", ["\n \n\x0cx0\x0c1.0\n2.0\n", "\n\nx0\x0c1.0\x0c2.0",
                                  "\r\n\x0c\r\nx0\x0c1.0\r\n2.0\r\n"])
def test_sample_batch_csv_header_shares_its_line_with_a_row(tmp_path, text):
    csv = tmp_path / "pts.csv"
    csv.write_bytes(text.encode())
    with pytest.raises(ValueError):
        SampleBatch.from_csv(csv)


@pytest.mark.parametrize("sep", ["\x0c", "\x0b", "\x85", "\u2028"], ids=["FF", "VT", "NEL", "LS"])
@pytest.mark.parametrize("text", ["x0{}1.0{}2.0{}", "x0\n1.0{}2.0{}3.0\n", "x0,x1{}1.0,2.0{}3.0,4.0",
                                  "x0,x1\n1.0,2.0{}3.0,4.0\n"],
                         ids=["d1-header", "d1-rows", "d2-header", "d2-rows"])
def test_sample_batch_csv_rejects_other_line_separators(tmp_path, sep, text):
    csv = tmp_path / "pts.csv"
    csv.write_bytes(text.replace("{}", sep).encode())
    with pytest.raises(ValueError):
        SampleBatch.from_csv(csv)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_batch_csv_reads_crlf_and_cr_lines(tmp_path, d, end):
    # three full blocks plus a partial one
    pts = np.random.default_rng(d).normal(size=(3 * (CSV_BLOCK_CELLS // d) + 5, d))
    csv = tmp_path / "pts.csv"
    SampleBatch(points=pts, meta={}).to_csv(csv)
    csv.write_bytes(csv.read_bytes().replace(b"\n", end.encode()))
    assert SampleBatch.from_csv(csv).points.tobytes() == pts.tobytes()


@pytest.mark.parametrize("text", ["", "x0,x1\n"])
def test_sample_batch_csv_rejects_empty_file(tmp_path, text):
    csv = tmp_path / "pts.csv"
    csv.write_text(text)
    with pytest.raises(EmptyBatch):
        SampleBatch.from_csv(csv)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_batch_rejects_non_finite_points(bad):
    with pytest.raises(NonFiniteParameter):
        SampleBatch(points=[[1.0], [bad]])
    # an empty batch is still an EmptyBatch
    with pytest.raises(EmptyBatch):
        SampleBatch(points=np.empty((0, 1)))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_sample_batch_csv_rejects_non_finite_cell(tmp_path, cell):
    csv = tmp_path / "pts.csv"
    csv.write_text(f"x0,x1\n1.0,2.0\n3.0,{cell}\n")
    with pytest.raises(NonFiniteParameter):
        SampleBatch.from_csv(csv)


def test_bound_report_json(tmp_path, anchor):
    rep = bound_report(anchor, 0.0, seed=0)
    path = tmp_path / "bounds.json"
    save_json([rep.to_dict()], path)
    raw = json.loads(path.read_text())
    assert len(raw) == 1
    assert raw[0]["t"] == 0.0
    assert raw[0]["L"] == rep.L


def test_sweep_csv_and_summary(tmp_path):
    rows = tuple(SweepRow(float(2 ** i), "kl_histogram", 1.0 / 2 ** i, 0.01)
                 for i in range(5))
    result = SweepResult(rows=rows, slope=-1.0, slope_half_width=0.05)
    path = tmp_path / "sweep.csv"
    save_sweep_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "axis_value,metric,value,stderr"
    assert len(lines) == 6
    summary = json.loads((tmp_path / "sweep.summary.json").read_text())
    assert summary["slope"] == -1.0
