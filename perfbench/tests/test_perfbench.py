"""Self-test of the benchmark: every traced name exists, tracing is
transparent, and the named per-op counts come out exactly.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import ROOT_SPAN, TARGETS, MissingTarget, Tracer, install, resolve, uninstall  # noqa: E402
from workloads import WORKLOADS, CertifySuite, OpResult, PcDpum2d, SampleEi1d  # noqa: E402


@pytest.fixture(scope="module")
def gm():
    return run.load_gmdiff(fresh=False)


def _gmdiff_bindings(gm):
    """Every (namespace, attribute, value) in the loaded gmdiff modules."""
    return [(mod, key, value) for mod in vars(gm).values()
            for key, value in vars(mod).items()]


def test_every_traced_name_exists(gm):
    for module, qualname in TARGETS:
        owner, attr = resolve(gm, module, qualname)
        assert callable(getattr(owner, attr)), (module, qualname)


def test_renamed_name_is_reported(gm):
    with pytest.raises(MissingTarget):
        install(Tracer(), gm, [("solvers", "no_such_function")])


def test_install_reaches_every_namespace_and_uninstall_restores(gm):
    before = _gmdiff_bindings(gm)
    originals = {id(vars(owner)[attr]) for owner, attr in
                 (resolve(gm, m, q) for m, q in TARGETS)}
    undo = install(Tracer(), gm)
    try:
        leaked = [(mod.__name__, key) for mod, key, value in _gmdiff_bindings(gm)
                  if id(value) in originals]
        assert leaked == []
    finally:
        uninstall(undo)
    assert [(m, k, id(v)) for m, k, v in _gmdiff_bindings(gm)] == \
        [(m, k, id(v)) for m, k, v in before]


def _run(workload, gm, tracer=None):
    workload.setup(gm)
    if tracer is None:
        return workload.op()
    undo = install(tracer, gm)
    try:
        return tracer.run_op(0, workload.op)
    finally:
        uninstall(undo)


def test_traced_samples_csv_is_byte_identical(gm, tmp_path):
    csv = {}
    for mode in ("plain", "traced"):
        workdir = tmp_path / mode
        workdir.mkdir()
        workload = SampleEi1d(ROOT, 5, workdir, n=3000, N=24, warm_n=1000, warm_N=4)
        _run(workload, gm, Tracer() if mode == "traced" else None)
        csv[mode] = (workdir / "sample" / "samples.csv").read_bytes()
    assert csv["plain"] == csv["traced"]


def test_sample_counts_and_self_time_sum(gm, tmp_path):
    tracer = Tracer()
    workload = SampleEi1d(ROOT, 7, tmp_path, n=2000, N=20, warm_n=1000, warm_N=4)
    _run(workload, gm, tracer)
    rows = tracer.breakdown(0)
    assert rows["solvers.FourierField.__call__"]["calls"] == 20 + 16
    assert rows["solvers.ScoreModel.__call__"]["calls"] == 20     # 1 per chain step
    assert rows["forward.marginal_at"]["calls"] == 20 + 16
    total = rows[ROOT_SPAN]["total_s"]
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(total, rel=1e-9)


def test_pc_and_certify_counts_and_transparency(gm, tmp_path):
    plain = _run(PcDpum2d(ROOT, 3, tmp_path, n=200, nodes=10, warm_nodes=2), gm)
    tracer = Tracer()
    traced = _run(PcDpum2d(ROOT, 3, tmp_path, n=200, nodes=10, warm_nodes=2), gm, tracer)
    assert plain.fingerprint == traced.fingerprint
    assert tracer.breakdown(0)["solvers.ScoreModel.__call__"]["calls"] == 5 * 10

    small = dict(calibration=1000, probes=1000, bins=10)
    plain = _run(CertifySuite(ROOT, 3, tmp_path, **small), gm)
    tracer = Tracer()
    traced = _run(CertifySuite(ROOT, 3, tmp_path, **small), gm, tracer)
    assert plain == traced and plain.failed == 0
    rows = tracer.breakdown(0)
    assert rows["forward.marginal_at"]["calls"] == 36
    assert rows["metrics.spectral_norms"]["calls"] == 18
    assert tracer.counters[0]["metrics.kl_histogram.clamped_cells"] == 0


def test_per_layer_report_names_every_metric(gm, tmp_path):
    tracer = Tracer()
    workload = PcDpum2d(ROOT, 3, tmp_path, n=100, nodes=4, warm_nodes=2)
    workload.setup(gm)
    undo = install(tracer, gm)
    try:
        traced = [(i, 0.1, tracer.run_op(i, workload.op)) for i in (1, 3)]
    finally:
        uninstall(undo)
    untraced = [(0, 0.1, traced[0][2])]
    metrics = run.per_layer(workload, untraced, traced, tracer)
    assert metrics["solvers.score_evals_per_chain_step"] == (5.0, "count")
    assert metrics["trace.self_sum_rel_err"][0] < 1e-9
    listed = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert listed == set(metrics)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_reports(tmp_path):
    spec = _benchmark_json()
    assert spec["paths"] == [BENCH_DIR.name]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    workload = CertifySuite(ROOT, 1, tmp_path)
    record = (0, 1.0, OpResult(18, 0, 18, ""))
    metrics = run.end_to_end(workload, [0.5], [record], Tracer())
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
