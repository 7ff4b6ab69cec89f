"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, prepares state in
`setup` (which includes an untimed-for-solve warm-up pass at reduced size)
and runs one timed operation per `op` call. Every op of a run uses the
same inputs, so every op must produce the same output fingerprint.

gmdiff is reached only through the module namespace `gm` handed to
`setup`, and always through module attributes at call time, so that
tracing wrappers installed on those modules see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEC_FILE = Path("specs") / "standard_mixture_1d.json"


@dataclass
class OpResult:
    attempted: int            # operations checked: sampler runs or certified slices
    failed: int               # operations whose output check failed
    work: float               # chain steps (samplers) or slices (certify)
    fingerprint: str          # digest of the output; equal across ops of one run
    detail: str = ""          # first failure, for the log


class SampleEi1d:
    """`gmdiff sample` in-process through cli.main: EI, uniform grid,
    perturbed score (epsilon0 = 0.1) on the anchor 1D mixture."""

    name = "sample_ei_1d"
    sampler = ("solvers", "run_sampler")
    work_unit = "chain_steps_per_s: n x grid steps per second of the run_sampler call"
    KL_BOUND = 0.1            # KL(samples || data law), histogram estimate

    def __init__(self, root: Path, seed: int, workdir: Path,
                 n: int = 20000, N: int = 256, warm_n: int = 2000, warm_N: int = 32):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.n, self.N, self.warm_n, self.warm_N = n, N, warm_n, warm_N

    @property
    def chain_steps(self) -> int:
        return self.N

    def setup(self, gm) -> None:
        self.gm = gm
        self.spec = gm.fileio.load_spec(self.root / SPEC_FILE)
        # cli.main builds its own model in every op; this one is set-up work
        gm.solvers.make_score_model(self.spec, "perturbed", 0.1, seed=self.seed)
        self.grid = gm.metrics.default_histogram_grid(self.spec)
        self._run(self.warm_n, self.warm_N)

    def op(self) -> OpResult:
        return self._run(self.n, self.N)

    def argv(self, out: Path, n: int, N: int) -> list[str]:
        return ["sample", "--spec", str(self.root / SPEC_FILE), "--out", str(out),
                "--solver", "ei", "--schedule", "uniform", "--T", "6",
                "--N", str(N), "--n", str(n), "--epsilon0", "0.1",
                "--seed", str(self.seed)]

    def _run(self, n: int, N: int) -> OpResult:
        gm, out = self.gm, self.workdir / "sample"
        with contextlib.redirect_stdout(io.StringIO()):
            code = gm.cli.main(self.argv(out, n, N))
        if code != 0:
            return OpResult(1, 1, n * N, "", f"gmdiff sample exited {code}")
        csv = out / "samples.csv"
        raw = csv.read_bytes()
        batch = gm.samples.SampleBatch.from_csv(csv)
        again = self.workdir / "roundtrip.csv"
        batch.to_csv(again)
        kl = gm.metrics.kl_histogram(batch, self.spec, self.grid).value
        failures = []
        if batch.points.shape != (n, 1) or not np.all(np.isfinite(batch.points)):
            failures.append("points missing or not finite")
        if again.read_bytes() != raw:
            failures.append("samples.csv does not round-trip through SampleBatch")
        if not kl <= self.KL_BOUND:
            failures.append(f"kl_histogram {kl!r} > {self.KL_BOUND}")
        return OpResult(1, int(bool(failures)), n * N,
                        hashlib.sha256(raw).hexdigest(), "; ".join(failures))


class PcDpum2d:
    """The underdamped (BAOAB) predictor-corrector with the exact score on
    lipschitz_suite(2024)[5] (d = 2, k = 5)."""

    name = "pc_dpum_2d"
    sampler = ("solvers", "run_predictor_corrector")
    work_unit = "chain_steps_per_s: n x predictor nodes per second of the sampler call"
    Z_BOUND = 6.0             # max |z| of mean, covariance and E|x|^2
    T = 6.0

    def __init__(self, root: Path, seed: int, workdir: Path,
                 n: int = 1000, nodes: int = 1000, warm_nodes: int = 50):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.n, self.nodes, self.warm_nodes = n, nodes, warm_nodes

    @property
    def chain_steps(self) -> int:
        return self.nodes

    def setup(self, gm) -> None:
        self.gm = gm
        self.spec = gm.suite.lipschitz_suite(2024)[5]
        self.model = gm.solvers.make_score_model(self.spec)
        self._run(self.warm_nodes)

    def op(self) -> OpResult:
        return self._run(self.nodes)

    def _run(self, nodes: int) -> OpResult:
        gm = self.gm
        h_pred = self.T / nodes
        batch = gm.solvers.run_predictor_corrector(
            self.model, self.T, h_pred, h_pred / 4.0, 2, "underdamped",
            friction=2.0, n=self.n, seed=self.seed)
        z = gm.metrics.moment_diagnostics(batch, self.spec).max_abs_z
        bad = not z <= self.Z_BOUND
        return OpResult(1, int(bad), self.n * nodes,
                        hashlib.sha256(batch.points.tobytes()).hexdigest(),
                        f"moment max|z| {z!r} > {self.Z_BOUND}" if bad else "")


class CertifySuite:
    """bound_report, Jacobian spectral probe and histogram KL on every
    (spec, t) slice of lipschitz_suite(2024) x t in {0, 0.5, 2}."""

    name = "certify_suite"
    sampler = None
    work_unit = "slices_per_s: certified (spec, t) slices per second of the op"
    TIMES = (0.0, 0.5, 2.0)

    def __init__(self, root: Path, seed: int, workdir: Path,
                 calibration: int = 20000, probes: int = 10000, bins: int = 100):
        self.root, self.seed, self.workdir = root, seed, workdir
        self.sizes = (calibration, probes, bins)

    def setup(self, gm) -> None:
        self.gm = gm
        self.specs = gm.suite.lipschitz_suite(2024)
        self._run(1000, 1000, 10)        # warm-up at reduced size

    def op(self) -> OpResult:
        return self._run(*self.sizes)

    def _run(self, calibration: int, probes: int, bins: int) -> OpResult:
        gm = self.gm
        failed, digest, detail = 0, hashlib.sha256(), ""
        for i, spec in enumerate(self.specs):
            for j, t in enumerate(self.TIMES):
                cal_seed, probe_seed = np.random.SeedSequence([self.seed, i, j]).generate_state(2)
                report = gm.bounds.bound_report(spec, t, calibration_samples=calibration,
                                                seed=int(cal_seed))
                spec_t = gm.forward.marginal_at(spec, t)
                a_t = gm.forward.ou_coefficients(t).a
                pts = gm.mixture.sample_array(spec_t, probes, np.random.default_rng(probe_seed))
                probe = gm.metrics.jacobian_spectral_probe(spec_t, pts, report.params, a_t)
                kl = gm.metrics.kl_histogram(
                    pts, spec_t, gm.metrics.default_histogram_grid(spec_t, bins=bins))
                # the c03 rule: zero violations of the closed-form constant
                if not (probe.max_norm <= report.L and math.isfinite(kl.value)):
                    failed += 1
                    detail = detail or (f"spec {i} t={t}: max_norm {probe.max_norm!r} "
                                        f"vs L {report.L!r}, kl {kl.value!r}")
                digest.update(np.array([report.L, probe.max_norm, probe.n_passing,
                                        kl.value]).tobytes())
        slices = len(self.specs) * len(self.TIMES)
        return OpResult(slices, failed, slices, digest.hexdigest(), detail)


WORKLOADS = {w.name: w for w in (SampleEi1d, PcDpum2d, CertifySuite)}
