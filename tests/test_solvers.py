import dataclasses
import math

import numpy as np
import pytest

import gmdiff.solvers
from gmdiff import (
    default_histogram_grid,
    make_score_model,
    marginal_at,
    run_predictor_corrector,
    run_sampler,
    score,
    standard_normal_spec,
    step_ei,
    step_em,
    tv_histogram,
    uniform_grid,
    validate_spec,
)
from gmdiff.errors import (InvalidHorizon, NegativeEpsilon, NonFiniteParameter,
                           NonFiniteState)
from gmdiff.mixture import sample_array
from gmdiff.samples import SampleBatch
from gmdiff.solvers import (
    FourierField,
    _corrector_overdamped,
    _corrector_underdamped,
    _guard,
)

from conftest import glibc_only, make_random_spec, minor_faults


class _Recomputing:
    """score(marginal_at(spec0, t), x), plus the field when perturbed, on
    every call: the memo-free reference for ScoreModel."""

    def __init__(self, model):
        self.spec0, self.kind, self.epsilon0 = model.spec0, model.kind, model.epsilon0
        self.field = model.field

    def __call__(self, t, x):
        s = score(marginal_at(self.spec0, t), x)
        if self.kind == "perturbed":
            s = s + self.epsilon0 * self.field(np.atleast_2d(x), t).reshape(s.shape)
        return s


class TestScoreModel:
    def test_exact_matches_analytic_score(self, anchor):
        from gmdiff.mixture import score

        model = make_score_model(anchor)
        for t in (0.05, 1.0, 4.0):
            x = np.linspace(-3, 3, 11)[:, None]
            np.testing.assert_array_equal(model(t, x), score(marginal_at(anchor, t), x))

    def test_memo_is_bitwise_exact_when_times_alternate(self):
        spec = make_random_spec(2, 3, seed=4)
        model = make_score_model(spec)
        x = np.random.default_rng(5).normal(size=(64, 2))
        for t in (0.3, 1.7, 0.3, 0.3, 1.7):
            np.testing.assert_array_equal(model(t, x), score(marginal_at(spec, t), x))

    @staticmethod
    def _all_threads_agree(model, calls, expected):
        """Six threads cycle through (t, x) calls on one shared model, each
        call twice in a row; True when every result equals its expected one."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        def worker(offset):
            for j in range(300):
                i = (offset + j // 2) % len(calls)
                if not np.array_equal(model(*calls[i]), expected[i]):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(worker, i) for i in range(6)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        return all(results)

    def test_memo_is_consistent_when_shared_across_threads(self):
        spec = make_random_spec(2, 3, seed=6)
        x = np.random.default_rng(8).normal(size=(16, 2))
        calls = [(t, x) for t in (0.2, 0.9, 2.5, 4.0, 5.5, 7.0)]
        expected = [score(marginal_at(spec, t), x) for t, x in calls]
        assert self._all_threads_agree(make_score_model(spec), calls, expected)

    def test_memo_is_consistent_when_threads_share_one_time(self):
        spec = make_random_spec(2, 3, seed=6)
        rng = np.random.default_rng(9)
        calls = [(1.3, rng.normal(size=(16, 2))) for _ in range(6)]
        expected = [score(marginal_at(spec, t), x) for t, x in calls]
        assert self._all_threads_agree(make_score_model(spec), calls, expected)

    @pytest.mark.parametrize("kind", ["exact", "perturbed"])
    def test_mutating_argument_or_result_leaves_memo_intact(self, kind):
        spec = make_random_spec(2, 3, seed=10)
        model = make_score_model(spec, kind, 0.3, seed=4)
        reference = _Recomputing(model)
        x = np.random.default_rng(11).normal(size=(40, 2))
        expected = reference(0.6, x)
        first = model(0.6, x)
        assert first.flags.c_contiguous
        first[:] = 99.0
        np.testing.assert_array_equal(model(0.6, x), expected)
        y = x.copy()
        model(0.6, y)
        y[3] += 1.0
        np.testing.assert_array_equal(model(0.6, y), reference(0.6, y))
        np.testing.assert_array_equal(model(0.6, x), expected)

    def test_signed_zeros_and_nans_match_recomputation(self, monkeypatch):
        computed = []

        def counting(spec, x):
            computed.append(1)
            return score(spec, x)

        monkeypatch.setattr(gmdiff.solvers, "score", counting)
        spec = make_random_spec(2, 2, seed=12)
        model = make_score_model(spec)
        spec_t = marginal_at(spec, 0.8)
        x = np.random.default_rng(13).normal(size=(8, 2))
        x[:3, 0] = 0.0
        negative = x.copy()
        negative[:3, 0] = -0.0
        # +0.0 and -0.0 are different keys, so each switch recomputes
        for pts, n_computed in ((x, 1), (negative, 2), (x, 3)):
            np.testing.assert_array_equal(model(0.8, pts), score(spec_t, pts))
            assert len(computed) == n_computed
        # a NaN equals its own bits: the repeat is served from the memo
        x[5] = np.nan
        for _ in range(2):
            np.testing.assert_array_equal(model(0.8, x), score(spec_t, x))
            assert len(computed) == 4

    def test_points_are_keyed_only_when_a_time_repeats(self, monkeypatch):
        computed = []

        def counting(spec, x):
            computed.append(1)
            return score(spec, x)

        monkeypatch.setattr(gmdiff.solvers, "score", counting)
        spec = make_random_spec(2, 3, seed=14)
        model = make_score_model(spec, "perturbed", 0.3, seed=2)
        reference = _Recomputing(model)
        x = np.random.default_rng(15).normal(size=(20, 2))
        first = model(0.4, x)
        # a new time keeps its marginal only: no key, no score, no copy
        assert model._last[0] == 0.4 and model._last[2:] == (None, None)
        assert first.flags.c_contiguous
        np.testing.assert_array_equal(first, reference(0.4, x))
        # the second call at that time computes again and keys its point
        np.testing.assert_array_equal(model(0.4, x), reference(0.4, x))
        assert len(computed) == 2 and model._last[2] is not None
        np.testing.assert_array_equal(model(0.4, x), reference(0.4, x))
        assert len(computed) == 2
        # a new time drops the key again
        model(0.5, x)
        assert len(computed) == 3 and model._last[2:] == (None, None)

    def test_zero_epsilon_forces_exact(self, anchor):
        model = make_score_model(anchor, "perturbed", 0.0, seed=3)
        assert model.kind == "exact"

    def test_zero_epsilon_perturbed_samples_as_exact(self, anchor):
        # the rule the CLI, the sweep and the demo script rely on: they pass
        # "perturbed" with whatever epsilon0 they were given
        grid = uniform_grid(4.0, 16)
        a = run_sampler(make_score_model(anchor, "perturbed", 0.0, seed=3), grid, "ei", 50, 2)
        b = run_sampler(make_score_model(anchor), grid, "ei", 50, 2)
        np.testing.assert_array_equal(a.points, b.points)
        assert a.meta == b.meta

    def test_exact_model_records_the_error_applied(self, anchor):
        # an exact model applies no score error, whatever epsilon0 it was given
        batch = run_sampler(make_score_model(anchor, "exact", 0.3), uniform_grid(4.0, 16),
                            "ei", 20, 1)
        assert (batch.meta["score_kind"], batch.meta["epsilon0"]) == ("exact", 0.0)

    def test_negative_epsilon_rejected(self, anchor):
        with pytest.raises(NegativeEpsilon):
            make_score_model(anchor, "perturbed", -0.1)

    @pytest.mark.parametrize("kind", ["exact", "perturbed"])
    @pytest.mark.parametrize("epsilon0", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, anchor, kind, epsilon0):
        with pytest.raises(NonFiniteParameter, match="epsilon0"):
            make_score_model(anchor, kind, epsilon0)

    @pytest.mark.parametrize("kind", ["nonsense", "Exact", ""])
    def test_unknown_kind_rejected(self, anchor, kind):
        with pytest.raises(ValueError, match="kind must be 'exact' or 'perturbed'"):
            make_score_model(anchor, kind, 0.1)

    def test_same_seed_same_field(self, anchor):
        a = make_score_model(anchor, "perturbed", 0.1, seed=9)
        b = make_score_model(anchor, "perturbed", 0.1, seed=9)
        x = np.linspace(-2, 2, 50)[:, None]
        np.testing.assert_array_equal(a(0.7, x), b(0.7, x))

    def test_grid_weighted_rms_matches_epsilon(self, anchor):
        # Monte-Carlo surrogate of the score-error budget:
        # (1/T) sum_k h_k E |s - grad log p|^2 should equal epsilon0^2
        eps = 0.1
        pert = make_score_model(anchor, "perturbed", eps, seed=5)
        exact = make_score_model(anchor)
        grid = uniform_grid(8.0, 64)
        rng = np.random.default_rng(7)
        total = 0.0
        for t_k, h_k in zip(grid.points[1:], grid.steps):
            spec_t = marginal_at(anchor, t_k)
            x = sample_array(spec_t, 200, rng)
            err = pert(t_k, x) - exact(t_k, x)
            total += h_k * float(np.mean(np.sum(err ** 2, axis=1)))
        rms = math.sqrt(total / grid.T)
        assert 0.08 <= rms <= 0.12

    def test_normalized_field_unit_rms_time_averaged(self):
        # the contract is the grid-weighted (time-averaged) RMS, not any
        # single-time slice: per-t values wobble with the feature phases
        spec = standard_normal_spec(2)
        x = np.random.default_rng(2).standard_normal((5000, 2))
        for seed in range(5):
            model = make_score_model(spec, "perturbed", 1.0, seed=seed)
            sq = [float(np.mean(np.sum(model.field(x, t) ** 2, axis=1)))
                  for t in np.linspace(0.25, 7.75, 12)]
            rms = math.sqrt(sum(sq) / len(sq))
            assert 0.9 <= rms <= 1.1, seed


class TestFourierField:
    @staticmethod
    def reference(field, x, t):
        # float64 evaluation of sqrt(2) cos(x W^T + t w + phi) A^T from the
        # stored float32 parameters
        freq = field.freq.astype(np.float64)
        d = x.shape[1]
        arg = x @ freq[:, :d].T + t * freq[:, d] + freq[:, d + 1]
        return math.sqrt(2.0) * np.cos(arg) @ field.amp.astype(np.float64).T

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_holds_two_float32_arrays(self, d):
        field = FourierField.create(d, seed=4)
        assert [f.name for f in dataclasses.fields(field)] == ["freq", "amp"]
        assert field.freq.shape == (64, d + 2) and field.freq.dtype == np.float32
        assert field.amp.shape == (d, 64) and field.amp.dtype == np.float32

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_float64_reference(self, d):
        field = FourierField.create(d, seed=10 + d)
        x = 2.0 * np.random.default_rng(d).standard_normal((3000, d))
        for t in (0.0, 0.4, 3.0, 8.0):
            u = field(x, t)
            assert u.shape == (3000, d) and u.dtype == np.float64
            np.testing.assert_allclose(u, self.reference(field, x, t), rtol=0, atol=5e-6)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_edges_match_float64_reference(self, d):
        # the field runs over column blocks of _FIELD_BLOCK chains
        b = gmdiff.solvers._FIELD_BLOCK
        field = FourierField.create(d, seed=60 + d)
        x = 2.0 * np.random.default_rng(70 + d).standard_normal((3 * b + 1, d))
        ref = self.reference(field, x, 0.9)
        for n in (1, b - 1, b, b + 1, 3 * b + 1):
            np.testing.assert_allclose(field(x[:n], 0.9), ref[:n], rtol=0, atol=5e-6,
                                       err_msg=f"n = {n}")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_alone_matches_batch(self, d):
        field = FourierField.create(d, seed=20 + d)
        x = np.random.default_rng(30 + d).standard_normal((5000, d))
        batch = field(x, 1.3)
        for i in (0, 17, 4999):
            np.testing.assert_allclose(field(x[i:i + 1], 1.3), batch[i:i + 1],
                                       rtol=0, atol=5e-6)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rescaled_scales_output(self, d):
        field = FourierField.create(d, seed=40 + d)
        x = np.random.default_rng(d).standard_normal((500, d))
        # float32 accumulation over 64 features: an absolute, not relative, error
        np.testing.assert_allclose(field.rescaled(0.37)(x, 2.0), 0.37 * field(x, 2.0),
                                   rtol=0, atol=5e-6)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_seed_is_bitwise_equal(self, d):
        spec = make_random_spec(d, 2, seed=50 + d)
        a = make_score_model(spec, "perturbed", 0.1, seed=9)
        b = make_score_model(spec, "perturbed", 0.1, seed=9)
        x = np.random.default_rng(d).standard_normal((400, d))
        np.testing.assert_array_equal(a.field.freq, b.field.freq)
        np.testing.assert_array_equal(a.field.amp, b.field.amp)
        np.testing.assert_array_equal(a(0.7, x), b(0.7, x))


class TestFourierFieldLattice:
    """The d = 1 field is evaluated on the lattice h Z and interpolated by
    the cubic through the four surrounding nodes."""

    reference = staticmethod(TestFourierField.reference)

    @staticmethod
    def spy(monkeypatch):
        # records the batch size of every call that takes the lattice path
        sizes = []
        lattice = FourierField._lattice

        def recording(self, x, *args):
            sizes.append(x.shape[0])
            return lattice(self, x, *args)

        monkeypatch.setattr(FourierField, "_lattice", recording)
        return sizes

    @staticmethod
    def bound(field):
        w = field.freq[:, 0].astype(np.float64)
        max_u4 = math.sqrt(2.0) * np.sum(np.abs(field.amp[0].astype(np.float64)) * w**4)
        return 3.0 / 128.0 * field._lattice_step**4 * max_u4

    @pytest.mark.parametrize("center, scale", [(0.0, 0.3), (0.0, 2.0), (-7.0, 5.0)])
    def test_matches_float64_reference_over_seeds(self, center, scale, monkeypatch):
        sizes = self.spy(monkeypatch)
        for seed in range(20):
            field = FourierField.create(1, seed=100 + seed)
            x = center + scale * np.random.default_rng(seed).standard_normal((12000, 1))
            for t in (0.0, 0.7, 3.0, 6.0):
                np.testing.assert_allclose(field(x, t), self.reference(field, x, t),
                                           rtol=0, atol=5e-6, err_msg=f"seed {seed}, t {t}")
        assert sizes == [12000] * 80

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_error_bound_holds_for_chosen_step(self, seed, monkeypatch):
        field = FourierField.create(1, seed=seed)
        assert self.bound(field) == pytest.approx(gmdiff.solvers._LATTICE_TOL, rel=1e-12)
        # with exact node values only the cubic's own error remains
        monkeypatch.setattr(FourierField, "_direct", self.reference)
        sizes = self.spy(monkeypatch)
        x = 3.0 * np.random.default_rng(seed).standard_normal((20000, 1))
        for t in (0.0, 1.1, 5.0):
            err = np.max(np.abs(field(x, t) - self.reference(field, x, t)))
            assert err <= self.bound(field) + 1e-14
        assert sizes == [20000] * 3

    def test_chains_on_nodes_and_at_the_ends(self, monkeypatch):
        sizes = self.spy(monkeypatch)
        field = FourierField.create(1, seed=8)
        h = field._lattice_step
        nodes = np.arange(-150, 151) * h
        x = np.concatenate([nodes, np.random.default_rng(8).uniform(nodes[0], nodes[-1], 1500)])
        for t in (0.0, 2.5):
            u = field(x[:, None], t)
            ref = self.reference(field, x[:, None], t)
            np.testing.assert_allclose(u, ref, rtol=0, atol=5e-6)
            # a chain on a node takes that node's value, up to the float32
            # rounding of a node evaluated in a different batch
            np.testing.assert_allclose(u[:nodes.size], field._direct(nodes[:, None], t),
                                       rtol=0, atol=1e-6)
            # batch min and max off the nodes
            ends = np.array([[nodes[0] + 0.3 * h], [nodes[-1] - 0.6 * h], [0.0]])
            x_ends = np.vstack([ends, x[nodes.size:, None]])
            np.testing.assert_allclose(field(x_ends, t)[:3], self.reference(field, ends, t),
                                       rtol=0, atol=5e-6)
        assert sizes == [x.size, x.size - nodes.size + 3] * 2

    def test_subset_matches_full_batch(self, monkeypatch):
        sizes = self.spy(monkeypatch)
        field = FourierField.create(1, seed=9)
        x = 2.0 * np.random.default_rng(9).standard_normal((16000, 1))
        full = field(x, 0.8)
        for rows in (np.arange(0, 16000, 2), np.flatnonzero(np.abs(x[:, 0]) < 1.0),
                     np.arange(4000)):
            np.testing.assert_allclose(field(x[rows], 0.8), full[rows], rtol=0, atol=1e-6)
        assert len(sizes) == 4

    @staticmethod
    def table_lattice(field, x, t):
        # the interpolation with its four coefficients as one (m, 4) table
        # gathered by rows: the same operations in the same order as
        # _lattice, so the same bits
        inv_h = 1.0 / field._lattice_step
        k_lo = math.floor(float(x.min()) * inv_h)
        k_hi = math.floor(float(x.max()) * inv_h)
        nodes = np.arange(k_lo - 1, k_hi + 3) * field._lattice_step
        f = field._direct(nodes[:, None], t)[:, 0]
        a, b, c, e = f[:-3], f[1:-2], f[2:-1], f[3:]
        coef = np.empty((f.size - 3, 4))
        coef[:, 0] = (e - a) / 6.0 + (b - c) / 2.0
        coef[:, 1] = (a + c) / 2.0 - b
        coef[:, 2] = c - b / 2.0 - a / 3.0 - e / 6.0
        coef[:, 3] = b
        s = x[:, 0] * inv_h
        k = np.floor(s)
        s -= k
        idx = k.astype(np.intp)
        idx -= k_lo
        cf = np.take(coef, idx, axis=0)
        out = cf[:, 0] * s
        out += cf[:, 1]
        out *= s
        out += cf[:, 2]
        out *= s
        out += cf[:, 3]
        return out[:, None]

    @pytest.mark.parametrize("seed", [14, 15, 16])
    def test_bitwise_equal_to_coefficient_table(self, seed, monkeypatch):
        sizes = self.spy(monkeypatch)
        field = FourierField.create(1, seed=seed)
        h = field._lattice_step
        rng = np.random.default_rng(seed)
        batches = []
        for n in (16, 17, 1000, 20000):
            # every chain in one interval, left of 0 (k_lo = -1) and right
            # of it; then chains on both sides of 0
            batches += [-h * rng.uniform(0.01, 0.99, (n, 1)),
                        (7.0 + rng.uniform(0.01, 0.99, (n, 1))) * h]
            if n >= 1000:
                batches.append(60.0 * h * rng.uniform(-1.0, 1.0, (n, 1)))
        batches.append(2.0 * rng.standard_normal((20000, 1)))
        for x in batches:
            for t in (0.0, 1.7):
                assert field(x, t).tobytes() == self.table_lattice(field, x, t).tobytes()
        assert sizes == [x.shape[0] for x in batches for _ in (0, 1)]

    def test_float32_chains_interpolate_in_float64(self, monkeypatch):
        # the lattice position x / h is formed in float64 whatever the dtype
        # of x, as the lattice's range is
        sizes = self.spy(monkeypatch)
        field = FourierField.create(1, seed=17)
        x = (2.0 * np.random.default_rng(17).standard_normal((20000, 1))).astype(np.float32)
        assert field(x, 0.6).tobytes() == field(x.astype(np.float64), 0.6).tobytes()
        assert sizes == [20000, 20000]

    @pytest.mark.parametrize("far", [1e8, -1e8, 1e30, np.finfo(float).max])
    def test_wide_spread_takes_direct_path(self, far, monkeypatch):
        sizes = self.spy(monkeypatch)
        field = FourierField.create(1, seed=10)
        x = np.random.default_rng(10).standard_normal((20000, 1))
        x[123] = far
        with np.errstate(all="ignore"):
            u = field(x, 1.5)
            np.testing.assert_array_equal(u, field._direct(x, 1.5))
        assert sizes == []

    def test_node_count_cutoff(self, monkeypatch):
        sizes = self.spy(monkeypatch)
        field = FourierField.create(1, seed=11)
        h = field._lattice_step
        # chains in [0, (G - 4) h] need exactly G nodes
        for n, span in ((400, 96), (400, 97), (15, 0), (16, 0)):
            x = np.full((n, 1), 0.5 * h)
            x[0] = (span + 0.5) * h
            u = field(x, 0.3)
            np.testing.assert_allclose(u, self.reference(field, x, 0.3), rtol=0, atol=5e-6)
        assert sizes == [400, 16]
        assert field(np.empty((0, 1)), 0.3).shape == (0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_chain_takes_direct_path(self, bad, monkeypatch):
        sizes = self.spy(monkeypatch)
        field = FourierField.create(1, seed=12)
        x = np.random.default_rng(12).standard_normal((20000, 1))
        x[77] = bad
        with np.errstate(all="ignore"):
            u = field(x, 2.0)
            np.testing.assert_array_equal(u, field._direct(x, 2.0))
        assert np.isnan(u[77, 0]) and np.isfinite(np.delete(u, 77)).all()
        assert sizes == []

    def test_rescaled_scales_lattice_output(self, monkeypatch):
        sizes = self.spy(monkeypatch)
        field = FourierField.create(1, seed=13)
        x = 2.0 * np.random.default_rng(13).standard_normal((20000, 1))
        np.testing.assert_allclose(field.rescaled(0.37)(x, 2.0), 0.37 * field(x, 2.0),
                                   rtol=0, atol=5e-6)
        assert sizes == [20000, 20000]
        # a vanishing field has no finite step and is evaluated directly
        zero = field.rescaled(0.0)
        assert zero._lattice_step == math.inf
        np.testing.assert_array_equal(zero(x, 2.0), np.zeros((20000, 1)))
        assert len(sizes) == 2


class TestStepFunctions:
    def test_em_zero_step_is_identity(self):
        y = np.array([[1.0, -2.0]])
        out = step_em(y, 0.0, np.zeros((1, 2)), np.zeros((1, 2)))
        np.testing.assert_array_equal(out, y)

    def test_em_pure_diffusion(self):
        xi = np.array([[0.5, -0.25]])
        out = step_em(np.zeros((1, 2)), 0.1, np.zeros((1, 2)), xi)
        np.testing.assert_allclose(out, math.sqrt(0.2) * xi, rtol=1e-15)

    def test_em_stationary_drift_substitution(self):
        # exact score of the standard normal is -y, so one step contracts by (1-h)
        y = np.array([[2.0]])
        out = step_em(y, 0.25, -y, np.zeros((1, 1)))
        np.testing.assert_allclose(out, 0.75 * y, rtol=1e-14)

    def test_ei_zero_step_is_identity(self):
        y = np.array([[0.7, 0.1]])
        out = step_ei(y, 0.0, np.ones((1, 2)), np.zeros((1, 2)))
        np.testing.assert_array_equal(out, y)

    def test_ei_deterministic_part_matches_substepped_euler(self):
        # independent oracle: integrate dy = (y + 2 s) dt with 1e4 Euler
        # substeps and frozen s, compare against the closed form
        rng = np.random.default_rng(11)
        for _ in range(5):
            y0 = rng.normal(size=(1, 3))
            s = rng.normal(size=(1, 3))
            h = float(rng.uniform(0.01, 0.6))
            m = 10000
            y = y0.copy()
            dt = h / m
            for _ in range(m):
                y = y + dt * (y + 2.0 * s)
            closed = step_ei(y0, h, s, np.zeros_like(y0))
            assert np.max(np.abs(closed - y)) / np.max(np.abs(closed)) <= 1e-4

    def test_ei_noise_variance_ito_isometry(self):
        # Ito isometry: integral of 2 e^{2(h-u)} over the step is e^{2h} - 1
        h = 0.3
        n = 1_000_000
        rng = np.random.default_rng(13)
        draws = step_ei(np.zeros((n, 1)), h, np.zeros((n, 1)),
                        rng.standard_normal((n, 1)))
        target = math.expm1(2.0 * h)
        emp = float(draws.var(ddof=1))
        assert abs(emp - target) <= 4.0 * target * math.sqrt(2.0 / n)


class TestRunSampler:
    def test_stationary_start_moments(self, std2d):
        n = 100000
        model = make_score_model(std2d)
        grid = uniform_grid(2.0, 512)
        for scheme in ("em", "ei"):
            batch = run_sampler(model, grid, scheme, n, seed=101)
            mean = batch.points.mean(axis=0)
            var = batch.points.var(axis=0, ddof=1)
            assert np.all(np.abs(mean) <= 4.0 / math.sqrt(n))
            assert np.all(np.abs(var - 1.0) <= 4.0 * math.sqrt(2.0 / n))

    def test_deterministic(self, anchor):
        model = make_score_model(anchor)
        grid = uniform_grid(4.0, 64)
        a = run_sampler(model, grid, "ei", 200, seed=5)
        b = run_sampler(model, grid, "ei", 200, seed=5)
        np.testing.assert_array_equal(a.points, b.points)

    def test_metadata_records_run(self, anchor):
        model = make_score_model(anchor, "perturbed", 0.1, seed=2)
        grid = uniform_grid(4.0, 32, delta=0.1)
        batch = run_sampler(model, grid, "em", 50, seed=6)
        assert batch.meta["solver"] == "em"
        assert batch.meta["seed"] == 6
        assert batch.meta["T"] == 4.0
        assert batch.meta["delta"] == 0.1
        assert batch.meta["epsilon0"] == 0.1

    def test_mixture_recovery_tv(self, anchor):
        # qualitative convergence target: exact score, fine grid, the output
        # law should land within binning + MC noise of the data law
        model = make_score_model(anchor)
        grid = uniform_grid(6.0, 2048)
        batch = run_sampler(model, grid, "ei", 100000, seed=7)
        hist = default_histogram_grid(anchor, bins=100)
        assert tv_histogram(batch, anchor, hist) <= 0.03

    def test_schemes_agree_as_steps_shrink(self, anchor):
        em = run_sampler(make_score_model(anchor), uniform_grid(6.0, 4096), "em",
                         40000, seed=8)
        ei = run_sampler(make_score_model(anchor), uniform_grid(6.0, 8192), "ei",
                         40000, seed=9)
        hist = default_histogram_grid(anchor, bins=60)
        assert tv_histogram(em, ei, hist) <= 0.02

    def test_early_stopping_targets_marginal_at_delta(self):
        # with delta > 0 the sampler aims at the delta-time marginal, which
        # has strictly more spread than a tight data law
        spec = validate_spec([(1.0, [0.0], [[0.01]])])
        delta = 0.5
        model = make_score_model(spec)
        grid = uniform_grid(6.0, 512, delta=delta)
        batch = run_sampler(model, grid, "ei", 50000, seed=10)
        target = marginal_at(spec, delta)
        emp_var = float(batch.points.var(ddof=1))
        target_var = float(target.covs[0, 0, 0])
        assert abs(emp_var - target_var) <= 5.0 * target_var * math.sqrt(2.0 / 50000)
        assert emp_var > 0.05  # far from the t=0 variance 0.01

    def test_divergence_guard(self, anchor):
        model = make_score_model(anchor, "perturbed", 1e9, seed=1)
        grid = uniform_grid(2.0, 8)
        with pytest.raises(NonFiniteState) as exc_info:
            run_sampler(model, grid, "em", 10, seed=11)
        exc = exc_info.value
        assert exc.step_index >= 0
        # the failing state sits at the right end of the step's interval
        assert exc.t_forward == pytest.approx(2.0 - 0.25 * (exc.step_index + 1), abs=1e-12)
        assert 0 <= exc.chain < 10
        assert f"step {exc.step_index}" in str(exc) and f"chain {exc.chain}" in str(exc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e15])
    def test_divergence_names_first_bad_chain(self, anchor, bad):
        exact = make_score_model(anchor)
        calls = []

        class ThirdCallBlowsUp:
            spec0, kind, epsilon0 = exact.spec0, exact.kind, exact.epsilon0

            def __call__(self, t, x):
                calls.append(t)
                s = exact(t, x)
                if len(calls) == 3:
                    s = s.copy()
                    s[[6, 2]] = bad
                return s

        with pytest.raises(NonFiniteState) as exc_info:
            run_sampler(ThirdCallBlowsUp(), uniform_grid(2.0, 8), "ei", 10, seed=11)
        exc = exc_info.value
        assert (exc.step_index, exc.chain) == (2, 2)
        assert exc.t_forward == pytest.approx(1.25, abs=1e-12)
        assert "step 2" in str(exc) and "chain 2" in str(exc) and "t = 1.25" in str(exc)
        assert "np.float64" not in str(exc)

    def test_rejects_unknown_scheme(self, anchor):
        with pytest.raises(ValueError):
            run_sampler(make_score_model(anchor), uniform_grid(1.0, 4), "rk4", 10, 1)


class TestGuard:
    """_guard passes every |y| <= 1e8 and fails anything past it, NaN and
    +-inf included, naming the first bad chain, the step and the time."""

    @staticmethod
    def _states(value):
        y = np.zeros((6, 2))
        y[4, 1] = value
        y[2, 0] = value
        return y

    @pytest.mark.parametrize("value", [1e8, -1e8])
    def test_limit_itself_passes(self, value):
        _guard(self._states(value), 0, 1.0)
        _guard(np.full((3, 1), value), 0, 1.0)

    @pytest.mark.parametrize("value", [np.nextafter(1e8, math.inf), -np.nextafter(1e8, math.inf),
                                       math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["y", "v"])
    def test_past_the_limit_fails_naming_chain_step_and_time(self, value, name):
        with pytest.raises(NonFiniteState) as info:
            _guard(self._states(value), 7, np.float64(0.375), name)
        exc = info.value
        assert (exc.chain, exc.step_index, exc.t_forward) == (2, 7, 0.375)
        assert str(exc) == f"chain 2 diverged ({name}) at step 7, forward time t = 0.375"


class TestStandardNormalInvariance:
    """With the exact score N(0, I) is every forward marginal of N(0, I), so
    all four samplers must return it, up to the CLT band and the O(h) bias
    of each scheme's stationary variance on s(y) = -y: Euler-Maruyama
    1/(1 - h/2), the exponential integrator (e^{2h} - 1)/(1 - (2 - e^h)^2),
    and the corrector steps h_c: the overdamped ULA 1/(1 - h_c/2), BAOAB
    exact in position for a Gaussian target (allowed h_c all the same). The
    probability-flow predictor is exact here: its drift y + s vanishes."""

    N = 20000
    H = 0.02

    @pytest.mark.parametrize("solver", ["em", "ei", "dpom", "dpum"])
    def test_mean_and_covariance_stay_standard(self, solver):
        d, n, h = 2, self.N, self.H
        model = make_score_model(standard_normal_spec(d))
        if solver in ("em", "ei"):
            batch = run_sampler(model, uniform_grid(2.0, round(2.0 / h)), solver, n, seed=17)
        else:
            batch = run_predictor_corrector(
                model, T=2.0, h_pred=h, h_corr=h / 4.0, corr_steps_per_node=2,
                variant="overdamped" if solver == "dpom" else "underdamped",
                n=n, seed=17)
        bias = {
            "em": 1.0 / (1.0 - h / 2.0) - 1.0,
            "ei": math.expm1(2.0 * h) / (1.0 - (2.0 - math.exp(h)) ** 2) - 1.0,
            "dpom": 1.0 / (1.0 - h / 8.0) - 1.0,
            "dpum": h / 4.0,
        }[solver]
        pts = batch.points
        mean = pts.mean(axis=0)
        cov = np.cov(pts, rowvar=False)
        var_max = 1.0 + bias
        assert np.all(np.abs(mean) <= 4.0 * math.sqrt(var_max / n)), mean
        diag = np.diag(cov)
        assert np.all(diag >= 1.0 - 4.0 * var_max * math.sqrt(2.0 / n)), diag
        assert np.all(diag <= var_max + 4.0 * var_max * math.sqrt(2.0 / n)), diag
        assert abs(cov[0, 1]) <= 4.0 * var_max / math.sqrt(n), cov


class TestPredictorCorrector:
    def test_pure_ode_on_stationary_law_is_invariant(self, std2d):
        # probability-flow drift y + s = y - y vanishes for the standard
        # normal, so with no correctors the state never moves
        model = make_score_model(std2d)
        batch = run_predictor_corrector(model, T=3.0, h_pred=0.05, h_corr=0.01,
                                        corr_steps_per_node=0, variant="overdamped",
                                        n=500, seed=12)
        rng = np.random.default_rng(12)
        init = rng.standard_normal((500, 2))
        np.testing.assert_allclose(batch.points, init, atol=1e-10)

    def test_overdamped_corrector_stationary_variance(self):
        # discrete ULA on a standard-normal target has stationary variance
        # 1/(1 - h/2); stay inside the [1 - 2h, 1 + 1e-2] acceptance band
        h = 0.008
        model = make_score_model(standard_normal_spec(1))
        rng = np.random.default_rng(21)
        y = rng.standard_normal((200000, 1))
        y = _corrector_overdamped(model, 1.0, y, h, 1000, rng)
        var = float(y.var(ddof=1))
        assert 1.0 - 2.0 * h <= var <= 1.0 + 1e-2

    def test_both_variants_recover_mixture(self, anchor):
        hist = default_histogram_grid(anchor, bins=60)
        for variant in ("overdamped", "underdamped"):
            model = make_score_model(anchor)
            batch = run_predictor_corrector(
                model, T=6.0, h_pred=6.0 / 512, h_corr=0.004,
                corr_steps_per_node=2, variant=variant, n=50000, seed=13)
            assert tv_histogram(batch, anchor, hist) <= 0.05, variant

    def test_deterministic(self, anchor):
        model = make_score_model(anchor)
        kwargs = dict(T=2.0, h_pred=0.1, h_corr=0.01, corr_steps_per_node=2,
                      variant="underdamped", n=100, seed=14)
        a = run_predictor_corrector(model, **kwargs)
        b = run_predictor_corrector(model, **kwargs)
        np.testing.assert_array_equal(a.points, b.points)

    def test_metadata_names_variant(self, anchor):
        model = make_score_model(anchor)
        batch = run_predictor_corrector(model, T=1.0, h_pred=0.25, h_corr=0.05,
                                        corr_steps_per_node=1, variant="underdamped",
                                        n=20, seed=15)
        assert batch.meta["solver"] == "dpum"

    @pytest.mark.parametrize("variant", ["overdamped", "underdamped"])
    @pytest.mark.parametrize("corr_steps", [1, 2])
    def test_one_marginal_per_node(self, anchor, monkeypatch, variant, corr_steps):
        # the corrector kicks and the next predictor share one time
        calls = []

        def counting(spec0, t):
            calls.append(t)
            return marginal_at(spec0, t)

        monkeypatch.setattr(gmdiff.solvers, "marginal_at", counting)
        n_steps = 12
        run_predictor_corrector(make_score_model(anchor), T=1.2, h_pred=0.1,
                                h_corr=0.02, corr_steps_per_node=corr_steps,
                                variant=variant, delta=0.0, n=50, seed=3)
        assert len(calls) == n_steps + 1

    def test_only_underdamped_guards_the_momentum(self, anchor, monkeypatch):
        # dpom draws v, which keeps its seeded stream, but never moves it
        names = []
        monkeypatch.setattr(gmdiff.solvers, "_guard",
                            lambda y, step, t, name="y": names.append(name))
        for variant in ("overdamped", "underdamped"):
            run_predictor_corrector(make_score_model(anchor), T=1.0, h_pred=0.25, h_corr=0.05,
                                    corr_steps_per_node=1, variant=variant, n=4, seed=1)
        assert names == ["y"] * 4 + ["y", "v"] * 4

    @pytest.mark.parametrize("bad", [math.nan, 1e15])
    def test_diverging_momentum_is_caught(self, anchor, bad):
        # only the closing half-kick of the last BAOAB step goes bad: the
        # position stays finite, so the momentum check alone must catch it
        exact = make_score_model(anchor)
        calls = []

        class LastKickBlowsUp:
            spec0, kind, epsilon0 = exact.spec0, exact.kind, exact.epsilon0

            def __call__(self, t, x):
                calls.append(t)
                s = exact(t, x)
                if len(calls) == 3:
                    s = s.copy()
                    s[[7, 9]] = bad
                return s

        with pytest.raises(NonFiniteState) as info:
            run_predictor_corrector(LastKickBlowsUp(), T=0.5, h_pred=0.5, h_corr=0.01,
                                    corr_steps_per_node=1, variant="underdamped",
                                    n=10, seed=2)
        assert info.value.step_index == 0
        assert info.value.chain == 7
        assert info.value.t_forward == 0.0
        assert "chain 7" in str(info.value) and "(v)" in str(info.value)
        assert len(calls) == 3

    def test_rejects_bad_arguments(self, anchor):
        model = make_score_model(anchor)
        base = dict(T=1.0, h_pred=0.1, h_corr=0.1, corr_steps_per_node=1,
                    variant="underdamped", n=4)
        for bad, error, name in [
            ({"h_pred": 0.0}, ValueError, "h_pred"),
            ({"variant": "dpom"}, ValueError, "variant"),
            ({"T": math.inf}, InvalidHorizon, "T must be"),
            ({"T": math.nan}, InvalidHorizon, "T must be"),
            ({"T": 0.0}, InvalidHorizon, "T must be"),
            ({"h_pred": math.nan}, ValueError, "h_pred"),
            ({"h_corr": math.inf}, ValueError, "h_corr"),
            ({"friction": -1.0}, ValueError, "friction"),
            ({"friction": math.nan}, ValueError, "friction"),
            ({"friction": math.inf}, ValueError, "friction"),
            ({"n": 0}, ValueError, "n must be"),
            # too many nodes to allocate, or a count past the float range
            ({"h_pred": 1e-300}, ValueError, r"h_pred=1e-300 needs 1e\+300 predictor nodes"),
            ({"h_pred": 5e-324}, ValueError, "h_pred=5e-324 needs inf predictor nodes"),
        ]:
            with pytest.raises(error, match=name):
                run_predictor_corrector(model, **(base | bad))

    def test_zero_friction_is_allowed(self, anchor):
        batch = run_predictor_corrector(make_score_model(anchor), T=1.0, h_pred=0.1,
                                        h_corr=0.05, corr_steps_per_node=1,
                                        variant="underdamped", friction=0.0, n=4)
        assert np.all(np.isfinite(batch.points))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e15])
    def test_diverging_position_names_step_time_and_chain(self, anchor, bad):
        # without correctors the second call is the predictor of node 1; it
        # goes bad on chains 5 and 3, and the guard right after it must say so
        exact = make_score_model(anchor)
        calls = []

        class SecondCallBlowsUp:
            spec0, kind, epsilon0 = exact.spec0, exact.kind, exact.epsilon0

            def __call__(self, t, x):
                calls.append(t)
                s = exact(t, x)
                if len(calls) == 2:
                    s = s.copy()
                    s[[5, 3]] = bad
                return s

        with pytest.raises(NonFiniteState) as info:
            run_predictor_corrector(SecondCallBlowsUp(), T=1.0, h_pred=0.25, h_corr=0.01,
                                    corr_steps_per_node=0, variant="overdamped",
                                    n=10, seed=4)
        exc = info.value
        assert (exc.step_index, exc.chain) == (1, 3)
        assert exc.t_forward == 0.5
        assert "step 1" in str(exc) and "chain 3" in str(exc) and "(y)" in str(exc)
        assert "0.5" in str(exc)
        assert calls == [1.0, 0.75]


def _sample_points(model, solver, corr_steps=2, n_steps=30):
    if solver in ("em", "ei"):
        return run_sampler(model, uniform_grid(3.0, n_steps), solver, 200, seed=6).points
    variant = "overdamped" if solver == "dpom" else "underdamped"
    return run_predictor_corrector(model, T=3.0, h_pred=3.0 / n_steps, h_corr=0.02,
                                   corr_steps_per_node=corr_steps, variant=variant,
                                   n=200, seed=6).points


class TestScoreMemoInSamplers:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["exact", "perturbed"])
    @pytest.mark.parametrize("solver", ["em", "ei", "dpom", "dpum"])
    def test_output_equals_memo_free_model(self, solver, kind, d):
        model = make_score_model(make_random_spec(d, 3, seed=20 + d), kind, 0.2, seed=5)
        np.testing.assert_array_equal(_sample_points(model, solver),
                                      _sample_points(_Recomputing(model), solver))

    # BAOAB: each node computes its first opening kick and every closing
    # kick; the next opening kick and the next predictor reuse the last one,
    # so only the first predictor adds to (c + 1) per node. Each reused
    # point was evaluated at the second call of its time or later, so it was
    # keyed. The other samplers move y between any two calls and never reuse.
    @pytest.mark.parametrize("solver, corr_steps, expected", [
        ("em", 0, 12), ("ei", 0, 12), ("dpom", 2, 3 * 12),
        ("dpum", 1, 2 * 12 + 1), ("dpum", 2, 3 * 12 + 1), ("dpum", 3, 4 * 12 + 1)])
    def test_scores_computed(self, anchor, monkeypatch, solver, corr_steps, expected):
        computed = []

        def counting(spec, x):
            computed.append(1)
            return score(spec, x)

        monkeypatch.setattr(gmdiff.solvers, "score", counting)
        model = make_score_model(anchor)
        _sample_points(model, solver, corr_steps, n_steps=12)
        assert len(computed) == expected
        if solver in ("em", "ei"):
            # a time never repeats, so no point is keyed and no score kept
            assert model._last[2:] == (None, None)

    def test_in_place_baoab_matches_out_of_place_reference(self):
        model = make_score_model(make_random_spec(2, 3, seed=30))
        rng = np.random.default_rng(31)
        y0, v0 = rng.normal(size=(50, 2)), rng.normal(size=(50, 2))
        inputs = (y0.copy(), v0.copy())
        h, friction, steps, t = 0.03, 2.0, 3, 0.7
        y, v = _corrector_underdamped(model, t, y0, v0, h, steps, friction,
                                      np.random.default_rng(32))
        ref_rng = np.random.default_rng(32)
        s = _Recomputing(model)
        c1 = math.exp(-friction * h)
        c2 = math.sqrt(-math.expm1(-2.0 * friction * h))
        ry, rv = y0, v0
        for _ in range(steps):
            rv = rv + 0.5 * h * s(t, ry)
            ry = ry + 0.5 * h * rv
            rv = c1 * rv + c2 * ref_rng.standard_normal(rv.shape)
            ry = ry + 0.5 * h * rv
            rv = rv + 0.5 * h * s(t, ry)
        np.testing.assert_array_equal(y, ry)
        np.testing.assert_array_equal(v, rv)
        np.testing.assert_array_equal(y0, inputs[0])
        np.testing.assert_array_equal(v0, inputs[1])


def _reference_run_sampler(model, grid, scheme, n, seed):
    """run_sampler as its own loop, before the samplers shared one."""
    step = gmdiff.solvers.step_em if scheme == "em" else gmdiff.solvers.step_ei
    rng = np.random.default_rng(seed)
    d = model.spec0.dim
    y = rng.standard_normal((n, d))
    rev = grid.reverse_points()
    T = grid.T
    noise = np.empty((n, d))
    for k in range(len(rev) - 1):
        h = rev[k + 1] - rev[k]
        s_val = model(T - rev[k], y)
        rng.standard_normal(out=noise)
        y = step(y, h, s_val, noise)
        _guard(y, k, T - rev[k + 1])
    meta = {
        "seed": int(seed), "solver": scheme, "grid": grid.describe(),
        "T": float(grid.T), "delta": float(grid.delta), "n": int(n),
        "score_kind": model.kind, "epsilon0": model.epsilon0,
    }
    return SampleBatch(points=y, meta=meta)


def _reference_predictor_corrector(model, T, h_pred, h_corr, corr_steps_per_node,
                                   variant, friction, delta, n, seed):
    """run_predictor_corrector as its own loop, before the samplers shared one."""
    rng = np.random.default_rng(seed)
    d = model.spec0.dim
    y = rng.standard_normal((n, d))
    v = rng.standard_normal((n, d))
    span = T - delta
    n_steps = max(1, math.ceil(span / h_pred - 1e-12))
    nodes = np.minimum(np.arange(n_steps + 1) * h_pred, span)
    nodes[-1] = span
    for k in range(n_steps):
        h = nodes[k + 1] - nodes[k]
        s_val = model(T - nodes[k], y)
        em1 = math.expm1(h)
        y = (1.0 + em1) * y + em1 * s_val
        t_fwd = T - nodes[k + 1]
        if corr_steps_per_node > 0:
            if variant == "overdamped":
                y = _corrector_overdamped(model, t_fwd, y, h_corr,
                                          corr_steps_per_node, rng)
            else:
                y, v = _corrector_underdamped(model, t_fwd, y, v, h_corr,
                                              corr_steps_per_node, friction, rng)
        _guard(y, k, t_fwd)
        if variant == "underdamped":
            _guard(v, k, t_fwd, "v")
    meta = {
        "seed": int(seed), "solver": "dpom" if variant == "overdamped" else "dpum",
        "grid": f"pc(h_pred={h_pred!r}, h_corr={h_corr!r}, "
                f"corr_steps={corr_steps_per_node}, friction={friction!r})",
        "T": float(T), "delta": float(delta), "n": int(n),
        "score_kind": model.kind, "epsilon0": model.epsilon0,
    }
    return SampleBatch(points=y, meta=meta)


_LOOP_CASES = (
    [(s, d, kind, delta, 0) for s in ("em", "ei") for d in (1, 2)
     for kind in ("exact", "perturbed") for delta in (0.0, 0.05)]
    + [(s, d, kind, delta, c) for s in ("dpom", "dpum") for d in (1, 2)
       for kind in ("exact", "perturbed") for delta in (0.0, 0.05) for c in (0, 2)])


@pytest.mark.parametrize("solver, d, kind, delta, corr_steps", _LOOP_CASES)
def test_shared_loop_matches_reference_loops(solver, d, kind, delta, corr_steps):
    # same points to the bit and the same meta, keys in the same order
    spec = make_random_spec(d, 3, seed=40 + d)
    model = make_score_model(spec, kind, 0.3, seed=8)
    if solver in ("em", "ei"):
        grid = uniform_grid(2.5, 24, delta)
        got = run_sampler(model, grid, solver, 150, seed=9)
        ref = _reference_run_sampler(model, grid, solver, 150, seed=9)
    else:
        args = (2.5, 0.11, 0.03, corr_steps,
                "overdamped" if solver == "dpom" else "underdamped", 1.7, delta, 150, 9)
        got = run_predictor_corrector(model, *args)
        ref = _reference_predictor_corrector(model, *args)
    np.testing.assert_array_equal(got.points, ref.points)
    assert list(got.meta.items()) == list(ref.meta.items())


_FAULT_SETUP = ("from gmdiff import (lipschitz_suite, make_score_model, run_predictor_corrector,\n"
                "    run_sampler, standard_mixture_1d, uniform_grid)\n"
                "N = int(sys.argv[1])")
# the c08 shape: EI, perturbed score, anchor spec
_EI_RUN = ("run_sampler(make_score_model(standard_mixture_1d(), 'perturbed', 0.1, seed=1),\n"
           "            uniform_grid(6.0, N), 'ei', 12000, 1)")
_DPUM_RUN = ("run_predictor_corrector(make_score_model(lipschitz_suite(2024)[5]), 6.0, 6.0 / N,\n"
             "                        1.5 / N, 2, 'underdamped', n=12000, seed=1)")


def _faults_per_step(run, **env):
    # the difference of two run lengths cancels imports and set-up
    low, high = (minor_faults(_FAULT_SETUP, run, N, **env) for N in (64, 320))
    return (high - low) / 256


@glibc_only
class TestFreedHeapInLibrary:
    def test_run_sampler_steps_do_not_refault_the_heap(self):
        # glibc's default trimming costs about 136 faults per step here
        assert _faults_per_step(_EI_RUN) < 10

    def test_predictor_corrector_nodes_do_not_refault_the_heap(self):
        # about 1,870 faults per node with glibc's default trimming
        assert _faults_per_step(_DPUM_RUN) < 10

    def test_user_trim_threshold_still_wins(self):
        # a threshold the user set switches glibc's dynamic rule off
        assert _faults_per_step(_EI_RUN, MALLOC_TRIM_THRESHOLD_="131072") > 50
