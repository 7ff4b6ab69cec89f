"""Reverse-process samplers driven by exact or perturbed mixture scores.

Schemes: an Euler step and an exponential-integrator step for the reverse
SDE, plus a predictor-corrector family (deterministic probability-flow
predictor with overdamped or underdamped Langevin correctors). The
corrector internals follow the standard probability-flow + Langevin
construction; only the (T, h_pred, h_corr, s) call shape is contractual.

All four schemes share one reverse-time loop over nodes from 0 to
T - delta (the TimeGrid's reverse points, or min(k h_pred, T - delta) for
predictor-corrector) and supply only their advance function. All chains
advance together as one (n, d) array; a run consumes a single seeded
generator, so identical arguments give bit-identical output no matter how
the caller schedules work across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .errors import NegativeEpsilon, NonFiniteParameter, NonFiniteState
from .forward import marginal_at
from .mixture import GmmSpec, sample_array, score
from .samples import SampleBatch
from .schedules import TimeGrid, check_grid_args

_DIVERGENCE_LIMIT = 1e8
# corrector steps one predictor-corrector run may ask for, over all nodes:
# each step evaluates the score on every chain, so even at 1000 chains and
# d = 2 (about 0.1 ms a step) the limit is hours of work
_MAX_CORRECTOR_STEPS = 10 ** 8
_FOURIER_FEATURES = 64
# chains per field block: the (64, block) float32 argument is 1 MB and stays
# in cache (8192 and more columns were slower than no blocks at all)
_FIELD_BLOCK = 4096
# bound on the d = 1 lattice's cubic-interpolation error, about 20x below
# the float32 rounding of the direct field evaluation
_LATTICE_TOL = 1e-7
# bytes of the block _reverse_loop frees before its first step: a 1 MiB
# block still left hundreds of faults per step at d = 2, n = 12000 and at
# d = 1, n >= 60000; numpy advises huge pages from 4 MiB on
_FREED_BLOCK = (4 << 20) - 4096


@dataclass(frozen=True, eq=False)
class FourierField:
    """Seed-determined smooth vector field with unit root-mean-square norm.

    Random Fourier features: u(x, t) = sqrt(2) * cos(x W^T + t w + phi) A^T
    with frequencies of bandwidth 1 and the amplitude matrix scaled to unit
    Frobenius norm, so E|u(x,t)|^2 is about 1 over any comparably scaled
    probe distribution.

    At d = 1 the field at a fixed t is evaluated on the lattice h Z over the
    chains' range and interpolated at each chain by the cubic through the
    four surrounding nodes, so a batch costs one cosine row per node instead
    of one per chain. The cubic's error is at most (3/128) h^4 max|u^(4)|
    with max|u^(4)| <= sqrt(2) sum_j |A_j| W_j^4; h is chosen from the
    field's own constants to make that bound 1e-7, well below the float32
    rounding of the direct evaluation. Nodes sit at integer multiples of h,
    so the nodes that serve a chain depend only on its x, not on the rest
    of the batch. The direct per-chain evaluation serves d >= 2, batches
    with NaN or infinite x, and batches whose lattice would need more than
    n/4 nodes.
    """

    freq: np.ndarray     # (m, d + 2): [W | w | phi]
    amp: np.ndarray      # (d, m)

    @classmethod
    def create(cls, dim: int, seed: int) -> "FourierField":
        rng = np.random.default_rng(seed)
        freq_x = rng.standard_normal((_FOURIER_FEATURES, dim))
        freq_t = rng.standard_normal(_FOURIER_FEATURES)
        phase = rng.uniform(0.0, 2.0 * np.pi, _FOURIER_FEATURES)
        # random directions with equal per-feature energy: realized RMS then
        # concentrates tightly around 1 instead of fluctuating with the
        # handful of features a raw Gaussian amplitude matrix favors
        amp = rng.standard_normal((dim, _FOURIER_FEATURES))
        amp /= np.linalg.norm(amp, axis=0, keepdims=True) * math.sqrt(_FOURIER_FEATURES)
        freq = np.column_stack([freq_x, freq_t, phase]).astype(np.float32)
        return cls(freq=freq, amp=amp.astype(np.float32))

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        n, d = x.shape
        # a lattice has at least 4 nodes, and one of more than n/4 nodes
        # would save little; NaN or inf in x, or an overflowing quotient, is
        # caught before the floor
        if d == 1 and n >= 16 and math.isfinite(self._lattice_step):
            inv_h = 1.0 / self._lattice_step
            lo, hi = float(x.min()) * inv_h, float(x.max()) * inv_h
            if math.isfinite(lo) and math.isfinite(hi):
                k_lo, k_hi = math.floor(lo), math.floor(hi)
                if k_hi - k_lo + 4 <= n / 4:
                    return self._lattice(x, t, inv_h, k_lo, k_hi)
        return self._direct(x, t)

    @cached_property
    def _lattice_step(self) -> float:
        """Node spacing h at which the cubic's error bound is _LATTICE_TOL
        (inf for a vanishing field)."""
        w = self.freq[:, 0].astype(np.float64)
        max_u4 = math.sqrt(2.0) * float(np.abs(self.amp[0]).astype(np.float64) @ w**4)
        if max_u4 == 0.0:
            return math.inf
        return (_LATTICE_TOL / (3.0 / 128.0 * max_u4)) ** 0.25

    def _lattice(self, x: np.ndarray, t: float, inv_h: float, k_lo: int,
                 k_hi: int) -> np.ndarray:
        # node values f(k h) for k = k_lo - 1 .. k_hi + 2: the chains in
        # [k h, (k + 1) h) take the cubic through nodes k - 1 .. k + 2
        nodes = np.arange(k_lo - 1, k_hi + 3) * self._lattice_step
        f = self._direct(nodes[:, None], t)[:, 0]
        a, b, c, e = f[:-3], f[1:-2], f[2:-1], f[3:]
        # Lagrange cubic through (-1, a), (0, b), (1, c), (2, e), one entry
        # per interval in Horner order: ((c3 s + c2) s + c1) s + b
        c3 = (e - a) / 6.0 + (b - c) / 2.0
        c2 = (a + c) / 2.0 - b
        c1 = c - b / 2.0 - a / 3.0 - e / 6.0
        s = np.multiply(x[:, 0], inv_h, dtype=float)
        k = np.floor(s)
        s -= k
        idx = k.astype(np.intp)
        idx -= k_lo
        # k floors the float64 products x inv_h that gave k_lo and k_hi, so
        # every index is in range: "clip" changes none and, unlike "raise",
        # makes no copy of out. The coefficients are gathered one at a time into k
        out = np.take(c3, idx, mode="clip")
        for coef in (c2, c1, b):
            out *= s
            out += np.take(coef, idx, out=k, mode="clip")
        return out[:, None]

    def _direct(self, x: np.ndarray, t: float) -> np.ndarray:
        # single precision throughout: the field is an O(1) perturbation, so
        # its 1e-7 rounding is invisible next to epsilon0, and float32 cos is
        # an order of magnitude faster. Feature-major: the argument
        # W x + w t + phi is one gemm against the rows [x^T; t; 1], taken
        # over blocks of chains so the (m, block) argument stays in cache.
        n, d = x.shape
        m = self.freq.shape[0]
        block = max(1, min(n, _FIELD_BLOCK))
        operand_buf = np.empty((d + 2) * block, dtype=np.float32)
        arg_buf = np.empty(m * block, dtype=np.float32)
        out = np.empty((n, d))
        for lo in range(0, n, block):
            cols = min(block, n - lo)
            operand = operand_buf[:(d + 2) * cols].reshape(d + 2, cols)
            operand[:d] = x[lo:lo + cols].T
            operand[d] = t
            operand[d + 1] = 1.0
            arg = np.matmul(self.freq, operand, out=arg_buf[:m * cols].reshape(m, cols))
            np.cos(arg, out=arg)
            out[lo:lo + cols] = (math.sqrt(2.0) * (self.amp @ arg)).T
        return out

    def rescaled(self, factor: float) -> "FourierField":
        return FourierField(freq=self.freq, amp=self.amp * np.float32(factor))


@dataclass(frozen=True, eq=False)
class ScoreModel:
    """Evaluates s_t(x) for the forward marginal of spec0 at time t.

    epsilon0 is the score error applied. kind "exact" returns the analytic
    mixture score, with epsilon0 = 0.0; kind "perturbed" adds epsilon0 times
    a fixed unit-RMS Fourier field, so the grid-weighted mean-squared score
    error is epsilon0^2 up to Monte-Carlo accuracy.

    The last evaluation is kept as one (t, spec_t, x_key, s) tuple. A call
    at the same t reuses the marginal (the corrector kicks and the next
    predictor share a time); one whose x also has the same shape, dtype and
    bytes (so +0.0 and -0.0 differ) returns the stored score (the closing
    BAOAB kick and the next kick or predictor share a point). Points are
    keyed only when a time repeats: the first call at a new t keeps
    (t, spec_t, None, None) and returns its fresh score as is, so EM and EI,
    which never repeat a time, build no key and copy nothing. BAOAB loses
    no hit, because every point it repeats was evaluated at the second call
    of its time or later: the closing kick of step j at the opening kick of
    step j + 1, the last closing kick at the next predictor. The key is a
    private copy of x and every call returns a fresh C-contiguous array, so
    mutating the argument or the result cannot corrupt the memo. The tuple
    is written in one step: threads sharing a model always read a
    consistent entry.
    """

    spec0: GmmSpec
    epsilon0: float
    field: FourierField | None
    _last: tuple | None = dataclass_field(default=None, init=False, repr=False)

    @property
    def kind(self) -> str:
        return "exact" if self.field is None else "perturbed"

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        last = self._last
        repeat = last is not None and last[0] == t
        if repeat:
            x_key = (x.shape, x.dtype, x.tobytes())
            if x_key == last[2]:
                return last[3].copy()
            spec_t = last[1]
        else:
            spec_t = marginal_at(self.spec0, t)
        s = score(spec_t, x)
        if self.field is not None:
            u = self.field(np.atleast_2d(x), t).reshape(s.shape)
            u *= self.epsilon0
            s += u
        s = np.ascontiguousarray(s)
        if not repeat:
            object.__setattr__(self, "_last", (t, spec_t, None, None))
            return s
        object.__setattr__(self, "_last", (t, spec_t, x_key, s))
        return s.copy()


_PROBE_HORIZON = 8.0
_PROBE_NODES = 16


def check_epsilon0(epsilon0: float) -> None:
    """Reject a score error epsilon0 that is not finite and >= 0."""
    if not math.isfinite(epsilon0):
        raise NonFiniteParameter(f"epsilon0 must be finite, got {epsilon0!r}")
    if epsilon0 < 0.0:
        raise NegativeEpsilon(f"epsilon0 must be >= 0, got {epsilon0!r}")


def make_score_model(spec0: GmmSpec, kind: str = "exact", epsilon0: float = 0.0,
                     seed: int | None = None) -> ScoreModel:
    """The one rule that picks the kind: perturbed with error epsilon0 when
    kind is "perturbed" and epsilon0 > 0, else exact with epsilon0 = 0.0.

    The perturbation field is normalized to unit RMS against probe points
    drawn from the forward marginals of spec0, time-averaged uniformly over
    a canonical horizon (seed-determined draws), so the grid-weighted
    mean-squared score error lands on epsilon0^2 regardless of which few
    features the random draw happens to favor.
    """
    check_epsilon0(epsilon0)
    if kind not in ("exact", "perturbed"):
        raise ValueError(f"kind must be 'exact' or 'perturbed', got {kind!r}")
    field = None
    if kind == "perturbed" and epsilon0 != 0.0:
        field_seed = 0 if seed is None else seed
        field = FourierField.create(spec0.dim, seed=field_seed)
        probe_rng = np.random.default_rng([field_seed, 0xF1E1D])
        mean_sq = 0.0
        for j in range(_PROBE_NODES):
            t = (j + 0.5) / _PROBE_NODES * _PROBE_HORIZON
            x = sample_array(marginal_at(spec0, t), 1500, probe_rng)
            u = field(x, t)
            mean_sq += float(np.mean(np.sum(u * u, axis=1)))
        field = field.rescaled(1.0 / math.sqrt(mean_sq / _PROBE_NODES))
    return ScoreModel(spec0, float(epsilon0) if field is not None else 0.0, field)


def step_em(y: np.ndarray, h: float, s_val: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One Euler step of the reverse SDE with the score frozen at the left node:

    y + h (y + 2 s) + sqrt(2 h) xi
    """
    out = (1.0 + h) * y
    scratch = np.multiply(2.0 * h, s_val)
    out += scratch
    out += np.multiply(math.sqrt(2.0 * h), noise, out=scratch)
    return out


def step_ei(y: np.ndarray, h: float, s_val: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One exponential-integrator step: the linear drift is integrated exactly
    with the score frozen at the left node:

    e^h y + 2 (e^h - 1) s + sqrt(e^{2h} - 1) xi

    The noise variance e^{2h} - 1 is the Ito integral of 2 e^{2(h-u)} over
    the step.
    """
    em1 = math.expm1(h)
    out = (1.0 + em1) * y
    scratch = np.multiply(2.0 * em1, s_val)
    out += scratch
    out += np.multiply(math.sqrt(math.expm1(2.0 * h)), noise, out=scratch)
    return out


def _guard(y: np.ndarray, step_index: int, t_forward: float, name: str = "y") -> None:
    # two reductions and no |y| temporary: a NaN propagates through both
    # and fails the comparison, +-inf exceeds the limit; the failing chain
    # is located only once the check has failed
    if not (y.max() <= _DIVERGENCE_LIMIT and y.min() >= -_DIVERGENCE_LIMIT):
        chain = int(np.argmin(np.all(np.abs(y) <= _DIVERGENCE_LIMIT, axis=1)))
        raise NonFiniteState(
            f"chain {chain} diverged ({name}) at step {step_index}, "
            f"forward time t = {float(t_forward)!r}",
            step_index=step_index, t_forward=float(t_forward), chain=chain)


def _reverse_loop(model: ScoreModel, T: float, rev: np.ndarray, advance, n: int,
                  seed: int, meta: dict, momentum: bool = False) -> SampleBatch:
    """Walk the reverse-time nodes rev from a standard-normal y, then v if
    momentum is set. advance(y, v, h, s, t_next, rng) takes the score s at
    forward time T - rev[k] to the state at forward time t_next, where y and
    a present v are guarded. meta gains n, score_kind and epsilon0.

    Before the first step the loop allocates and drops one untouched block
    of _FREED_BLOCK bytes. It relies on glibc's dynamic M_MMAP_THRESHOLD
    rule on purpose: freeing that mmapped block raises the mmap threshold to
    its size and the trim threshold to twice that, so the few MB of
    temporaries each step frees stay in the heap instead of going back to
    the kernel and faulting in again on the next step. glibc does this once
    per process and not at all when the user set a threshold; on other
    allocators the block is a harmless allocation.

    The steps run with numpy's overflow and invalid-value warnings off: a
    chain that overflows inside a node (in the corrector, the field's cast
    and cosine, the posterior's log terms) is reported by _guard alone, as
    NonFiniteState, without a RuntimeWarning before it."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    np.empty(_FREED_BLOCK, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, model.spec0.dim))
    v = rng.standard_normal(y.shape) if momentum else None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(rev) - 1):
            t_next = T - rev[k + 1]
            y, v = advance(y, v, rev[k + 1] - rev[k], model(T - rev[k], y), t_next, rng)
            _guard(y, k, t_next)
            if v is not None:
                _guard(v, k, t_next, "v")
    meta.update(n=int(n), score_kind=model.kind, epsilon0=model.epsilon0)
    return SampleBatch(points=y, meta=meta)


def run_sampler(model: ScoreModel, grid: TimeGrid, scheme: str, n: int,
                seed: int) -> SampleBatch:
    """Integrate the reverse SDE from a standard-normal start over the grid.

    Reverse times are t'_k = T - t_{N-k}; the score is always evaluated at
    the left node of each interval, at forward time t_{N-k}. Returns the
    state at reverse time T - delta.
    """
    if scheme not in ("em", "ei"):
        raise ValueError(f"scheme must be 'em' or 'ei', got {scheme!r}")
    step = step_em if scheme == "em" else step_ei
    noise = np.empty((max(n, 0), model.spec0.dim))  # the loop rejects n < 1

    def advance(y, v, h, s_val, t_next, rng):
        rng.standard_normal(out=noise)
        return step(y, h, s_val, noise), v

    meta = {"seed": int(seed), "solver": scheme, "grid": grid.describe(),
            "T": float(grid.T), "delta": float(grid.delta)}
    return _reverse_loop(model, grid.T, grid.reverse_points(), advance, n, seed, meta)


def _corrector_overdamped(model: ScoreModel, t_fwd: float, y: np.ndarray,
                          h: float, steps: int, rng: np.random.Generator) -> np.ndarray:
    for _ in range(steps):
        noise = rng.standard_normal(y.shape)
        y = y + h * model(t_fwd, y) + math.sqrt(2.0 * h) * noise
    return y


def _corrector_underdamped(model: ScoreModel, t_fwd: float, y: np.ndarray,
                           v: np.ndarray, h: float, steps: int, friction: float,
                           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # BAOAB splitting of kinetic Langevin at unit temperature and mass
    c1 = math.exp(-friction * h)
    c2 = math.sqrt(-math.expm1(-2.0 * friction * h))
    half = 0.5 * h
    y, v = y.copy(), v.copy()
    for _ in range(steps):
        v += half * model(t_fwd, y)
        y += half * v
        v *= c1
        v += c2 * rng.standard_normal(v.shape)
        y += half * v
        v += half * model(t_fwd, y)
    return y, v


def check_corrector_args(h_pred: float, h_corr: float, corr_steps_per_node: int,
                         friction: float) -> None:
    """Reject step sizes that are not positive and finite, a negative
    corrector step count, or a friction that is not finite and >= 0."""
    for name, value in (("h_pred", h_pred), ("h_corr", h_corr)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if not (math.isfinite(friction) and friction >= 0.0):
        raise ValueError(f"friction must be finite and >= 0, got {friction!r}")
    if corr_steps_per_node < 0:
        raise ValueError("corr_steps_per_node must be >= 0")


def run_predictor_corrector(model: ScoreModel, T: float, h_pred: float,
                            h_corr: float, corr_steps_per_node: int,
                            variant: str, friction: float = 2.0,
                            delta: float = 0.0, n: int = 1,
                            seed: int = 0) -> SampleBatch:
    """Probability-flow predictor with Langevin correctors.

    The predictor integrates dy = (y + s_{T-t}(y)) dt in exponential form
    e^h y + (e^h - 1) s over reverse-time steps of size h_pred (final step
    truncated to land on T - delta). After each predictor step the corrector
    runs corr_steps_per_node Langevin steps targeting the marginal at that
    node: plain overdamped steps, or BAOAB kinetic steps with the given
    friction and momentum initialized standard normal.
    """
    if variant not in ("overdamped", "underdamped"):
        raise ValueError(f"variant must be 'overdamped' or 'underdamped', got {variant!r}")
    check_grid_args(T, 1, delta)
    check_corrector_args(h_pred, h_corr, corr_steps_per_node, friction)
    span = T - delta
    count = span / h_pred
    try:
        n_steps = max(1, math.ceil(count - 1e-12))
        nodes = np.minimum(np.arange(n_steps + 1) * h_pred, span)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ValueError(f"h_pred={h_pred!r} needs {count:.6g} predictor nodes over "
                         f"a span of {span!r}, more than can be allocated ({exc})") from exc
    nodes[-1] = span
    if n_steps * corr_steps_per_node > _MAX_CORRECTOR_STEPS:
        raise ValueError(f"corr_steps_per_node={corr_steps_per_node} at {n_steps} predictor "
                         f"nodes asks for {n_steps * corr_steps_per_node} corrector steps, "
                         f"more than the limit of {_MAX_CORRECTOR_STEPS}")

    def advance(y, v, h, s_val, t_next, rng):
        em1 = math.expm1(h)
        y = (1.0 + em1) * y + em1 * s_val
        if variant == "overdamped":
            return _corrector_overdamped(model, t_next, y, h_corr,
                                         corr_steps_per_node, rng), None
        return _corrector_underdamped(model, t_next, y, v, h_corr,
                                      corr_steps_per_node, friction, rng)

    meta = {"seed": int(seed), "solver": "dpom" if variant == "overdamped" else "dpum",
            "grid": f"pc(h_pred={h_pred!r}, h_corr={h_corr!r}, "
                    f"corr_steps={corr_steps_per_node}, friction={friction!r})",
            "T": float(T), "delta": float(delta)}
    # dpom draws the momentum too, which keeps its seeded stream fixed
    return _reverse_loop(model, T, nodes, advance, n, seed, meta, momentum=True)
