"""Exact density, score, score Jacobian, and sampling for Gaussian mixtures.

All per-component quantities are computed in log space and combined with
log-sum-exp, so well-separated components (60 sigma and beyond) never
underflow intermediate products. The one exception is the product-mesh
density behind the histogram reference, which sums its terms in linear
space (see _mesh_density). Covariances are eigendecomposed once at
validation time and judged positive definite on those eigenvalues alone;
singular (PSD-but-rank-deficient) matrices are rejected, not regularized.

Every pointwise operation accepts either a single point of shape (d,)
or a batch of shape (n, d) and vectorizes over the batch in blocks of
2**16 // (k d) points, so the memory it needs beyond its output grows
neither with n nor with d.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyMixture,
    MalformedSpec,
    NonFiniteParameter,
    NonSymmetricCovariance,
    NotPositiveDefinite,
    WeightsDoNotSumToOne,
)
from .samples import SampleBatch

_SYM_TOL = 1e-10
_WEIGHT_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# elements of each (k, d, block) kernel temporary: 512 KB whatever the
# batch size and the dimension
_BLOCK_ELEMENTS = 2 ** 16


@dataclass(frozen=True, eq=False)
class GmmSpec:
    """A validated k-component Gaussian mixture in dimension d.

    Stacked parameter arrays plus one cached eigendecomposition of the
    covariances, Sigma_i = Q_i diag(lam_i) Q_i^T, and the precisions and
    log-determinants read off it. Construct through :func:`validate_spec`
    or :meth:`from_eigh`; the caches are trusted everywhere downstream.
    """

    dim: int
    weights: np.ndarray     # (k,)
    means: np.ndarray       # (k, d)
    covs: np.ndarray        # (k, d, d)
    eigvals: np.ndarray     # (k, d), ascending, positive
    eigvecs: np.ndarray     # (k, d, d), orthonormal columns
    inv_covs: np.ndarray    # (k, d, d)
    log_dets: np.ndarray    # (k,)

    @classmethod
    def from_eigh(cls, weights: np.ndarray, means: np.ndarray, covs: np.ndarray,
                  eigvals: np.ndarray, eigvecs: np.ndarray) -> "GmmSpec":
        """The spec with covs = Q diag(lam) Q^T, built without factorizing:
        precisions Q diag(1/lam) Q^T (symmetrized), log-dets sum log lam.
        The one positive-definiteness decision: NotPositiveDefinite unless
        lam_min > max(d eps lam_max, tiny) for every component (a NaN fails),
        that is numpy.linalg.matrix_rank's tolerance and a finite 1/lam."""
        floor = np.maximum(means.shape[1] * _EPS * eigvals[:, -1], _TINY)
        if not (eigvals[:, 0] > floor).all():
            i = int(np.argmin(eigvals[:, 0] > floor))
            raise NotPositiveDefinite(f"component {i}: covariance is not positive definite: "
                                      f"eigenvalue {eigvals[i, 0]:.3g} <= {floor[i]:.3g}")
        inv_covs = (eigvecs / eigvals[:, None, :]) @ np.swapaxes(eigvecs, 1, 2)
        inv_covs = 0.5 * (inv_covs + np.swapaxes(inv_covs, 1, 2))
        return cls(dim=means.shape[1], weights=weights, means=means, covs=covs,
                   eigvals=eigvals, eigvecs=eigvecs, inv_covs=inv_covs,
                   log_dets=np.log(eigvals).sum(axis=1))

    @property
    def k(self) -> int:
        return len(self.weights)

    @cached_property
    def chols(self) -> np.ndarray:
        """Lower Cholesky factors, (k, d, d); only sampling reads them."""
        return np.linalg.cholesky(self.covs)

    @cached_property
    def log_norms(self) -> np.ndarray:
        """log alpha_i - (d/2) log(2 pi) - (1/2) log det Sigma_i, per component."""
        return (np.log(self.weights)
                - 0.5 * self.dim * np.log(2.0 * np.pi)
                - 0.5 * self.log_dets)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "components": [
                {"weight": float(w), "mean": [float(v) for v in m],
                 "cov": [[float(v) for v in row] for row in c]}
                for w, m, c in zip(self.weights, self.means, self.covs)
            ],
        }


def validate_spec(raw) -> GmmSpec:
    """Validate proposed mixture parameters and build the cached spec.

    Accepts either a mapping with keys ``dim`` and ``components`` (the
    on-disk format, each component ``{weight, mean, cov}``) or an iterable
    of ``(weight, mean, cov)`` triples with the dimension inferred.

    Raises MalformedSpec, EmptyMixture, NonFiniteParameter,
    DimensionMismatch, NonSymmetricCovariance, NotPositiveDefinite or
    WeightsDoNotSumToOne on bad input.
    """
    declared_dim = raw.get("dim") if isinstance(raw, Mapping) else None
    try:
        triples = ([_mapped_triple(i, c) for i, c in enumerate(raw.get("components", []))]
                   if isinstance(raw, Mapping) else [tuple(item) for item in raw])
    except TypeError:
        raise MalformedSpec('a spec is {"dim": d, "components": [{"weight", "mean", '
                            '"cov"}, ...]} or a list of (weight, mean, cov) triples') from None

    if len(triples) == 0:
        raise EmptyMixture("mixture must have at least one component")

    weights, means, covs = [], [], []
    for i, item in enumerate(triples):
        if len(item) != 3:
            raise MalformedSpec(f"component {i}: expected a (weight, mean, cov) triple, "
                                f"got {reprlib.repr(item)}")
        w, m, c = item
        weights.append(_spec_field(i, "weight", w))
        if weights[-1].ndim != 0:
            raise MalformedSpec(f"component {i}: weight must be a number, got {reprlib.repr(w)}")
        means.append(np.atleast_1d(_spec_field(i, "mean", m)))
        covs.append(np.atleast_2d(_spec_field(i, "cov", c)))
    weights = np.array(weights)

    d = means[0].shape[0]
    if declared_dim not in (None, d):
        raise DimensionMismatch(
            f"declared dim {declared_dim!r} but component 0 mean has length {d}")
    for i, (m, c) in enumerate(zip(means, covs)):
        if m.shape != (d,):
            raise DimensionMismatch(f"component {i}: mean has shape {m.shape}, expected ({d},)")
        if c.shape != (d, d):
            raise DimensionMismatch(f"component {i}: cov has shape {c.shape}, expected ({d},{d})")

    if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
        raise WeightsDoNotSumToOne(f"weights sum to {weights.sum()!r}, expected 1")
    if np.any(weights <= 0.0):
        # with the sum within _WEIGHT_TOL of 1, no positive weight exceeds 1 + _WEIGHT_TOL
        raise WeightsDoNotSumToOne(f"each weight must lie in (0,1], got {weights!r}")

    means, covs = np.stack(means), np.stack(covs)
    asym = np.max(np.abs(covs - np.swapaxes(covs, 1, 2)), axis=(1, 2)) > _SYM_TOL
    if asym.any():
        raise NonSymmetricCovariance(
            f"component {int(np.argmax(asym))}: covariance is not symmetric")
    # the closed forms read these sums; each must stay in the double range
    with np.errstate(over="ignore"):
        covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
        _check_in_range("cov (symmetrized)", np.abs(covs).max(axis=(1, 2)))
        _check_in_range("|mean|^2 + tr(cov)",
                        np.sum(means ** 2, axis=1) + np.trace(covs, axis1=1, axis2=2))
        eigvals, eigvecs = np.linalg.eigh(covs)
        # the closed-form KL bound adds the largest |mean|^2, maybe another component's
        _check_in_range("d * largest cov eigenvalue + largest |mean|^2",
                        d * eigvals[:, -1] + np.sum(means ** 2, axis=1).max())
    return GmmSpec.from_eigh(weights, means, covs, eigvals, eigvecs)


def _check_in_range(what: str, per_component: np.ndarray) -> None:
    """NonFiniteParameter naming the first component whose `what` overflows."""
    bad = ~np.isfinite(per_component)
    if bad.any():
        raise NonFiniteParameter(f"component {int(np.argmax(bad))}: {what} overflows "
                                 "the double range")


def _mapped_triple(i: int, c) -> tuple:
    """(weight, mean, cov) of on-disk component i; a missing key is MalformedSpec."""
    try:
        return c["weight"], c["mean"], c["cov"]
    except KeyError as exc:
        raise MalformedSpec(f"component {i}: missing field {exc.args[0]!r}") from None


def _spec_field(i: int, name: str, value) -> np.ndarray:
    """Field `name` of component i as a finite float array; raises
    MalformedSpec or NonFiniteParameter naming the component and field."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise MalformedSpec(f"component {i}: {name} must be a number or nested lists "
                            f"of numbers, got {reprlib.repr(value)}") from None
    if not np.all(np.isfinite(arr)):
        raise NonFiniteParameter(f"component {i}: {name} must be finite")
    return arr


def _check_points(spec: GmmSpec, x) -> tuple[np.ndarray, bool]:
    """Coerce x to a (n, d) float array; return it and whether input was 1-D."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != spec.dim:
        raise DimensionMismatch(
            f"points have shape {np.asarray(x).shape}, expected (*, {spec.dim})")
    return x, single


def _block_points(spec: GmmSpec) -> int:
    """Points per kernel call, so each (k, d, block) temporary holds at most
    _BLOCK_ELEMENTS numbers (and at least one point)."""
    return max(1, _BLOCK_ELEMENTS // (spec.k * spec.dim))


def _blockwise(spec: GmmSpec, x, kernel, shape: tuple = ()) -> np.ndarray:
    """Apply kernel(spec, pts) -> (m, *shape) to blocks of at most
    _block_points(spec) points of x and gather the results in one
    (n, *shape) array; a single point of shape (d,) gives the (*shape)
    result for that point."""
    pts, single = _check_points(spec, x)
    n = pts.shape[0]
    block = _block_points(spec)
    if n <= block:
        # one block needs no gathering: copying the transposed kernel
        # result adds about 4% to a 1000-point score call
        out = kernel(spec, pts)
    else:
        out = np.empty((n, *shape))
        for lo in range(0, n, block):
            out[lo:lo + block] = kernel(spec, pts[lo:lo + block])
    return out[0] if single else out


def _posterior(spec: GmmSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component-major log terms and pulls at the points.

    Returns logs of shape (k, n), log alpha_i N(x; mu_i, Sigma_i), and
    pulls of shape (k, d, n), g_i(x) = -Sigma_i^{-1}(x - mu_i). The point
    axis is innermost, so every elementwise step runs over contiguous rows
    of length n rather than rows of length d. The pulls come from one
    batched matmul over the stacked precisions; the quadratic form reuses
    them.
    """
    diff = spec.means[:, :, None] - np.ascontiguousarray(pts.T)     # (k, d, n)
    if spec.dim == 1:
        # the batched (k, 1, 1) @ (k, 1, n) matmul does not reach BLAS; the
        # broadcast product gives the same bits at about a third of the cost.
        # The quadratic form is one product, written over the differences;
        # einsum never warned when a far point's term overflows, so neither does it
        pulls = spec.inv_covs * diff
        with np.errstate(over="ignore"):
            logs = np.multiply(diff[:, 0], pulls[:, 0], out=diff[:, 0])
    else:
        pulls = np.matmul(spec.inv_covs, diff)
        logs = np.einsum("kdn,kdn->kn", diff, pulls)
    logs *= -0.5
    logs += spec.log_norms[:, None]
    return logs, pulls


def _normalized(logs: np.ndarray) -> np.ndarray:
    """Posterior weights f_i from the (k, n) log terms, computed in place of
    them; exactly 1 when k = 1."""
    logs -= logs.max(axis=0)
    np.exp(logs, out=logs)
    logs /= logs.sum(axis=0)
    return logs


def _log_density_block(spec: GmmSpec, pts: np.ndarray) -> np.ndarray:
    logs = _posterior(spec, pts)[0]
    top = logs.max(axis=0)
    top[~np.isfinite(top)] = 0.0                # far points: log p = -inf, not NaN
    with np.errstate(divide="ignore"):
        return top + np.log(np.exp(logs - top).sum(axis=0))


def _responsibilities_block(spec: GmmSpec, pts: np.ndarray) -> np.ndarray:
    return _normalized(_posterior(spec, pts)[0]).T


def _score_block(spec: GmmSpec, pts: np.ndarray) -> np.ndarray:
    logs, pulls = _posterior(spec, pts)
    return np.einsum("kn,kdn->nd", _normalized(logs), pulls)


def _score_jacobian_block(spec: GmmSpec, pts: np.ndarray) -> np.ndarray:
    logs, pulls = _posterior(spec, pts)
    f = _normalized(logs)                                       # (k, n)
    dev = pulls - np.einsum("kn,kdn->dn", f, pulls)             # g_i - s
    hess = np.einsum("kn,kdn,ken->nde", f, dev, dev)
    hess -= np.einsum("kn,kde->nde", f, spec.inv_covs)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def log_density(spec: GmmSpec, x) -> float | np.ndarray:
    """log p(x) via log-sum-exp over per-component log terms."""
    lse = _blockwise(spec, x, _log_density_block)
    return float(lse) if lse.ndim == 0 else lse


def density(spec: GmmSpec, x) -> float | np.ndarray:
    """p(x) = sum_i alpha_i N(x; mu_i, Sigma_i)."""
    return np.exp(log_density(spec, x))


def _mesh_density(spec: GmmSpec, coords) -> np.ndarray:
    """p on the Cartesian product of the 1-D coordinate vectors in coords,
    an array of shape (len(coords[0]), ..., len(coords[d - 1])).

    With du_a = coords[a] - mu_ia and P = Sigma_i^{-1}, component i's log
    term splits off the last axis L:
        [log_norm_i - (1/2) sum_{a,b<L} P_ab du_a du_b]
        + [-(1/2) P_LL du_L^2] + [-sum_{a<L} P_aL du_a] du_L,
    three products of a factor on the mesh of the leading axes and one on
    the last axis, so one rank-3 matmul writes it over the whole mesh. It
    is exponentiated once and the components are added in linear space: a
    term can overflow only where the density itself does, and a point where
    every term underflows gets 0, as exp(log_density) gives there.
    """
    *lead_coords, last = [np.asarray(c, dtype=float) for c in coords]
    L = spec.dim - 1
    shape = tuple(len(c) for c in coords)
    out = np.empty(shape)
    buf = np.empty(shape) if spec.k > 1 else out
    left = np.empty(shape[:L] + (3,))       # per leading-mesh point
    right = np.empty((3, shape[L]))         # per last-axis coordinate
    left[..., 1] = 1.0
    right[0] = 1.0
    for i in range(spec.k):
        prec, mu = spec.inv_covs[i], spec.means[i]
        du = [(c - mu[a]).reshape([-1 if b == a else 1 for b in range(L)])
              for a, c in enumerate(lead_coords)]
        left[..., 0] = spec.log_norms[i] - 0.5 * sum(
            prec[a, b] * du[a] * du[b] for a in range(L) for b in range(L))
        left[..., 2] = -sum(prec[a, L] * du[a] for a in range(L))
        right[2] = last - mu[L]
        right[1] = -0.5 * prec[L, L] * right[2] ** 2
        term = out if i == 0 else buf
        np.matmul(left.reshape(-1, 3), right, out=term.reshape(-1, shape[L]))
        np.exp(term, out=term)
        if i > 0:
            out += term
    return out


def responsibilities(spec: GmmSpec, x) -> np.ndarray:
    """Posterior component weights f_i(x) = alpha_i N_i(x) / sum_j alpha_j N_j(x):
    (n, k) for a batch, (k,) for one point; each row in [0, 1], summing to 1."""
    return _blockwise(spec, x, _responsibilities_block, (spec.k,))


def score(spec: GmmSpec, x) -> np.ndarray:
    """Gradient of log p: sum_i f_i(x) * (-Sigma_i^{-1} (x - mu_i)).

    Reduces exactly to -Sigma^{-1}(x - mu) when k = 1.
    """
    return _blockwise(spec, x, _score_block, (spec.dim,))


def score_jacobian(spec: GmmSpec, x) -> np.ndarray:
    """Hessian of log p, a symmetric d x d matrix (per point for batches).

    Uses H = sum_i f_i ((g_i - s)(g_i - s)^T - Sigma_i^{-1}) where
    g_i = -Sigma_i^{-1}(x - mu_i) and s = sum_i f_i g_i is the score; the
    centered form avoids cancellation and gives exactly -Sigma^{-1} when
    k = 1.
    """
    return _blockwise(spec, x, _score_jacobian_block, (spec.dim, spec.dim))


def sample(spec: GmmSpec, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. points: component by weight, then mu_i + chol_i @ xi.

    Deterministic given the seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pts = sample_array(spec, n, rng)
    meta = {"seed": int(seed), "solver": "direct-gmm", "grid": "none",
            "T": 0.0, "delta": 0.0, "n": int(n)}
    return SampleBatch(points=pts, meta=meta)


def sample_array(spec: GmmSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Raw (n, d) mixture draws using the caller's generator, C-ordered.

    Bit for bit rng.choice(k, n, p=weights) labels, a standard_normal
    (n, d) block and mu_i + L_i xi, and rng ends in the same state. A label
    counts the thresholds cdf[j] <= u over choice's own uniforms, in k - 1
    passes that also count each component. A stable sort groups the rows,
    so each component takes one row-major matmul xi @ L_i^T (the (d, n)
    layout rounds differently at d >= 12); the means are added to the whole
    block, not along rows of length d, and one gather restores draw order.
    """
    cdf = np.cumsum(spec.weights)
    cdf /= cdf[-1]
    u = rng.random(n)
    xi = rng.standard_normal((n, spec.dim))
    # the radix sort on the narrowest label dtype: uint8 sorts 20000
    # labels in a tenth of the int64 time
    labels = np.zeros(n, np.min_scalar_type(spec.k - 1))
    ends = []
    for c in cdf[:-1].tolist():
        above = u >= c
        labels += above
        ends.append(n - np.count_nonzero(above))
    ends.append(n)
    order = np.argsort(labels, kind="stable")
    # np.take gathers rows an order of magnitude faster than xi[order]
    grouped = np.take(xi, order, axis=0)
    lo = 0
    for i, hi in enumerate(ends):
        grouped[lo:hi] = grouped[lo:hi] @ spec.chols[i].T
        lo = hi
    grouped += np.repeat(spec.means, np.diff(ends, prepend=0), axis=0)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    return np.take(grouped, inverse, axis=0)


def mixture_mean(spec: GmmSpec) -> np.ndarray:
    """Overall mean sum_i alpha_i mu_i."""
    return spec.weights @ spec.means


def mixture_cov(spec: GmmSpec) -> np.ndarray:
    """Overall covariance sum_i alpha_i (Sigma_i + mu_i mu_i^T) - m m^T."""
    m = mixture_mean(spec)
    second = np.einsum("k,kde->de", spec.weights, spec.covs)
    second += np.einsum("k,kd,ke->de", spec.weights, spec.means, spec.means)
    return second - np.outer(m, m)
