"""Reference mixtures used by tests, verification suites, and golden files."""

from __future__ import annotations

import numpy as np

from .mixture import GmmSpec, validate_spec


def standard_mixture_1d() -> GmmSpec:
    """The repo's anchor spec: equal two-component 1D mixture at +-2 with
    variance 0.25."""
    return validate_spec([
        (0.5, [-2.0], [[0.25]]),
        (0.5, [2.0], [[0.25]]),
    ])


def standard_normal_spec(d: int) -> GmmSpec:
    return validate_spec([(1.0, np.zeros(d), np.eye(d))])


def random_spec(d: int, k: int, rng: np.random.Generator,
                eig_range: tuple[float, float] = (0.25, 4.0),
                mean_scale: float = 2.0) -> GmmSpec:
    """A random valid mixture with well-conditioned covariances.

    Eigenvalues are drawn uniformly from eig_range and rotated by a random
    orthogonal matrix, so conditioning is controlled for finite-difference
    sweeps.
    """
    raw_w = rng.uniform(0.2, 1.0, size=k)
    weights = raw_w / raw_w.sum()
    triples = []
    for i in range(k):
        mean = rng.normal(scale=mean_scale, size=d)
        eigs = rng.uniform(eig_range[0], eig_range[1], size=d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        triples.append((weights[i], mean, (q * eigs) @ q.T))
    return validate_spec(triples)


def lipschitz_suite(seed: int = 2024) -> list[GmmSpec]:
    """The standard Lipschitz-validation suite: d in {1, 2}, k in {1, 2, 5}."""
    rng = np.random.default_rng(seed)
    return [random_spec(d, k, rng) for d in (1, 2) for k in (1, 2, 5)]
