"""Closed-form forward noising marginals and affine pushforwards of mixtures.

Only the mean-reverting unit-diffusion parameterization (drift -x,
diffusion sqrt(2)) is implemented: scale a(t) = e^{-t}, noise
b(t) = sqrt(1 - e^{-2t}), so a^2 + b^2 = 1 and the standard normal is
stationary. A mixture pushed through x -> a x + b z stays a mixture with
the same weights, means a*mu_i, and covariances a^2 Sigma_i + b^2 I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeTime, ZeroScale
from .mixture import GmmSpec


@dataclass(frozen=True)
class OuCoefficients:
    """Scale/noise pair (a, b) of the forward process at time t; a^2 + b^2 = 1."""

    a: float
    b: float


def ou_coefficients(t: float) -> OuCoefficients:
    """(e^{-t}, sqrt(1 - e^{-2t})) for t >= 0.

    b uses expm1 so that b ~ sqrt(2t) keeps full precision for small t.
    A subnormal a is kept; ZeroScale once a underflows to 0.
    """
    if not math.isfinite(t) or t < 0.0:
        raise NegativeTime(f"time must be finite and >= 0, got {t!r}")
    a = math.exp(-t)
    if a == 0.0:
        raise ZeroScale(f"time {float(t)!r}: the scale a(t) = e^-t underflows to 0 "
                        "past t of about 745.1")
    b = math.sqrt(-math.expm1(-2.0 * t))
    return OuCoefficients(a=a, b=b)


def affine_push(spec: GmmSpec, a: float, b: float) -> GmmSpec:
    """Pushforward of the mixture under x -> a x + b z, z standard normal.

    Same weights; means scale by a; covariances become a^2 Sigma_i + b^2 I,
    with the same eigenvectors and eigenvalues a^2 lam + b^2, so the caches
    are read off the input's eigendecomposition without factorizing
    anything (this sits on the sampler's per-step path).
    """
    if a == 0.0:
        raise ZeroScale("scale factor a must be nonzero")
    if b < 0.0:
        raise ValueError(f"noise scale b must be >= 0, got {b!r}")
    if a == 1.0 and b == 0.0:
        return spec
    return GmmSpec.from_eigh(spec.weights, a * spec.means,
                             (a * a) * spec.covs + (b * b) * np.eye(spec.dim),
                             (a * a) * spec.eigvals + b * b, spec.eigvecs)


def marginal_at(spec0: GmmSpec, t: float) -> GmmSpec:
    """The forward marginal at time t: affine_push with the closed-form
    (a_t, b_t), which is (1, 0) at t = 0, where affine_push returns spec0."""
    coeff = ou_coefficients(t)
    return affine_push(spec0, coeff.a, coeff.b)
