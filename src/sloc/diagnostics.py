"""Shared statistical utilities: exact Gaussian KL and two-sample KS tests.

Everything here is deterministic given its inputs; sampling noise enters only
through the samples the caller provides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .targets import GaussianMeasure

MIN_KS_SAMPLES = 25


@dataclass(frozen=True)
class TwoSampleResult:
    statistic: float
    p_value: float
    n: int
    m: int

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0 or math.isnan(self.p_value)):
            raise ValueError("p-value must lie in [0, 1] or be NaN")


def gaussian_kl(p, q: GaussianMeasure) -> float:
    """KL(p || q) between Gaussians in closed form; ``p`` needs only ``mean``
    and ``cov``, and its dimension is ``p.mean.size``."""
    d = q.dim
    if p.mean.size != d:
        raise ValueError("dimensions disagree")
    shift = q.mean - p.mean
    trace = float(np.trace(q.precision @ p.cov))
    maha = float(shift @ (q.precision @ shift))
    _, logdet_p = np.linalg.slogdet(p.cov)
    _, logdet_q = np.linalg.slogdet(q.cov)
    return 0.5 * (trace + maha - d + logdet_q - logdet_p)


def _kolmogorov_sf(lam: float) -> float:
    """Kolmogorov's limiting survival function ``Q(lam) = 2 sum_{k>=1}
    (-1)^(k-1) exp(-2 k^2 lam^2)``.  From ``lam = 1.18`` up, its k-th term is
    at most ``exp(-2.78 k^2)``; below, the k-th term of the theta-function
    dual ``1 - sqrt(2 pi) / lam sum_{k>=1} exp(-(2k-1)^2 pi^2 / (8 lam^2))``
    is at most ``exp(-0.88 (2k-1)^2)``.  So five terms of either reach double
    precision.  Below ``lam = 0.15`` the dual's sum is under ``1e-22`` and
    ``Q`` rounds to one."""
    if lam >= 1.18:
        return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 6))
    if lam < 0.15:
        return 1.0
    w = -(math.pi**2) / (8.0 * lam * lam)
    return 1.0 - math.sqrt(2.0 * math.pi) / lam * sum(math.exp((2 * k - 1) ** 2 * w) for k in range(1, 6))


def ks_two_sample(a, b) -> TwoSampleResult:
    """Classical two-sample Kolmogorov-Smirnov test with asymptotic p-value.

    The statistic ``d`` is the largest gap between the two empirical
    distribution functions over the pooled values.  For sample sizes ``n`` and
    ``m``, the p-value is Kolmogorov's limiting law at Stephens' corrected
    argument ``(sqrt(en) + 0.12 + 0.11 / sqrt(en)) d``, ``en = n m / (n + m)``
    (M. A. Stephens, J. R. Stat. Soc. B 32, 1970).  A sample holding a NaN
    gives a NaN statistic and p-value, which fail every level."""
    a = np.sort(np.ravel(np.asarray(a, dtype=float)))
    b = np.sort(np.ravel(np.asarray(b, dtype=float)))
    n, m = a.size, b.size
    if n < MIN_KS_SAMPLES or m < MIN_KS_SAMPLES:
        raise ValueError(f"need at least {MIN_KS_SAMPLES} samples on each side")
    if math.isnan(a[-1]) or math.isnan(b[-1]):  # a sort puts NaNs last
        return TwoSampleResult(math.nan, math.nan, n, m)
    pooled = np.concatenate([a, b])
    gap = np.searchsorted(a, pooled, side="right") / n - np.searchsorted(b, pooled, side="right") / m
    d = float(max(gap.max(), -gap.min()))
    root = math.sqrt(n * m / (n + m))
    p = _kolmogorov_sf((root + 0.12 + 0.11 / root) * d)
    return TwoSampleResult(d, min(1.0, max(0.0, p)), n, m)


def _batch_means(values: np.ndarray, n_batches: int) -> np.ndarray:
    usable = (values.size // n_batches) * n_batches
    return values[:usable].reshape(n_batches, -1).mean(axis=1)
