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


def gaussian_kl(p: GaussianMeasure, q: GaussianMeasure) -> float:
    """KL(p || q) between Gaussians in closed form."""
    if p.dim != q.dim:
        raise ValueError("dimensions disagree")
    d = p.dim
    shift = q.mean - p.mean
    trace = float(np.trace(q.precision @ p.cov))
    maha = float(shift @ (q.precision @ shift))
    _, logdet_p = np.linalg.slogdet(p.cov)
    _, logdet_q = np.linalg.slogdet(q.cov)
    return 0.5 * (trace + maha - d + logdet_q - logdet_p)


def ks_two_sample(a, b) -> TwoSampleResult:
    """Classical two-sample Kolmogorov-Smirnov test with asymptotic p-value;
    a sample holding a NaN gives a NaN p-value, which fails every level."""
    a = np.ravel(np.asarray(a, dtype=float))
    b = np.ravel(np.asarray(b, dtype=float))
    if a.size < MIN_KS_SAMPLES or b.size < MIN_KS_SAMPLES:
        raise ValueError(f"need at least {MIN_KS_SAMPLES} samples on each side")
    from scipy import stats  # deferred, so that importing sloc does not load scipy

    res = stats.ks_2samp(a, b, method="asymp")
    return TwoSampleResult(float(res.statistic), float(res.pvalue), a.size, b.size)


def _batch_means(values: np.ndarray, n_batches: int) -> np.ndarray:
    usable = (values.size // n_batches) * n_batches
    return values[:usable].reshape(n_batches, -1).mean(axis=1)
