"""Shared statistical utilities: exact Gaussian KL, two-sample KS tests,
moment z-scores with batch-means errors, and plug-in entropy estimates.

Everything here is deterministic given its inputs; sampling noise enters only
through the samples the caller provides.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence, Union

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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


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


def ks_by_coordinate(a: np.ndarray, b: np.ndarray, level: float = 0.01):
    """Coordinatewise KS with a Bonferroni-corrected level.

    Returns ``(passed, results)`` where the test passes if every coordinate's
    p-value exceeds ``level / d``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch")
    d = a.shape[1]
    results = [ks_two_sample(a[:, k], b[:, k]) for k in range(d)]
    passed = all(r.p_value > level / d for r in results)
    return passed, results


def _batch_means(values: np.ndarray, n_batches: int) -> np.ndarray:
    usable = (values.size // n_batches) * n_batches
    return values[:usable].reshape(n_batches, -1).mean(axis=1)


def moment_check(
    samples,
    reference: Sequence[float],
    orders: Sequence[int] = (1, 2, 3, 4),
    n_batches: int = 32,
) -> np.ndarray:
    """Z-scores of empirical raw moments against reference values.

    The standard error per order comes from batch means.  A zero standard
    error yields z = 0 on exact agreement and +-inf otherwise.
    """
    x = np.ravel(np.asarray(samples, dtype=float))
    orders = tuple(int(k) for k in orders)
    if max(orders) > 4:
        raise ValueError("orders above 4 are not supported")
    reference = np.asarray(reference, dtype=float)
    if reference.size != len(orders):
        raise ValueError("one reference value per requested order")
    if not np.all(np.isfinite(reference)):
        raise ValueError("reference moments must be finite")
    z = np.empty(len(orders))
    for i, k in enumerate(orders):
        powers = x**k
        est = float(powers.mean())
        batches = _batch_means(powers, min(n_batches, x.size))
        se = float(batches.std(ddof=1) / math.sqrt(batches.size)) if batches.size > 1 else 0.0
        diff = est - reference[i]
        if se == 0.0:
            z[i] = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        else:
            z[i] = diff / se
    return z


def entropy_plugin(
    samples,
    log_f: Union[Callable[[np.ndarray], np.ndarray], np.ndarray],
    log_partition: float = 0.0,
    n_batches: int = 32,
) -> tuple[float, float]:
    """Plug-in estimate of Ent[f] = E[f log f] - E[f] log E[f] under the
    sampling measure, for f given through exact log values up to a known
    log-partition.

    ``log_f`` is either the array of unnormalized log f at the samples or a
    callable producing it; the true log f is ``log_f - log_partition``.
    Standard error by batch means.
    """
    x = np.asarray(samples, dtype=float)
    vals = np.asarray(log_f(x) if callable(log_f) else log_f, dtype=float)
    logf = np.ravel(vals) - log_partition
    f = np.exp(logf)

    def ent_of(chunk_f: np.ndarray, chunk_logf: np.ndarray) -> float:
        mf = float(chunk_f.mean())
        if mf <= 0.0:
            return 0.0
        return float((chunk_f * chunk_logf).mean()) - mf * math.log(mf)

    ent = ent_of(f, logf)
    nb = min(n_batches, f.size)
    usable = (f.size // nb) * nb
    fb = f[:usable].reshape(nb, -1)
    lb = logf[:usable].reshape(nb, -1)
    per_batch = np.asarray([ent_of(fb[i], lb[i]) for i in range(nb)])
    stderr = float(per_batch.std(ddof=1) / math.sqrt(nb)) if nb > 1 else math.inf
    return ent, stderr
