"""Renormalized potentials, the associated flow SDE, and constant schedules.

For a base density pi, write ``V_1(x) = -log pi(x) - 0.5 |x|^2`` and define
the renormalized potential at ``tau in [0, 1)`` by Gaussian smoothing,

    V_tau(x) = -log E_{z ~ N(0, (1 - tau) I)} [exp(-V_1(x + z))].

Its value has a closed form for Gaussian and mixture bases (the additive
constant is pinned by keeping the base normalized, so values are consistent
across tau) and is estimated by Monte Carlo otherwise.  The gradient is
``(x - m_tau) / (1 - tau)`` with ``m_tau`` the mean of the fluctuation
measure, which is exactly the tilt of the base by ``c = x / (1 - tau)`` and
regularizer ``t = tau / (1 - tau)``.  The flow SDE

    dv = -(v - m_tau) / (1 - tau) dtau + dW,   v_0 = 0,

has marginals matching the tilt process under the same time change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np
from scipy.special import logsumexp

from . import targets
from .sde import (
    NonFiniteStateError,
    SamplePath,
    TimeGrid,
    map_chunks,
    wiener_increment_array,
)
from .targets import (
    GaussianMeasure,
    GaussianMixture,
    GenericPotential,
    TargetMeasure,
    TiltedMeasure,
    posterior_moments,
    tilt,
)

_LOG_2PI = math.log(2.0 * math.pi)


def fluctuation_measure(base: TargetMeasure, tau: float, v) -> TiltedMeasure:
    """The measure seen from flow state ``v`` at time ``tau``:
    ``tilt(base, v / (1 - tau), tau / (1 - tau))``."""
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return tilt(base, v / (1.0 - tau), tau / (1.0 - tau))


def _renorm_value_closed(base: TargetMeasure, tau: float, x: np.ndarray) -> float:
    """Closed-form V_tau for Gaussian and mixture bases (normalized constant)."""
    if isinstance(base, GaussianMeasure):
        weights = np.ones(1)
        means = base.mean[None, :]
        precisions = base.precision[None, :, :]
        covs = base.cov[None, :, :]
    elif isinstance(base, GaussianMixture):
        weights = base.weights
        means = base.means
        precisions = base._precisions
        covs = base.covs
    else:
        raise TypeError("closed-form renormalized potential needs a Gaussian or mixture base")
    d = x.size
    one_m = 1.0 - tau
    eye = np.eye(d)
    terms = np.empty(weights.size)
    for j in range(weights.size):
        a = precisions[j] + (tau / one_m) * eye
        b = x / one_m + precisions[j] @ means[j]
        mean_a = np.linalg.solve(a, b)
        _, logdet_a = np.linalg.slogdet(a)
        _, logdet_c = np.linalg.slogdet(covs[j])
        terms[j] = (
            math.log(weights[j])
            - 0.5 * d * _LOG_2PI
            - 0.5 * (d * math.log(one_m) + logdet_c + logdet_a)
            + 0.5 * float(b @ mean_a)
            - float(x @ x) / (2.0 * one_m)
            - 0.5 * float(means[j] @ (precisions[j] @ means[j]))
        )
    return -float(logsumexp(terms))


def _renorm_value_mc(
    base: GenericPotential, tau: float, x: np.ndarray, budget: int, rng: np.random.Generator
) -> float:
    if budget <= 0:
        raise ValueError("a positive budget is required for a generic base")
    z = math.sqrt(1.0 - tau) * rng.standard_normal((budget, base.dim))
    pts = x + z
    v1 = np.asarray(
        [float(base.potential(p)) - 0.5 * float(p @ p) for p in pts]
    )
    return -(float(logsumexp(-v1)) - math.log(budget))


def renorm_potential(
    base: TargetMeasure,
    tau: float,
    x,
    budget: int = 0,
    rng: np.random.Generator | None = None,
) -> tuple[float, np.ndarray]:
    """Value and gradient of the renormalized potential at ``x``.

    The gradient is computed through the fluctuation-measure mean,
    ``(x - m_tau) / (1 - tau)``, exact wherever the moments are exact.
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(base, (GaussianMeasure, GaussianMixture)):
        value = _renorm_value_closed(base, tau, x)
    else:
        if rng is None:
            rng = np.random.Generator(np.random.Philox(key=0x7E90))
        value = _renorm_value_mc(base, tau, x, budget, rng)
    m = posterior_moments(fluctuation_measure(base, tau, x), budget, rng=rng).mean
    grad = (x - m) / (1.0 - tau)
    return value, grad


@dataclass(frozen=True)
class RenormPotential:
    """Renormalized potential of a base measure at a fixed flow time."""

    base: TargetMeasure
    tau: float
    budget: int = 0

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValueError("tau must lie in [0, 1)")

    def value_and_grad(self, x, rng: np.random.Generator | None = None):
        return renorm_potential(self.base, self.tau, x, self.budget, rng)

    def value(self, x, rng: np.random.Generator | None = None) -> float:
        return self.value_and_grad(x, rng)[0]

    def grad(self, x, rng: np.random.Generator | None = None) -> np.ndarray:
        return self.value_and_grad(x, rng)[1]


def polchinski_run(
    base: TargetMeasure,
    tau_grid: TimeGrid,
    noise: SamplePath,
    budget: int = 0,
    rng: np.random.Generator | None = None,
) -> SamplePath:
    """Euler-Maruyama on the flow SDE from v = 0; the grid must stay below 1.

    The drift magnitude grows like 1/(1 - tau) near the endpoint, so grids
    must be clipped below tau = 1 (the identification tests all run at
    tau <= 0.5 where clipping is irrelevant).
    """
    if tau_grid.times[0] != 0.0:
        raise ValueError("the flow starts at tau = 0")
    if tau_grid.times[-1] >= 1.0:
        raise ValueError("the flow grid must be clipped below tau = 1")
    if not np.array_equal(noise.grid.times, tau_grid.times):
        raise ValueError("noise path must live on the integration grid")
    d = targets.dim_of(base)
    v = np.zeros(d)
    out = np.empty((len(tau_grid), d))
    out[0] = v
    dw = noise.increments()
    for k in range(tau_grid.steps):
        tau = float(tau_grid.times[k])
        m = posterior_moments(fluctuation_measure(base, tau, v), budget, rng=rng).mean
        v = v + (m - v) / (1.0 - tau) * tau_grid.dts[k] + dw[k]
        if not np.all(np.isfinite(v)):
            raise NonFiniteStateError(k + 1, float(tau_grid.times[k + 1]))
        out[k + 1] = v
    return SamplePath(tau_grid, out, noise.seed, noise.stream_id)


def polchinski_ensemble(
    base: TargetMeasure,
    tau_grid: TimeGrid,
    seed: int,
    n_paths: int,
    snapshot_times: Sequence[float] = (),
    chunk: int = 4096,
    workers: int = 1,
) -> dict[float, np.ndarray]:
    """Flow states at requested grid times across an ensemble (closed-form bases)."""
    if tau_grid.times[0] != 0.0 or tau_grid.times[-1] >= 1.0:
        raise ValueError("the flow grid must start at 0 and stay below 1")
    d = targets.dim_of(base)
    wanted = sorted(set(float(s) for s in snapshot_times) | {float(tau_grid.times[-1])})
    idx = {tau_grid.index_of(s): s for s in wanted}
    out = {s: np.empty((n_paths, d)) for s in wanted}
    taus = tau_grid.times[:-1]
    plan = targets.tilt_plan(base, taus / (1.0 - taus))
    dts = tau_grid.dts

    def run_chunk(lo: int, hi: int) -> None:
        dw = np.stack(
            [wiener_increment_array(tau_grid, d, seed, s) for s in range(lo, hi)]
        )
        v = np.zeros((hi - lo, d))
        if 0 in idx:
            out[idx[0]][lo:hi] = v
        for k in range(tau_grid.steps):
            one_m = 1.0 - float(taus[k])
            m = targets.posterior_mean_batch(base, v / one_m, plan(k))
            v = v + (m - v) / one_m * dts[k] + dw[:, k, :]
            if k + 1 in idx:
                out[idx[k + 1]][lo:hi] = v

    map_chunks(run_chunk, n_paths, chunk, workers)
    return out


@dataclass(frozen=True)
class LsiSchedule:
    """Curvature and log-Sobolev constant schedules for an alpha-convex base.

    ``lam`` is the curvature lower bound of the renormalized potential,
    ``big_lam`` its tail integral over [tau, 1], and ``gamma`` the resulting
    log-Sobolev constant of the flow marginal; ``gamma(1) = alpha``.
    """

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    def lam(self, tau):
        tau = np.asarray(tau, dtype=float)
        return (self.alpha - 1.0) / ((1.0 - tau) * self.alpha + tau)

    def big_lam(self, tau):
        tau = np.asarray(tau, dtype=float)
        return np.log((1.0 - self.alpha) * tau + self.alpha)

    def gamma(self, tau):
        tau = np.asarray(tau, dtype=float)
        with np.errstate(divide="ignore"):
            return self.alpha / (tau * ((1.0 - self.alpha) * tau + self.alpha))


def lsi_schedule(alpha: float) -> LsiSchedule:
    return LsiSchedule(float(alpha))


def stability_factor(alpha: float, tau: float):
    """Fraction of entropy (or variance) of a test function conserved at time tau:
    ``alpha (1 - tau) / (alpha (1 - tau) + tau)``."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0) or np.any(tau >= 1.0):
        raise ValueError("tau must lie in [0, 1)")
    out = alpha * (1.0 - tau) / (alpha * (1.0 - tau) + tau)
    return float(out) if out.ndim == 0 else out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_schedule_csv(
    schedule: LsiSchedule, taus: Sequence[float], out: Union[str, Path, IO[str]]
) -> None:
    """Tabulate (tau, lam, big_lam, gamma, factor) rows as CSV."""
    lines = ["tau,lam,big_lam,gamma,factor"]
    for tau in taus:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    tau,
                    schedule.lam(tau),
                    schedule.big_lam(tau),
                    schedule.gamma(tau),
                    stability_factor(schedule.alpha, tau),
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        Path(out).write_text(text)
