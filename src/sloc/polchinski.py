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
from functools import partial
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from . import targets
from .sde import (
    SamplePath,
    TimeGrid,
    _affine_step,
    _check_count,
    _estimates,
    _integrate,
    _noise_increments,
    _write_csv,
    generator,
    wiener_increment_array,
)
from .targets import (
    GaussianMixture,
    GenericPotential,
    TargetMeasure,
    TiltedMeasure,
    log_partition,
    posterior_moments,
    tilt,
)

#: Key of the generator a generic base's Monte Carlo estimates use when the
#: caller passes none.
_MC_KEY = 0x7E90


def _to_tilt(tau, v=0.0):
    """The flow's time change to tilt coordinates: ``(tau, v)`` maps to
    ``(t, c) = (tau / (1 - tau), v / (1 - tau))``; ``tau`` may be an array."""
    one_m = 1.0 - tau
    return tau / one_m, v / one_m


def fluctuation_measure(base: TargetMeasure, tau: float, v) -> TiltedMeasure:
    """The measure seen from flow state ``v`` at time ``tau``: the tilt of the
    base at the tilt coordinates ``(t, c)`` of ``(tau, v)``."""
    if not 0.0 <= tau < 1.0:
        raise ValueError("tau must lie in [0, 1)")
    t, c = _to_tilt(tau, np.atleast_1d(np.asarray(v, dtype=float)))
    return tilt(base, c, t)


def _renorm_value_mc(
    base: GenericPotential, tau: float, x: np.ndarray, budget: int, rng: np.random.Generator
) -> float:
    if budget <= 0:
        raise ValueError("a positive budget is required for a generic base")
    z = math.sqrt(1.0 - tau) * rng.standard_normal((budget, base.dim))
    pts = x + z
    v1 = base.potential_rows(pts) - 0.5 * np.sum(pts * pts, axis=1)
    return -(float(targets._log_normalize(-v1)[0]) - math.log(budget))


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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    fluct = fluctuation_measure(base, tau, x)
    if isinstance(base, GaussianMixture):
        # E exp(-V_1(x + z)) is the fluctuation measure's partition function
        # times exp(-|x|^2 / (2 (1 - tau))) / (2 pi (1 - tau))^(d / 2).
        one_m = 1.0 - tau
        gauss = 0.5 * (x.size * math.log(2.0 * math.pi * one_m) + float(x @ x) / one_m)
        value = gauss - log_partition(fluct)
    else:
        if rng is None:
            rng = generator(_MC_KEY, 0)
        value = _renorm_value_mc(base, tau, x, budget, rng)
    m = posterior_moments(fluct, budget, rng=rng).mean
    grad = (x - m) / (1.0 - tau)
    return value, grad


def _flow_drift(base: TargetMeasure, taus: np.ndarray, budget: int | None = None, rng=None):
    """``(k, v) ->`` the flow drift ``(m - v) / (1 - tau)`` at rows ``v`` and
    time ``taus[k]``, with ``m`` the fluctuation-measure means.
    ``FollmerDrift`` and ``bridge.girsanov_energy`` read it; a generic base
    needs a ``budget`` and goes row by row through ``posterior_moments``."""
    mean = targets._tilt_means(base, _to_tilt(taus)[0], budget, rng)
    one_m = (1.0 - taus).tolist()  # Python floats index faster per step than numpy scalars

    def drift(k: int, v: np.ndarray) -> np.ndarray:
        return (mean(k, v / one_m[k]) - v) / one_m[k]

    return drift


def _flow_step(base: TargetMeasure, tau_grid: TimeGrid, budget: int | None = None, rng=None):
    """Engine step of the flow SDE; the grid must start at 0 and stay below 1.
    The Euler step of ``dv = (m - v) / (1 - tau) dtau + dW``, with ``m`` the
    fluctuation-measure mean at the tilt coordinates ``(t, s v)``,
    ``s = 1 / (1 - tau)``, is ``v' = a v + g (b m + dw)`` with ``a = 1 - dtau s``,
    ``b = dtau s`` and ``g = 1``, all tabulated once over the grid."""
    if tau_grid.times[0] != 0.0 or tau_grid.times[-1] >= 1.0:
        raise ValueError("the flow grid must start at 0 and stay below 1")
    taus, dts = tau_grid.times[:-1], tau_grid.dts
    t, s = _to_tilt(taus, 1.0)
    mean = targets._tilt_means(base, t, budget, rng)
    return _affine_step(mean, s, 1.0 - dts * s, dts * s, np.ones_like(taus))


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
    tau <= 0.5 where clipping is irrelevant).  A generic base's per-step
    importance-sampling estimates draw from ``rng``, by default the noise
    path's own ``sde.SALT_IS`` block.  The run is the n=1 case of
    ``polchinski_ensemble`` on the noise path's increments.
    """
    dw = _noise_increments(noise, tau_grid, base.dim)
    step = _flow_step(base, tau_grid, budget, _estimates(noise, rng))
    states = _integrate(tau_grid, np.zeros((1, base.dim)), step, dw)
    return SamplePath(tau_grid, states[:, 0], noise.seed, noise.stream_id)


def polchinski_ensemble(
    base: TargetMeasure,
    tau_grid: TimeGrid,
    seed: int,
    n_paths: int,
    snapshot_times: Sequence[float] = (),
    chunk: int = 4096,
    workers: int = 1,
) -> dict[float, np.ndarray]:
    """Flow states at requested grid times across an ensemble (closed-form
    bases); raises ``ValueError`` for ``n_paths < 1``."""
    _check_count(n_paths, "n_paths")
    step = _flow_step(base, tau_grid)
    noise = partial(wiener_increment_array, tau_grid, base.dim, seed)
    return _integrate(tau_grid, np.zeros((n_paths, base.dim)), step, noise, snapshot_times, chunk, workers)


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


def write_schedule_csv(
    schedule: LsiSchedule, taus: Sequence[float], out: Union[str, Path, IO[str]]
) -> None:
    """Tabulate (tau, lam, big_lam, gamma, factor) rows as CSV."""
    rows = (
        (tau, schedule.lam(tau), schedule.big_lam(tau), schedule.gamma(tau), stability_factor(schedule.alpha, tau))
        for tau in taus
    )
    _write_csv("tau,lam,big_lam,gamma,factor", rows, out)
