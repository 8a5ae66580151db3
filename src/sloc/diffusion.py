"""Time-changed backward diffusion sampling.

The forward reference is the Ornstein-Uhlenbeck flow ``dx = -x dt + sqrt(2) dB``
whose marginal given the start is ``N(e^{-t} x_0, (1 - e^{-2t}) I)``.  Running
it backward under the time change ``u = 1 / (e^{2t} - 1)`` gives the sampling
SDE implemented here, whose score term is evaluated through the posterior mean
of a tilted base measure (Tweedie).  Rescaling a backward state by
``sqrt(u (u + 1))`` recovers the tilt process at time ``t = u``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

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
    _starts,
    wiener_increment_array,
)
from .targets import TargetMeasure, posterior_moments, tilt


def ou_marginal_params(t: float) -> tuple[float, float]:
    """Signal scale and noise variance of the OU marginal at time ``t``.

    Returns ``(e^{-t}, 1 - e^{-2t})``.
    """
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    return math.exp(-t), -math.expm1(-2.0 * t)


@dataclass(frozen=True)
class NoisyChannelSpec:
    """Law ``y = s x + N(0, noise_var * I)`` for ``x`` from the base."""

    signal_scale: float
    noise_var: float

    def __post_init__(self):
        if not self.noise_var > 0.0:
            raise ValueError("noise variance must be positive")


@dataclass(frozen=True)
class BackwardState:
    """Backward-time state ``(u, x)`` with ``u > 0``."""

    u: float
    x: np.ndarray

    def __post_init__(self):
        if not self.u > 0.0:
            raise ValueError("backward time must be positive")
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))


def tweedie_score(base: TargetMeasure, spec: NoisyChannelSpec, y, budget: int = 0) -> np.ndarray:
    """Score of the smoothed marginal: ``(s E[x | y] - y) / noise_var``.

    The posterior-mean problem is rescaled to a tilt of the base with
    ``c = s y / noise_var`` and regularizer ``t = s^2 / noise_var``, so the
    value is exact for Gaussian and mixture bases; a generic base takes
    ``budget`` importance-sampling draws from ``posterior_moments``' fixed key.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s, v = spec.signal_scale, spec.noise_var
    post = posterior_moments(tilt(base, (s / v) * y, s * s / v), budget)
    return (s * post.mean - y) / v


def _to_tilt(u, x):
    """The backward diffusion's time change to tilt coordinates: ``(u, x)``
    maps to ``(t, c) = (u, sqrt(u (u + 1)) x)``; ``u`` may be an array."""
    return u, np.sqrt(u * (u + 1.0)) * x


def _backward_step(base: TargetMeasure, u_grid: TimeGrid, budget: int | None = None, rng=None):
    """Engine step of the backward SDE; the grid must avoid u = 0.  With
    ``uu = u (u + 1)``, the Euler step of ``dx = [x / (2 uu) + score / uu] du +
    dW / sqrt(uu)``, whose score ``(u + 1) (sqrt(u / (u + 1)) m - x)`` reads the
    posterior mean ``m`` of the exact tilt at the tilt coordinates ``(u, s x)``,
    ``s = sqrt(uu)``, is ``x' = a x + g (b m + dw)`` with ``a = 1 + du / (2 uu)
    - du / u``, ``b = du`` and ``g = 1 / sqrt(uu)``, all tabulated once over
    the grid."""
    if u_grid.times[0] <= 0.0:
        raise ValueError("the backward grid must be clipped away from u = 0")
    us, dus = u_grid.times[:-1], u_grid.dts
    uu = us * (us + 1.0)
    mean = targets._tilt_means(base, us, budget, rng)
    return _affine_step(mean, _to_tilt(us, 1.0)[1], 1.0 + dus / (2.0 * uu) - dus / us, dus, 1.0 / np.sqrt(uu))


def backward_sde_run(
    base: TargetMeasure,
    u_grid: TimeGrid,
    noise: SamplePath,
    budget: int = 0,
    rng: np.random.Generator | None = None,
) -> list[BackwardState]:
    """Euler-Maruyama on the backward SDE, standard normal start at the first grid u.

    dx = [x / (2u(u+1)) + score / (u(u+1))] du + dW / sqrt(u(u+1)); the grid
    must be clipped away from u = 0 where the drift is singular.  For large
    final u the terminal law approximates the base up to a residual Gaussian
    smoothing of variance 1 / (u_max + 1).  A generic base's per-step
    importance-sampling estimates draw from ``rng``, by default the noise
    path's own ``sde.SALT_IS`` block.  The run is the n=1 case of
    ``backward_sde_ensemble`` on the noise path's increments.
    """
    dw = _noise_increments(noise, u_grid, base.dim)
    x0 = _starts(lambda g: g.standard_normal(base.dim), noise.seed, [noise.stream_id])
    states = _integrate(u_grid, x0, _backward_step(base, u_grid, budget, _estimates(noise, rng)), dw)
    return [BackwardState(u, x) for u, x in zip(u_grid.times.tolist(), states[:, 0])]


def backward_sde_ensemble(
    base: TargetMeasure,
    u_grid: TimeGrid,
    seed: int,
    n_paths: int,
    snapshot_times: Sequence[float] = (),
    chunk: int = 4096,
    workers: int = 1,
) -> dict[float, np.ndarray]:
    """Backward states at the requested grid times across an ensemble.

    Vectorized over paths for Gaussian/mixture bases; stream ids 0..n_paths-1.
    Raises ``ValueError`` for ``n_paths < 1``.
    """
    _check_count(n_paths, "n_paths")
    d = base.dim
    x0 = _starts(lambda g: g.standard_normal(d), seed, range(n_paths))
    noise = partial(wiener_increment_array, u_grid, d, seed)
    return _integrate(u_grid, x0, _backward_step(base, u_grid), noise, snapshot_times, chunk, workers)

