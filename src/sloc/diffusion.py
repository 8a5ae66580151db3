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
from typing import Sequence

import numpy as np

from . import targets
from .sde import (
    SALT_INIT,
    NonFiniteStateError,
    SamplePath,
    TimeGrid,
    generator,
    map_chunks,
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


def tweedie_score(
    base: TargetMeasure,
    spec: NoisyChannelSpec,
    y,
    budget: int = 0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Score of the smoothed marginal: ``(s E[x | y] - y) / noise_var``.

    The posterior-mean problem is rescaled to a tilt of the base with
    ``c = s y / noise_var`` and regularizer ``t = s^2 / noise_var``, so the
    value is exact for Gaussian and mixture bases.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s, v = spec.signal_scale, spec.noise_var
    post = posterior_moments(tilt(base, (s / v) * y, s * s / v), budget, rng=rng)
    return (s * post.mean - y) / v


def _backward_drift(x: np.ndarray, m: np.ndarray, u: float) -> np.ndarray:
    """Backward-SDE drift at ``(u, x)`` from the posterior mean ``m`` of the
    exact tilt ``(sqrt(u (u + 1)) x, u)``: the score is ``(s m - x) / v`` with
    the OU parameters ``s = sqrt(u / (u + 1))`` and ``v = 1 / (u + 1)``."""
    uu = u * (u + 1.0)
    score = (u + 1.0) * (math.sqrt(u / (u + 1.0)) * m - x)
    return x / (2.0 * uu) + score / uu


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
    smoothing of variance 1 / (u_max + 1).
    """
    if u_grid.times[0] <= 0.0:
        raise ValueError("the backward grid must be clipped away from u = 0")
    if not np.array_equal(noise.grid.times, u_grid.times):
        raise ValueError("noise path must live on the integration grid")
    d = targets.dim_of(base)
    x = generator(noise.seed, noise.stream_id, SALT_INIT).standard_normal(d)
    states = [BackwardState(float(u_grid.times[0]), x)]
    dw = noise.increments()
    dus = u_grid.dts
    for k in range(u_grid.steps):
        u = float(u_grid.times[k])
        uu = u * (u + 1.0)
        m = posterior_moments(tilt(base, math.sqrt(uu) * x, u), budget, rng=rng).mean
        x = x + _backward_drift(x, m, u) * dus[k] + dw[k] / math.sqrt(uu)
        if not np.all(np.isfinite(x)):
            raise NonFiniteStateError(k + 1, float(u_grid.times[k + 1]))
        states.append(BackwardState(float(u_grid.times[k + 1]), x))
    return states


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
    """
    if u_grid.times[0] <= 0.0:
        raise ValueError("the backward grid must be clipped away from u = 0")
    d = targets.dim_of(base)
    wanted = sorted(set(float(s) for s in snapshot_times) | {float(u_grid.times[-1])})
    idx = {u_grid.index_of(s): s for s in wanted}
    out = {s: np.empty((n_paths, d)) for s in wanted}
    plan = targets.tilt_plan(base, u_grid.times[:-1])
    dus = u_grid.dts

    def run_chunk(lo: int, hi: int) -> None:
        x = np.stack(
            [generator(seed, s, SALT_INIT).standard_normal(d) for s in range(lo, hi)]
        )
        dw = np.stack(
            [wiener_increment_array(u_grid, d, seed, s) for s in range(lo, hi)]
        )
        if 0 in idx:
            out[idx[0]][lo:hi] = x
        for k in range(u_grid.steps):
            u = float(u_grid.times[k])
            uu = u * (u + 1.0)
            m = targets.posterior_mean_batch(base, math.sqrt(uu) * x, plan(k))
            x = x + _backward_drift(x, m, u) * dus[k] + dw[:, k, :] / math.sqrt(uu)
            if k + 1 in idx:
                out[idx[k + 1]][lo:hi] = x

    map_chunks(run_chunk, n_paths, chunk, workers)
    return out


def rescale_to_tilt(state: BackwardState) -> tuple[float, np.ndarray]:
    """Identify a backward state with the tilt process: ``(t, c) = (u, sqrt(u(u+1)) x)``."""
    scale = math.sqrt(state.u * (state.u + 1.0))
    return state.u, scale * state.x
