"""The tilt SDE, its Gaussian-channel construction, the weighted-particle
measure process, and the anisotropic control-matrix step.

The three constructions realize the same random measures: the tilt process
``dc_t = m_t dt + dW_t`` with ``m_t`` the mean of the tilted measure at
``(c_t, t)``; the channel observation ``c_t = t x + B_t`` with ``x`` drawn
from the base, whose posterior at time t is exactly that tilted measure; and
the particle cloud whose log-weights follow the Ito-exponential update of the
measure dynamics.  Cross-checks between them are statistical and live in the
suites and tests.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO, Mapping, Sequence, Union

import numpy as np

from . import targets
from .sde import (
    SALT_INIT,
    SamplePath,
    TimeGrid,
    _emit,
    _fmt,
    _integrate,
    _noise_increments,
    generator,
    wiener_increment_array,
)
from .targets import TargetMeasure, TiltedMeasure, _log_normalize, posterior_moments, tilt  # noqa: F401

DEFAULT_ESS_FLOOR = 10.0


class WeightCollapseError(RuntimeError):
    """Particle effective sample size fell below the configured floor."""

    def __init__(self, ess: float, floor: float, t: float):
        self.ess = ess
        self.floor = floor
        super().__init__(
            f"particle effective sample size {ess:.1f} below floor {floor:.1f} at t={t:.4g}; "
            "use a shorter horizon or more particles"
        )


@dataclass(frozen=True)
class SLState:
    """Tilt-process state: time, tilt vector, regularizer, and cached mean."""

    t: float
    c: np.ndarray
    reg: Union[float, np.ndarray]
    m: np.ndarray

    def measure(self, base: TargetMeasure) -> TiltedMeasure:
        return tilt(base, self.c, self.reg)


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted particles with normalized log-weights and accumulated mass.

    ``log_mass`` tracks the product of pre-renormalization masses, so the
    unnormalized cloud measure is ``exp(log_mass) * sum_i w_i delta_{x_i}``.
    """

    points: np.ndarray
    log_weights: np.ndarray
    log_mass: float

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def ess(self) -> float:
        return 1.0 / float(np.sum(self.weights**2))


def _tilt_step(base: TargetMeasure, grid: TimeGrid, budget: int | None = None, rng=None):
    """Regularizers, start row and engine step of the tilt SDE on states ``[c, m]``.
    The regularizer accumulates as ``t += dt``, so identity-control runs match bitwise."""
    d, dts = base.dim, grid.dts
    t = np.cumsum(np.concatenate([grid.times[:1], dts]))
    mean = targets._tilt_means(base, t, budget, rng)

    def step(k: int, x: np.ndarray, dw: np.ndarray) -> np.ndarray:
        c = x[:, :d] + x[:, d:] * dts[k] + dw
        return np.hstack([c, mean(k + 1, c)])

    return t, np.hstack([np.zeros((1, d)), mean(0, np.zeros((1, d)))]), step


def tilt_sde_run(
    base: TargetMeasure,
    grid: TimeGrid,
    noise: SamplePath,
    budget: int = 0,
    rng: np.random.Generator | None = None,
) -> list[SLState]:
    """Euler-Maruyama on the tilt vector, drift m_t from the tilted moments.

    The grid must start at 0 (where c = 0).  The scalar regularizer is
    accumulated as t += dt so that a control-matrix run with identity
    matrices reproduces this one bitwise.  ``budget`` is the per-step
    importance-sampling budget for generic bases.  The run is the n=1 case
    of ``tilt_sde_ensemble`` on the noise path's increments.
    """
    d = base.dim
    dw = _noise_increments(noise, grid, d)
    if grid.times[0] != 0.0:
        raise ValueError("the tilt process starts at time 0")
    t, x0, step = _tilt_step(base, grid, budget, rng)
    snaps = _integrate(grid, x0, step, dw)
    return [SLState(float(tk), x[0, :d], float(tk), x[0, d:]) for tk, x in zip(t, snaps.values())]


def tilt_sde_ensemble(
    base: TargetMeasure,
    grid: TimeGrid,
    seed: int,
    n_paths: int,
    snapshot_times: Sequence[float] = (),
    chunk: int = 4096,
    workers: int = 1,
) -> dict[float, np.ndarray]:
    """Terminal (and requested intermediate) tilt vectors across an ensemble.

    Paths use stream ids 0..n_paths-1; results are independent of chunking
    and of the worker count.  Returns a map from snapshot time to an
    ``(n_paths, d)`` array.  Only closed-form (Gaussian/mixture) bases are
    supported here.
    """
    d = base.dim
    _, x0, step = _tilt_step(base, grid)
    noise = partial(wiener_increment_array, grid, d, seed)
    snaps = _integrate(grid, np.repeat(x0, n_paths, axis=0), step, noise, snapshot_times, chunk, workers)
    return {s: x[:, :d].copy() for s, x in snaps.items()}


def _channel(base: TargetMeasure, times, seed: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """Hidden draws ``x (R, d)`` of the given streams and their observations
    ``c_t = t x + B_t`` at increasing ``times``, shape ``(len(times), R, d)``.

    ``x`` comes from each stream's ``SALT_INIT`` block and ``B`` is the Wiener
    path of its noise block on the requested times, with 0 put in front when
    they start later."""
    times = np.asarray(times, dtype=float)
    grid = TimeGrid(times if times.size and times[0] == 0.0 else np.concatenate([[0.0], times]))
    x = np.stack([targets.sample_base(base, 1, generator(seed, s, SALT_INIT))[0] for s in streams])
    b = np.stack([np.cumsum(wiener_increment_array(grid, base.dim, seed, s), axis=0) for s in streams], axis=1)
    # B is 0 at the grid's start; keep the rows of the requested times.
    b = np.concatenate([np.zeros((1,) + b.shape[1:]), b])[len(grid) - times.size:]
    return x, times[:, None, None] * x + b


def channel_path(
    base: TargetMeasure, grid: TimeGrid, seed: int, stream_id: int = 0
) -> tuple[np.ndarray, SamplePath]:
    """Exact-law noisy observation path ``c_t = t x + B_t`` with ``x`` from the base.

    The posterior of ``x`` given ``c_t`` is ``tilt(base, c_t, t)``.  The hidden
    draw uses the stream's dedicated counter block, the observation noise the
    stream's noise block, so the pair is reproducible per (seed, stream).  The
    path is the one-stream case of ``channel_ensemble`` on the grid's times.
    """
    x, states = _channel(base, grid.times, seed, [stream_id])
    return x[0], SamplePath(grid, states[:, 0], seed, stream_id)


def channel_ensemble(
    base: TargetMeasure, times: Sequence[float], seed: int, n_paths: int
) -> dict[float, np.ndarray]:
    """Exact channel marginals ``c_t = t x + B_t`` at the requested times,
    streams 0..n_paths-1; repeated times are observed once."""
    ts = sorted(set(float(t) for t in times))
    return dict(zip(ts, _channel(base, ts, seed, range(n_paths))[1]))


def _particle_runs(base: TargetMeasure, n_particles: int, seed: int, streams, dw: np.ndarray, dts: np.ndarray):
    """Weighted particle clouds of the given streams: base draws from each
    stream's ``SALT_INIT`` block, reweighted along increments ``dw (R, steps, d)``
    by the Ito-exponential update.  Yields the points ``(R, n, d)``, which never
    move, the normalized log-weights and weights ``(R, n)`` and the accumulated
    log of the pre-renormalization masses ``(R,)``, at the start and after each
    step."""
    points = np.stack([targets.sample_base(base, n_particles, generator(seed, r, SALT_INIT)) for r in streams])
    log_w = np.full(points.shape[:2], -math.log(n_particles))
    w = np.full(points.shape[:2], 1.0 / n_particles)
    log_mass = np.zeros(len(points))
    yield points, log_w, w, log_mass
    for k, dt in enumerate(dts):
        centered = points - np.einsum("...n,...nd->...d", w, points)[..., None, :]
        log_w = log_w + np.einsum("...nd,...d->...n", centered, dw[:, k])
        log_w -= (0.5 * dt) * np.einsum("...nd,...nd->...n", centered, centered)
        step_mass, w = _log_normalize(log_w)
        log_w -= step_mass[..., None]
        log_mass = log_mass + step_mass
        yield points, log_w, w, log_mass


def particle_sl_run(
    base: TargetMeasure,
    n_particles: int,
    grid: TimeGrid,
    noise: SamplePath,
    ess_floor: float = DEFAULT_ESS_FLOOR,
) -> list[ParticleCloud]:
    """Weighted-particle realization of the measure dynamics on one noise path.

    Per step the log-weight update is the Ito-exponential
    ``<x_i - mean, dW> - 0.5 |x_i - mean|^2 dt`` (positive at any step size),
    weights are renormalized every step, and the pre-renormalization mass is
    accumulated into ``log_mass`` so the martingale diagnostic survives.  The
    run is the ``R = 1`` case of ``particle_ensemble`` on the noise path's
    increments, keeping every cloud.
    """
    if n_particles < 2:
        raise ValueError("need at least two particles")
    dw = _noise_increments(noise, grid, base.dim)[None]
    clouds = []
    for k, (points, log_w, w, log_mass) in enumerate(
        _particle_runs(base, n_particles, noise.seed, [noise.stream_id], dw, grid.dts)
    ):
        ess = 1.0 / float(np.sum(w[0] ** 2))
        if k and ess < ess_floor:
            raise WeightCollapseError(ess, ess_floor, float(grid.times[k]))
        clouds.append(ParticleCloud(points[0], log_w[0], float(log_mass[0])))
    return clouds


def particle_ensemble(
    base: TargetMeasure,
    n_particles: int,
    grid: TimeGrid,
    seed: int,
    n_runs: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Final particle clouds of independent runs, vectorized over runs.

    Returns ``(points (R, n, d), log_weights (R, n), log_mass (R,))`` at the
    grid's final time.  Run r uses stream id r, matching ``particle_sl_run``.
    """
    dw = np.stack([wiener_increment_array(grid, base.dim, seed, r) for r in range(n_runs)])
    points, log_w, _, log_mass = deque(_particle_runs(base, n_particles, seed, range(n_runs), dw, grid.dts), 1)[0]
    return points, log_w, log_mass


def anisotropic_step(
    base: TargetMeasure,
    state: SLState,
    control: np.ndarray,
    dt: float,
    dw: np.ndarray,
    budget: int = 0,
    rng: np.random.Generator | None = None,
) -> SLState:
    """One Euler step of the control-matrix dynamics.

    ``dc = C C' m dt + C dW`` and ``dReg = C C' dt``; the state must hold its
    regularizer as a matrix.  Closed-form bases take the mean from a
    one-point matrix plan of the kernel that ``tilt_sde_run`` steps through,
    so with ``C = I`` every float operation reduces to the isotropic step and
    the two runs agree bitwise on a shared noise path.
    """
    if np.ndim(state.reg) != 2:
        raise ValueError("anisotropic stepping requires a matrix regularizer")
    d = state.c.size
    control = np.asarray(control, dtype=float)
    if control.shape != (d, d):
        raise ValueError(f"control matrix shape {control.shape} does not match dimension {d}")
    dw = np.asarray(dw, dtype=float)
    if dw.shape != (d,):
        raise ValueError("noise increment dimension mismatch")
    cc = control @ control.T
    c_new = state.c + (cc @ state.m) * dt + control @ dw
    reg_new = np.asarray(state.reg) + cc * dt
    m_new = targets._tilt_means(base, reg_new[None], budget, rng)(0, c_new[None])[0]
    return SLState(state.t + dt, c_new, reg_new, m_new)


def initial_anisotropic_state(
    base: TargetMeasure, budget: int = 0, rng: np.random.Generator | None = None
) -> SLState:
    """Starting state (t=0, c=0, zero matrix regularizer) with its cached mean."""
    d = base.dim
    c = np.zeros(d)
    reg = np.zeros((d, d))
    return SLState(0.0, c, reg, targets._tilt_means(base, reg[None], budget, rng)(0, c[None])[0])


def write_particle_json(cloud: ParticleCloud, out) -> None:
    """Optional JSON snapshot of one particle cloud."""
    payload = json.dumps(
        {
            "log_mass": float(cloud.log_mass),
            "ess": cloud.ess(),
            "points": [[float(v) for v in row] for row in cloud.points],
            "log_weights": [float(v) for v in cloud.log_weights],
        },
        indent=2,
        sort_keys=True,
    )
    _emit(payload, out)


def write_trajectory_csv(
    runs: Mapping[int, Sequence[SLState]], out: Union[str, Path, IO[str]]
) -> None:
    """Export tilt trajectories as CSV: stream_id, t, c_1..c_d, m_1..m_d."""
    runs = dict(runs)
    if not runs:
        raise ValueError("no trajectories to write")
    first = next(iter(runs.values()))
    d = first[0].c.size
    header = (
        "stream_id,t,"
        + ",".join(f"c_{k + 1}" for k in range(d))
        + ","
        + ",".join(f"m_{k + 1}" for k in range(d))
    )
    lines = [header]
    for stream_id in sorted(runs):
        for state in runs[stream_id]:
            row = [str(stream_id), _fmt(state.t)]
            row += [_fmt(v) for v in state.c]
            row += [_fmt(v) for v in state.m]
            lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", out)
