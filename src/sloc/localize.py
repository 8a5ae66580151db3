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
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence, Union

import numpy as np

from . import targets
from .sde import (
    SALT_INIT,
    SamplePath,
    TimeGrid,
    generator,
    map_chunks,
    wiener_increment_array,
)
from .targets import TargetMeasure, TiltedMeasure, _log_normalize, posterior_moments, tilt

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
    importance-sampling budget for generic bases.
    """
    if not np.array_equal(noise.grid.times, grid.times):
        raise ValueError("noise path must live on the integration grid")
    if grid.times[0] != 0.0:
        raise ValueError("the tilt process starts at time 0")
    if isinstance(base, targets.GenericPotential) and base.strong_convexity < 0.0:
        raise ValueError("generic bases need a nonnegative convexity certificate")
    d = targets.dim_of(base)
    if noise.dim != d:
        raise ValueError("noise dimension does not match the base")
    dw = noise.increments()
    t = float(grid.times[0])
    c = np.zeros(d)
    m = posterior_moments(tilt(base, c, t), budget, rng=rng).mean
    states = [SLState(t, c, t, m)]
    for k in range(grid.steps):
        dt = float(grid.dts[k])
        c = c + m * dt + dw[k]
        t = t + dt
        m = posterior_moments(tilt(base, c, t), budget, rng=rng).mean
        states.append(SLState(t, c, t, m))
    return states


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
    d = targets.dim_of(base)
    wanted = sorted(set(float(s) for s in snapshot_times) | {float(grid.times[-1])})
    idx = {grid.index_of(s): s for s in wanted}
    out = {s: np.empty((n_paths, d)) for s in wanted}
    plan = targets.tilt_plan(base, grid.times[:-1])
    dts = grid.dts

    def run_chunk(lo: int, hi: int) -> None:
        dw = np.stack(
            [wiener_increment_array(grid, d, seed, s) for s in range(lo, hi)]
        )
        c = np.zeros((hi - lo, d))
        if 0 in idx:
            out[idx[0]][lo:hi] = c
        for k in range(grid.steps):
            m = targets.posterior_mean_batch(base, c, plan(k))
            c = c + m * dts[k] + dw[:, k, :]
            if k + 1 in idx:
                out[idx[k + 1]][lo:hi] = c

    map_chunks(run_chunk, n_paths, chunk, workers)
    return out


def channel_path(
    base: TargetMeasure, grid: TimeGrid, seed: int, stream_id: int = 0
) -> tuple[np.ndarray, SamplePath]:
    """Exact-law noisy observation path ``c_t = t x + B_t`` with ``x`` from the base.

    The posterior of ``x`` given ``c_t`` is ``tilt(base, c_t, t)``.  The hidden
    draw uses the stream's dedicated counter block, the observation noise the
    stream's noise block, so the pair is reproducible per (seed, stream).
    """
    d = targets.dim_of(base)
    x = targets.sample_base(base, 1, generator(seed, stream_id, SALT_INIT))[0]
    states = np.empty((len(grid), d))
    t0 = float(grid.times[0])
    g0 = generator(seed, stream_id)
    b = math.sqrt(t0) * g0.standard_normal(d) if t0 > 0.0 else np.zeros(d)
    states[0] = t0 * x + b
    for k in range(grid.steps):
        b = b + math.sqrt(grid.dts[k]) * g0.standard_normal(d)
        states[k + 1] = grid.times[k + 1] * x + b
    return x, SamplePath(grid, states, seed, stream_id)


def channel_ensemble(
    base: TargetMeasure, times: Sequence[float], seed: int, n_paths: int
) -> dict[float, np.ndarray]:
    """Exact channel marginals ``c_t = t x + B_t`` at the requested times."""
    d = targets.dim_of(base)
    ts = sorted(float(t) for t in times)
    out = {t: np.empty((n_paths, d)) for t in ts}
    for s in range(n_paths):
        x = targets.sample_base(base, 1, generator(seed, s, SALT_INIT))[0]
        g = generator(seed, s)
        b = np.zeros(d)
        prev = 0.0
        for t in ts:
            b = b + math.sqrt(t - prev) * g.standard_normal(d)
            prev = t
            out[t][s] = t * x + b
    return out


def _reweight(points: np.ndarray, log_w: np.ndarray, w: np.ndarray, dw: np.ndarray, dt: float):
    """One Ito-exponential reweighting of clouds ``points (..., n, d)`` with
    normalized log-weights ``log_w`` and weights ``w``; returns the new
    normalized log-weights and weights and the log of the pre-renormalization
    mass.  ``particle_sl_run`` and ``particle_ensemble`` share it, so a single
    run is a row of the ensemble."""
    centered = points - np.einsum("...n,...nd->...d", w, points)[..., None, :]
    log_w = log_w + np.einsum("...nd,...d->...n", centered, dw)
    log_w -= (0.5 * dt) * np.einsum("...nd,...nd->...n", centered, centered)
    step_mass, w = _log_normalize(log_w)
    log_w -= step_mass[..., None]
    return log_w, w, step_mass


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
    accumulated into ``log_mass`` so the martingale diagnostic survives.
    """
    if n_particles < 2:
        raise ValueError("need at least two particles")
    d = targets.dim_of(base)
    if noise.dim != d:
        raise ValueError("noise dimension does not match the base")
    init_rng = generator(noise.seed, noise.stream_id, SALT_INIT)
    points = targets.sample_base(base, n_particles, init_rng)
    log_w = np.full(n_particles, -math.log(n_particles))
    w = np.full(n_particles, 1.0 / n_particles)
    log_mass = 0.0
    clouds = [ParticleCloud(points, log_w, log_mass)]
    dw = noise.increments()
    dts = grid.dts
    for k in range(grid.steps):
        log_w, w, step_mass = _reweight(points, log_w, w, dw[k], float(dts[k]))
        log_mass += float(step_mass)
        ess = 1.0 / float(np.sum(w**2))
        if ess < ess_floor:
            raise WeightCollapseError(ess, ess_floor, float(grid.times[k + 1]))
        clouds.append(ParticleCloud(points, log_w, log_mass))
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
    d = targets.dim_of(base)
    points = np.stack(
        [
            targets.sample_base(base, n_particles, generator(seed, r, SALT_INIT))
            for r in range(n_runs)
        ]
    )
    dw = np.stack([wiener_increment_array(grid, d, seed, r) for r in range(n_runs)])
    log_w = np.full((n_runs, n_particles), -math.log(n_particles))
    w = np.full((n_runs, n_particles), 1.0 / n_particles)
    log_mass = np.zeros(n_runs)
    dts = grid.dts
    for k in range(grid.steps):
        log_w, w, step_mass = _reweight(points, log_w, w, dw[:, k, :], float(dts[k]))
        log_mass += step_mass
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
    regularizer as a matrix.  With ``C = I`` every float operation reduces to
    the isotropic ``tilt_sde_run`` step, so the two runs agree bitwise on a
    shared noise path.
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
    m_new = posterior_moments(tilt(base, c_new, reg_new), budget, rng=rng).mean
    return SLState(state.t + dt, c_new, reg_new, m_new)


def initial_anisotropic_state(
    base: TargetMeasure, budget: int = 0, rng: np.random.Generator | None = None
) -> SLState:
    """Starting state (t=0, c=0, zero matrix regularizer) with its cached mean."""
    d = targets.dim_of(base)
    c = np.zeros(d)
    reg = np.zeros((d, d))
    m = posterior_moments(tilt(base, c, reg), budget, rng=rng).mean
    return SLState(0.0, c, reg, m)


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
    if hasattr(out, "write"):
        out.write(payload)
    else:
        Path(out).write_text(payload)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    text = "\n".join(lines) + "\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        Path(out).write_text(text)
