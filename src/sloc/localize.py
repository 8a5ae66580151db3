"""The tilt SDE, its Gaussian-channel construction, the weighted-particle
measure process, and the control-matrix dynamics.

The three constructions realize the same random measures: the tilt process
``dc_t = m_t dt + dW_t`` with ``m_t`` the mean of the tilted measure at
``(c_t, t)``; the channel observation ``c_t = t x + B_t`` with ``x`` drawn
from the base, whose posterior at time t is exactly that tilted measure; and
the particle cloud, the same tilt of the empirical measure of fixed draws
driven by the cloud mean.  Cross-checks between them are statistical and live
in the suites and tests.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO, Mapping, Sequence, Union

import numpy as np

from . import targets
from .sde import (
    SamplePath,
    TimeGrid,
    _check_count,
    _estimates,
    _gather,
    _integrate,
    _noise_increments,
    _starts,
    _write_csv,
    wiener_increment_array,
)
from .targets import TargetMeasure, posterior_moments  # noqa: F401

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


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted particles with normalized log-weights and accumulated mass.

    At time T the weights are the tilt ``exp(<x, C> - T |x|^2 / 2)`` of the
    empirical measure, as Eldan's measure is of the base, with ``dC = m dt + dW``
    for the cloud mean m.  ``log_mass`` tracks the product of pre-renormalization
    masses, so the unnormalized cloud is ``exp(log_mass) * sum_i w_i delta_{x_i}``.
    """

    points: np.ndarray
    log_weights: np.ndarray
    log_mass: float

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def mean(self) -> np.ndarray:
        return self.weights @ self.points


def _tilt_step(base: TargetMeasure, grid: TimeGrid, budget: int | None = None, rng=None, control=None):
    """Times, regularizers, start row and engine step on states ``[c, m]`` of the
    tilt SDE or, given a control matrix ``C``, of ``dc = C C' m dt + C dW``,
    ``dR = C C' dt``.  Time accumulates as ``t += dt`` and the matrix as
    ``R += C C' dt``, so identity-control runs match the tilt SDE bitwise.
    The step updates the engine's column state ``(2d, rows)`` in place; the
    control products are taken in row form on transposed views."""
    if grid.times[0] != 0.0:
        raise ValueError("the tilt process starts at time 0")
    d, dts = base.dim, grid.dts
    t = regs = np.cumsum(np.concatenate([grid.times[:1], dts]))
    if control is not None:
        cc = control @ control.T
        regs = np.cumsum(np.concatenate([np.zeros((1, d, d)), cc * dts[:, None, None]]), axis=0)
    mean = targets._tilt_means(base, regs, budget, rng)
    dt = dts.tolist()  # Python floats index faster per step than numpy scalars

    def step(k: int, x: np.ndarray, dw: np.ndarray) -> np.ndarray:
        c, m = x[:d], x[d:]
        if control is not None:
            m, dw = (m.T @ cc.T).T, (dw.T @ control.T).T
        c += m * dt[k]
        c += dw
        x[d:] = mean(k + 1, c.T).T
        return x

    return t, regs, np.concatenate([np.zeros((1, d)), mean(0, np.zeros((1, d)))], axis=1), step


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
    importance-sampling budget for generic bases; their estimates draw from
    ``rng``, by default the noise path's own ``sde.SALT_IS`` block, so
    successive steps' errors are independent.  The run is the n=1 case of
    ``tilt_sde_ensemble`` on the noise path's increments.
    """
    d = base.dim
    dw = _noise_increments(noise, grid, d)
    t, _, x0, step = _tilt_step(base, grid, budget, _estimates(noise, rng))
    states = _integrate(grid, x0, step, dw)
    return [SLState(float(tk), x[0, :d], float(tk), x[0, d:]) for tk, x in zip(t, states)]


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

    The grid must start at 0.  Paths use stream ids 0..n_paths-1; results
    are independent of chunking and of the worker count.  Returns a map from
    snapshot time to an ``(n_paths, d)`` array.  Only closed-form
    (Gaussian/mixture) bases are supported here.  Raises ``ValueError`` for
    ``n_paths < 1``.
    """
    _check_count(n_paths, "n_paths")
    d = base.dim
    _, _, x0, step = _tilt_step(base, grid)
    noise = partial(wiener_increment_array, grid, d, seed)
    snaps = _integrate(grid, np.repeat(x0, n_paths, axis=0), step, noise, snapshot_times, chunk, workers)
    return {s: x[:, :d].copy() for s, x in snaps.items()}


def _channel(base: TargetMeasure, times, seed: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """Hidden draws ``x (R, d)`` of the given streams and their observations
    ``c_t = t x + B_t`` at increasing ``times``, shape ``(len(times), R, d)``.

    ``x`` comes from each stream's ``sde.SALT_INIT`` block and ``B`` is the
    Wiener path of its noise block on the requested times, with 0 put in front
    when they start later."""
    times = np.asarray(times, dtype=float)
    grid = TimeGrid(times if times.size and times[0] == 0.0 else np.concatenate([[0.0], times]))
    x = _starts(lambda g: targets.sample_base(base, 1, g)[0], seed, streams)
    b = np.cumsum(_gather(partial(wiener_increment_array, grid, base.dim, seed), streams), axis=1).swapaxes(0, 1)
    # B is 0 at the grid's start; keep the rows of the requested times.
    b = np.concatenate([np.zeros((1,) + b.shape[1:]), b])[len(grid) - times.size:]
    return x, times[:, None, None] * x + b


def channel_path(
    base: TargetMeasure, grid: TimeGrid, seed: int, stream_id: int = 0
) -> tuple[np.ndarray, SamplePath]:
    """Exact-law noisy observation path ``c_t = t x + B_t`` with ``x`` from the base.

    The posterior of ``x`` given ``c_t`` is ``tilt(base, c_t, t)``.  The hidden
    draw uses the stream's start block ``sde.SALT_INIT``, the observation noise
    the stream's noise block, so the pair is reproducible per (seed, stream).
    The path is the one-stream case of ``channel_ensemble`` on the grid's times.
    """
    x, states = _channel(base, grid.times, seed, [stream_id])
    return x[0], SamplePath(grid, states[:, 0], seed, stream_id)


def channel_ensemble(
    base: TargetMeasure, times: Sequence[float], seed: int, n_paths: int
) -> dict[float, np.ndarray]:
    """Exact channel marginals ``c_t = t x + B_t`` at the requested times,
    streams 0..n_paths-1; repeated times are observed once.  Raises
    ``ValueError`` for ``n_paths < 1``."""
    _check_count(n_paths, "n_paths")
    ts = sorted(set(float(t) for t in times))
    return dict(zip(ts, _channel(base, ts, seed, range(n_paths))[1]))


def _particle_runs(base: TargetMeasure, n_particles: int, seed: int, streams, dw: np.ndarray, dts: np.ndarray):
    """Particle clouds of the streams, drawn from their ``sde.SALT_INIT`` blocks and
    reweighted along ``dw (R, steps, d)``: yields the fixed points ``(R, n, d)``,
    the log-weights ``u - u_top`` and unnormalized weights ``e = exp(u - u_top)``
    ``(R, n)``, relative to each run's top particle, and the log-totals
    ``log sum e`` and log-masses ``(R,)``, at the start and after each step.
    The normalized cloud is ``u - u_top - log_total``, or ``e / total``; the
    yielded arrays are rewritten in place by the next step.

    The centred Ito step ``<x - m, dW> - dt |x - m|^2 / 2`` at the cloud mean m is
    ``<x, dW + m dt> - dt |x|^2 / 2 - kappa`` with ``kappa = <m, dW> + dt |m|^2 / 2``
    the same for all particles, so the log-weights are formed afresh each step
    from ``u = <x, C> - T |x|^2 / 2``, ``C = sum (dW + m dt)``, ``T = sum dt``.
    The run keeps the planes ``(1, x_1, .., x_d, |x|^2)``.  A step makes five
    passes over its ``(R, n)`` arrays: one contraction of ``e`` with the planes
    ``(1, x)`` gives each cloud's total and weighted sum, whose ratio is the mean;
    one contracts the planes ``(x, |x|^2)`` with ``(C, -T/2)`` into ``u``; then
    the argmax, the shift by ``u_top`` and the exponential.  No sum goes through
    BLAS, so a run is bitwise a row of any ensemble.

    The log-mass ``lse(u) - log n - sum kappa`` would cancel two sums that grow
    like T.  Each run instead carries ``a = u_top - sum kappa``, the centred
    log-weight of its top particle: the centred step at that particle, plus
    ``u_new - u_old = <x_new - x_old, C - T (x_new + x_old) / 2>`` when the top
    particle changes.  The log-mass is ``a - log n + log sum exp(u - u_top)``,
    a sum of terms of order one."""
    points = _starts(partial(targets.sample_base, base, n_particles), seed, streams)
    coords = list(np.moveaxis(points, -1, 0))
    planes = np.stack([np.ones(points.shape[:2])] + coords + [sum(x * x for x in coords)])
    flat_points, offsets = points.reshape(-1, points.shape[-1]), np.arange(len(points)) * n_particles
    coef, log_top, log_n = np.zeros((len(points), len(planes) - 1)), np.zeros(len(points)), math.log(n_particles)
    c, half_t = coef[:, :-1], coef[:, -1:]
    u, e, x_top = np.zeros(points.shape[:2]), np.ones(points.shape[:2]), points[:, 0]
    dts = dts.tolist()  # Python floats index faster per step than numpy scalars
    for k in range(len(dts) + 1):
        sums = np.einsum("rn,jrn->rj", e, planes[:-1])
        log_total = np.log(sums[:, 0])
        yield points, u, e, log_total, log_top - log_n + log_total
        if k == len(dts):
            return
        dw_k, dt = dw[:, k], dts[k]
        m = sums[:, 1:] / sums[:, :1]
        dev = x_top - m
        c += dw_k + dt * m
        half_t -= 0.5 * dt
        np.einsum("jrn,rj->rn", planes[1:], coef, out=u)
        # The shift of _log_normalize, at the top index it does not return.
        top = offsets + u.argmax(axis=1)
        x_old, x_top, u_top = x_top, flat_points.take(top, axis=0), u.take(top)
        delta = dev * (dw_k - (0.5 * dt) * dev) + (x_top - x_old) * (c + half_t * (x_top + x_old))
        log_top += np.add.reduce(delta, axis=1)
        u -= u_top[:, None]
        np.exp(u, out=e)


def particle_sl_run(
    base: TargetMeasure,
    n_particles: int,
    grid: TimeGrid,
    noise: SamplePath,
    ess_floor: float = DEFAULT_ESS_FLOOR,
) -> list[ParticleCloud]:
    """Weighted-particle realization of the measure dynamics on one noise path:
    every cloud of the ``R = 1`` case of ``particle_ensemble`` on the path's
    increments, raising ``WeightCollapseError`` below the ESS floor.
    """
    if n_particles < 2:
        raise ValueError("need at least two particles")
    dw = _noise_increments(noise, grid, base.dim)[None]
    clouds, runs = [], _particle_runs(base, n_particles, noise.seed, [noise.stream_id], dw, grid.dts)
    for k, (points, u, e, log_total, log_mass) in enumerate(runs):
        ess = math.exp(2.0 * log_total[0]) / float(np.add.reduce(e[0] * e[0]))
        if k and ess < ess_floor:
            raise WeightCollapseError(ess, ess_floor, float(grid.times[k]))
        clouds.append(ParticleCloud(points[0], u[0] - log_total[0], float(log_mass[0])))
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
    Runs step in blocks of about 2^15 weights: a block's ``(R, n)`` arrays of
    256 KiB (its weights, log-weights and each plane) stay in a core's cache,
    and only its last cloud is normalized.  Rows never mix, so the blocks
    change no bit.  Like ``particle_sl_run`` it needs at least two particles,
    and it needs ``n_runs >= 1``.
    """
    if n_particles < 2:
        raise ValueError("need at least two particles")
    _check_count(n_runs, "n_runs")
    points, log_w = np.empty((n_runs, n_particles, base.dim)), np.empty((n_runs, n_particles))
    log_mass, rows = np.empty(n_runs), max(1, 2**15 // n_particles)
    for lo in range(0, n_runs, rows):
        streams = range(lo, min(lo + rows, n_runs))
        dw = _gather(partial(wiener_increment_array, grid, base.dim, seed), streams)
        clouds = _particle_runs(base, n_particles, seed, streams, dw, grid.dts)
        points[lo:streams.stop], u, _, log_total, log_mass[lo:streams.stop] = deque(clouds, 1)[0]
        np.subtract(u, log_total[:, None], out=log_w[lo:streams.stop])
    return points, log_w, log_mass


def anisotropic_run(base: TargetMeasure, grid: TimeGrid, noise: SamplePath, control: np.ndarray) -> list[SLState]:
    """Euler-Maruyama on the control-matrix dynamics ``dc = C C' m dt + C dW``,
    ``dR = C C' dt`` from ``c = 0``, ``R = 0`` at time 0, on a Gaussian or
    mixture base; each state holds its regularizer as a matrix.

    The means come from one matrix plan over the grid's regularizers, and the
    run steps through the engine on the noise path's increments, as
    ``tilt_sde_run`` does; with ``C = I`` every float operation reduces to the
    isotropic step and the two runs agree bitwise on a shared noise path.
    """
    d = base.dim
    dw = _noise_increments(noise, grid, d)
    control = np.asarray(control, dtype=float)
    if control.shape != (d, d):
        raise ValueError(f"control matrix shape {control.shape} does not match dimension {d}")
    t, regs, x0, step = _tilt_step(base, grid, control=control)
    states = _integrate(grid, x0, step, dw)
    return [SLState(float(tk), x[0, :d], reg, x[0, d:]) for tk, reg, x in zip(t, regs, states)]


def write_trajectory_csv(
    runs: Mapping[int, Sequence[SLState]], out: Union[str, Path, IO[str]]
) -> None:
    """Export tilt trajectories as CSV: stream_id, t, c_1..c_d, m_1..m_d."""
    runs = dict(runs)
    if not runs:
        raise ValueError("no trajectories to write")
    first = next(iter(runs.values()))
    d = first[0].c.size
    header = ",".join(["stream_id", "t"] + [f"{v}_{k + 1}" for v in "cm" for k in range(d)])
    _write_csv(header, ([s, state.t, *state.c, *state.m] for s in sorted(runs) for state in runs[s]), out)
