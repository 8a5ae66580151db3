"""Static endpoint bridges on finite supports and the drift-based sampler.

The static problem picks, among couplings of two discrete marginals, the one
closest in KL to a reference endpoint matrix; Sinkhorn scaling solves it in
log-domain.  With a quadratic-cost reference built from the heat kernel, the
entropic-transport objective differs from the KL objective only by a constant
depending on the marginals.  The continuous sampler from a point mass to the
base shares its drift with the renormalization flow: the optimal drift is
minus the gradient of the renormalized potential, and its accumulated
quadratic energy equals the KL divergence from the base to a standard normal.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

import numpy as np
from scipy.special import logsumexp

from . import targets
from .polchinski import polchinski_ensemble, polchinski_run, renorm_potential
from .sde import SamplePath, TimeGrid, map_chunks, wiener_increment_array
from .targets import TargetMeasure


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure: points (n, d) and positive weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.shape[0] != w.size:
            raise ValueError("points and weights disagree on the number of atoms")
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        pts = pts.copy()
        pts.setflags(write=False)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def squared_distances(mu: DiscreteMeasure, pi: DiscreteMeasure) -> np.ndarray:
    diff = mu.points[:, None, :] - pi.points[None, :, :]
    return np.sum(diff**2, axis=2)


def heat_kernel_reference(mu: DiscreteMeasure, pi: DiscreteMeasure) -> np.ndarray:
    """Endpoint reference matrix with first marginal ``mu``.

    ``R[i, j] = mu_i * k(x_i, y_j) / sum_j k(x_i, y_j)`` with the unit-time
    Gaussian heat kernel ``k = exp(-0.5 |x - y|^2)``, i.e. rows are heat-kernel
    transitions out of the atoms of ``mu``.
    """
    logk = -0.5 * squared_distances(mu, pi)
    logrow = logk - logsumexp(logk, axis=1, keepdims=True)
    return mu.weights[:, None] * np.exp(logrow)


@dataclass(frozen=True)
class DiscreteCoupling:
    """Nonnegative coupling matrix with its target marginals."""

    gamma: np.ndarray
    row_target: np.ndarray
    col_target: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2 or np.any(g < 0.0):
            raise ValueError("coupling must be a nonnegative matrix")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "row_target", np.atleast_1d(np.asarray(self.row_target, float)))
        object.__setattr__(self, "col_target", np.atleast_1d(np.asarray(self.col_target, float)))

    def marginal_residual(self) -> float:
        row = float(np.abs(self.gamma.sum(axis=1) - self.row_target).sum())
        col = float(np.abs(self.gamma.sum(axis=0) - self.col_target).sum())
        return max(row, col)


@dataclass(frozen=True)
class SinkhornResult:
    """Converged (or flagged) scaling solution ``gamma = R * (f g')``."""

    coupling: DiscreteCoupling
    f: np.ndarray
    g: np.ndarray
    iterations: int
    residual: float
    converged: bool
    residual_trace: np.ndarray


def sinkhorn(
    mu: DiscreteMeasure,
    pi: DiscreteMeasure,
    ref_kernel: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> SinkhornResult:
    """Alternate log-domain scaling until the marginal residual drops below tol.

    The residual is the larger of the L1 row and column marginal violations.
    Non-convergence within ``max_iter`` is flagged, not raised.
    """
    r = np.asarray(ref_kernel, dtype=float)
    if r.shape != (mu.n, pi.n):
        raise ValueError("reference kernel shape does not match the marginals")
    if np.any(r <= 0.0):
        raise ValueError("reference kernel must have strictly positive entries")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    log_r = np.log(r)
    log_a = np.log(mu.weights)
    log_b = np.log(pi.weights)
    log_f = np.zeros(mu.n)
    log_g = np.zeros(pi.n)
    trace = []
    iterations = 0
    residual = math.inf
    for iterations in range(1, max_iter + 1):
        log_f = log_a - logsumexp(log_r + log_g[None, :], axis=1)
        log_g = log_b - logsumexp(log_r + log_f[:, None], axis=0)
        log_gamma = log_r + log_f[:, None] + log_g[None, :]
        gamma = np.exp(log_gamma)
        row = float(np.abs(gamma.sum(axis=1) - mu.weights).sum())
        col = float(np.abs(gamma.sum(axis=0) - pi.weights).sum())
        residual = max(row, col)
        trace.append(residual)
        if residual <= tol:
            break
    coupling = DiscreteCoupling(np.exp(log_r + log_f[:, None] + log_g[None, :]),
                                mu.weights, pi.weights)
    return SinkhornResult(
        coupling=coupling,
        f=np.exp(log_f),
        g=np.exp(log_g),
        iterations=iterations,
        residual=residual,
        converged=residual <= tol,
        residual_trace=np.asarray(trace),
    )


def _kl_terms(gamma: np.ndarray, ref: np.ndarray) -> float:
    """sum gamma * log(gamma / ref) with 0 log 0 = 0; +inf where gamma > 0, ref = 0."""
    out = 0.0
    pos = gamma > 0.0
    if np.any(pos & (ref <= 0.0)):
        return math.inf
    out = float(np.sum(gamma[pos] * (np.log(gamma[pos]) - np.log(ref[pos]))))
    return out


def objective_pair(
    coupling: Union[DiscreteCoupling, np.ndarray],
    mu: DiscreteMeasure,
    pi: DiscreteMeasure,
    ref_kernel: np.ndarray,
    eps: float = 1.0,
) -> tuple[float, float]:
    """KL-to-reference and entropic-transport objectives of one coupling.

    Returns ``(kl_objective, transport_objective)`` where the first is
    ``KL(gamma || R)`` and the second ``sum 0.5 |x - y|^2 gamma
    + eps * KL(gamma || mu x pi)``.  Their difference depends only on the
    marginals, never on the coupling.
    """
    gamma = coupling.gamma if isinstance(coupling, DiscreteCoupling) else np.asarray(coupling, float)
    ssb = _kl_terms(gamma, np.asarray(ref_kernel, dtype=float))
    cost = float(np.sum(0.5 * squared_distances(mu, pi) * gamma))
    eot = cost + eps * _kl_terms(gamma, np.outer(mu.weights, pi.weights))
    return ssb, eot


def schrodinger_residual(
    result: SinkhornResult,
    mu: DiscreteMeasure,
    pi: DiscreteMeasure,
    ref_kernel: np.ndarray,
) -> float:
    """Fixed-point defect of the scaling system in the discrete normalization.

    Max over atoms of ``|f_i E_R[g | x_i] - mu_i / R0_i|`` and the symmetric
    column quantity, where R0, R1 are the reference marginals.
    """
    r = np.asarray(ref_kernel, dtype=float)
    r0 = r.sum(axis=1)
    r1 = r.sum(axis=0)
    row = np.abs(result.f * (r @ result.g) - mu.weights) / r0
    col = np.abs(result.g * (r.T @ result.f) - pi.weights) / r1
    return max(float(row.max()), float(col.max()))


@dataclass(frozen=True)
class FollmerDrift:
    """Optimal drift from a point mass to the base under a Wiener reference.

    Equal to minus the renormalized-potential gradient; the sampler below
    shares this drift with the flow SDE rather than reimplementing it.
    """

    base: TargetMeasure
    budget: int = 0

    def __call__(self, v, tau: float, rng: np.random.Generator | None = None) -> np.ndarray:
        _, grad = renorm_potential(self.base, tau, v, self.budget, rng)
        return -grad


def follmer_sample(
    base: TargetMeasure,
    tau_grid: TimeGrid,
    noise: SamplePath,
    budget: int = 0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Terminal state of one drift-sampler path; its law approximates the base
    up to the grid's clipping bias at tau = 1."""
    return polchinski_run(base, tau_grid, noise, budget, rng).states[-1]


def follmer_sample_ensemble(
    base: TargetMeasure, tau_grid: TimeGrid, seed: int, n_paths: int, chunk: int = 4096
) -> np.ndarray:
    """Terminal states of an ensemble of drift-sampler paths, shape (n, d)."""
    terminal = float(tau_grid.times[-1])
    return polchinski_ensemble(base, tau_grid, seed, n_paths, chunk=chunk)[terminal]


def girsanov_energy(
    drift: FollmerDrift,
    tau_grid: TimeGrid,
    n_paths: int,
    seed: int,
    chunk: int = 4096,
    workers: int = 1,
) -> tuple[float, float]:
    """Quadratic path energy 0.5 * integral of E |u|^2 along the drift's own SDE.

    Monte Carlo over paths with a left-endpoint quadrature in time; returns
    the estimate and its standard error.  At the optimum this equals the KL
    divergence from the base to the standard normal.
    """
    if tau_grid.times[0] != 0.0 or tau_grid.times[-1] >= 1.0:
        raise ValueError("the drift grid must start at 0 and stay below 1")
    base = drift.base
    d = targets.dim_of(base)
    closed_form = isinstance(base, (targets.GaussianMeasure, targets.GaussianMixture))
    energies = np.empty(n_paths)
    taus = tau_grid.times[:-1]
    plan = targets.tilt_plan(base, taus / (1.0 - taus)) if closed_form else None
    dts = tau_grid.dts

    def run_chunk(lo: int, hi: int) -> None:
        dw = np.stack(
            [wiener_increment_array(tau_grid, d, seed, s) for s in range(lo, hi)]
        )
        v = np.zeros((hi - lo, d))
        acc = np.zeros(hi - lo)
        for k in range(tau_grid.steps):
            tau = float(taus[k])
            dt = float(dts[k])
            one_m = 1.0 - tau
            if closed_form:
                m = targets.posterior_mean_batch(base, v / one_m, plan(k))
                u = (m - v) / one_m
            else:
                u = np.stack([drift(row, tau) for row in v])
            acc += 0.5 * np.sum(u**2, axis=1) * dt
            v = v + u * dt + dw[:, k, :]
        energies[lo:hi] = acc

    map_chunks(run_chunk, n_paths, chunk, workers)
    mean = float(energies.mean())
    stderr = float(energies.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else math.inf
    return mean, stderr


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_coupling_csv(coupling: DiscreteCoupling, out: Union[str, Path, IO[str]]) -> None:
    """Dense coupling export: row i of the CSV is gamma[i, :]."""
    lines = [",".join(_fmt(v) for v in row) for row in coupling.gamma]
    text = "\n".join(lines) + "\n"
    if hasattr(out, "write"):
        out.write(text)
    else:
        Path(out).write_text(text)


def write_sinkhorn_trace_json(result: SinkhornResult, out: Union[str, Path, IO[str]]) -> None:
    """Iteration trace as JSON records {iteration, residual}."""
    records = [
        {"iteration": i + 1, "residual": float(r)}
        for i, r in enumerate(result.residual_trace)
    ]
    payload = json.dumps(
        {"converged": result.converged, "trace": records}, indent=2, sort_keys=True
    )
    if hasattr(out, "write"):
        out.write(payload)
    else:
        Path(out).write_text(payload)
