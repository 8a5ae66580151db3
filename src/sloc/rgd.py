"""Restricted Gaussian dynamics: the two-stage proximal Markov chain, its
exact Gaussian law propagation, contraction measurement, and the entropic
stability probes behind its mixing bounds.

One transition at step size eta is ``y ~ N(x, eta I)`` followed by a draw from
the target restricted by a Gaussian factor, ``x' ~ exp(-|x' - y|^2 / (2 eta))
pi``.  The second stage is exactly a tilted-measure draw with tilt ``y / eta``
and regularizer ``1 / eta``, so the chain coincides with sampling a channel
observation at level ``T = 1 / eta`` and then its posterior.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from . import targets
from .diagnostics import _batch_means, gaussian_kl
from .sde import _write_csv, generator
from .targets import (
    GaussianMeasure,
    GaussianMixture,
    GenericPotential,
    TargetMeasure,
    posterior_moments,
    tilt,
)


@dataclass(frozen=True)
class RgdConfig:
    """Step size, target, and chain length."""

    step_size: float
    target: TargetMeasure
    steps: int = 1

    def __post_init__(self):
        if not self.step_size > 0.0:
            raise ValueError("step size must be positive")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")


def _blur(x: np.ndarray, eta: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stage one for ``n`` rows: ``y ~ N(x, eta I)``."""
    return x + math.sqrt(eta) * rng.standard_normal((n, x.shape[-1]))


def rgd_step(x, cfg: RgdConfig, rng: np.random.Generator) -> np.ndarray:
    """One transition: forward Gaussian blur, then the restricted draw.

    The n=1 case of ``rgd_transition_batch``, so it builds the restricted-draw
    plan afresh; a chain of steps is ``rgd_chain``, which builds it once.  The
    restricted stage is bitwise ``targets.sample(tilt(pi, y / eta, 1 / eta), 1,
    rng)``: exact for Gaussian/mixture targets, rejection sampling (requiring a
    positive convexity certificate) otherwise.
    """
    return rgd_transition_batch(x, cfg, 1, rng)[0]


def rgd_chain(x0, cfg: RgdConfig, rng: np.random.Generator) -> np.ndarray:
    """Run ``cfg.steps`` transitions; returns the trace of shape (steps + 1, d).

    The restricted-draw plan at ``1 / eta`` (``targets.tilted_sampler``: the
    closed-form tilt step and its Cholesky factors) is built once per chain,
    and every step draws from it; the trace is bitwise that of ``cfg.steps``
    calls of ``rgd_step`` on ``rng``.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    eta = cfg.step_size
    draw = targets.tilted_sampler(cfg.target, 1.0 / eta)
    out = np.empty((cfg.steps + 1, x.size))
    out[0] = x
    for k in range(cfg.steps):
        x = draw(_blur(x, eta, 1, rng) / eta, rng)[0]
        out[k + 1] = x
    return out


def rgd_transition_batch(
    x, cfg: RgdConfig, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` independent one-step transitions, vectorized: all from the state
    ``x (d,)``, or row ``i`` from ``x[i]`` when ``x`` is ``(n, d)``.

    Every target family: the restricted stage is one
    ``targets.sample_tilted_batch`` call, exact for Gaussian and mixture
    targets and one rejection kernel over all rows for a generic potential,
    with ``targets.DEFAULT_MAX_TRIES`` proposals per row at most.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    eta = cfg.step_size
    y = _blur(x, eta, n, rng)
    return targets.sample_tilted_batch(cfg.target, y / eta, 1.0 / eta, rng)


def channel_transition_batch(
    x, cfg: RgdConfig, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The same kernel through the channel route at ``T = 1 / eta``:
    ``c ~ N(T x, T I)`` then a posterior draw from ``tilt(pi, c, T)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = 1.0 / cfg.step_size
    c = t * x + math.sqrt(t) * rng.standard_normal((n, x.size))
    return targets.sample_tilted_batch(cfg.target, c, t, rng)


@dataclass(frozen=True)
class ChainLaw:
    """Gaussian law of the chain state when target and start are Gaussian."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, float)))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if np.linalg.eigvalsh(cov).min() <= 0.0:
            raise ValueError("chain covariance must stay positive definite")
        object.__setattr__(self, "cov", cov)


def chain_law_propagate(
    init: GaussianMeasure, target: GaussianMeasure, eta: float, n_steps: int
) -> tuple[list[ChainLaw], np.ndarray]:
    """Exact law propagation of the chain for Gaussian target and start.

    Stage one adds ``eta I`` to the covariance; stage two applies the Gaussian
    posterior map, read off the one-point tilt kernel at ``t = 1 / eta``.
    Returns the laws (including the start) and the KL divergence to the
    target at each of them.
    """
    if not eta > 0.0:
        raise ValueError("step size must be positive")
    d = target.dim
    if init.dim != d:
        raise ValueError("dimension mismatch")
    eye = np.eye(d)
    post = posterior_moments(tilt(target, np.zeros(d), 1.0 / eta))
    gain, post_cov, offset = post.cov / eta, post.cov, post.mean
    laws = [ChainLaw(init.mean, init.cov)]
    kls = [gaussian_kl(init, target)]
    mean, cov = init.mean, init.cov
    for _ in range(n_steps):
        blurred = cov + eta * eye
        mean = gain @ mean + offset
        cov = gain @ blurred @ gain.T + post_cov
        cov = 0.5 * (cov + cov.T)
        laws.append(ChainLaw(mean, cov))
        kls.append(gaussian_kl(laws[-1], target))
    return laws, np.asarray(kls)


def lsi_lower_bound(alpha: float, eta: float) -> float:
    """Certified log-Sobolev constant of the chain for an alpha-convex target:
    ``alpha / (alpha + 1 / eta)``."""
    if not (alpha > 0.0 and eta > 0.0):
        raise ValueError("alpha and eta must be positive")
    return alpha / (alpha + 1.0 / eta)


@dataclass(frozen=True)
class StabilityReport:
    """Per-probe sides of the stability inequality
    ``0.5 |b(T_y pi) - b(pi)|^2 <= alpha KL(T_y pi || pi)``."""

    alpha: float
    probes: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    sharp_alpha: float | None = None

    @property
    def passed(self) -> np.ndarray:
        scale = np.maximum(1.0, self.rhs)
        return self.lhs <= self.rhs + 1e-12 * scale

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.passed))

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "sharp_alpha": self.sharp_alpha,
                "all_pass": self.all_pass,
                "probes": [
                    {
                        "y": list(map(float, y)),
                        "lhs": float(l),
                        "rhs": float(r),
                        "pass": bool(p),
                    }
                    for y, l, r, p in zip(self.probes, self.lhs, self.rhs, self.passed)
                ],
            },
            indent=2,
            sort_keys=True,
        )


def entropic_stability_probe(
    target: TargetMeasure, probe_tilts: np.ndarray, alpha_claim: float
) -> StabilityReport:
    """Evaluate both sides of the stability inequality on probe tilts.

    Needs closed-form tilted moments and partition functions, so the target
    must be Gaussian or a mixture.  The KL of a pure linear tilt is
    ``<y, b(T_y pi)> - log Z(y)``.  For Gaussian targets the report also
    records the sharp constant, the spectral norm of the covariance.
    """
    if not isinstance(target, GaussianMixture):
        raise TypeError("stability probes need a Gaussian or mixture target")
    ys = np.atleast_2d(np.asarray(probe_tilts, dtype=float))
    means, log_z = targets.tilt_plan(target, [0.0])(0).mean_and_log_partition(
        np.vstack([np.zeros(ys.shape[1]), ys])
    )
    b0, b_y, log_z = means[0], means[1:], log_z[1:]
    kl = np.sum(ys * b_y, axis=1) - log_z
    lhs = 0.5 * np.sum((b_y - b0) ** 2, axis=1)
    rhs = alpha_claim * kl
    sharp = None
    if isinstance(target, GaussianMeasure):
        sharp = float(np.linalg.eigvalsh(target.cov).max())
    return StabilityReport(alpha_claim, ys, lhs, rhs, sharp)


def _transition_density(xs: np.ndarray, pi_density: np.ndarray, init: GaussianMeasure, eta: float) -> np.ndarray:
    """Density of one chain step from the one-dimensional Gaussian start
    ``init`` on the uniform grid ``xs``: ``mu1(x') = pi(x') int nu(y) k(x' - y)
    / Z(y) dy`` with ``k`` the ``N(0, eta)`` density, ``nu = k * init`` the
    blurred start, in closed form the ``N(mean, var + eta)`` density, and
    ``Z = k * pi`` the restricted-stage normalizer.  Each of the two integrals
    against ``k`` is one ``np.convolve`` with ``k`` at the ``2 n - 1`` grid offsets."""
    dx = xs[1] - xs[0]
    offsets = dx * np.arange(1 - xs.size, xs.size)
    k = np.exp(-0.5 * offsets**2 / eta) / math.sqrt(2.0 * math.pi * eta) * dx

    def smooth(v: np.ndarray) -> np.ndarray:
        return np.convolve(v, k, mode="valid")

    nu = np.exp(GaussianMeasure(init.mean, init.cov + eta).log_density(xs[:, None]))
    z_post = smooth(pi_density)
    return pi_density * smooth(nu / z_post)


def heat_flow_contraction_mc(
    target: TargetMeasure,
    init: GaussianMeasure,
    eta: float,
    n_paths: int = 4000,
    seed: int = 0,
) -> tuple[float, float]:
    """One-step KL contraction ``KL(mu' || pi) / KL(mu || pi)`` of the chain.

    Gaussian targets defer to the exact law propagation (stderr 0).  For a
    one-dimensional generic target the transition density is computed by
    quadrature on 4001 points of ``[-12, 12]``, with the Gaussian integrals as
    convolutions in O(grid) memory, and the output KL is estimated by
    plug-in Monte Carlo over ``n_paths`` transitions drawn together by
    ``rgd_transition_batch`` (exact log-densities, stderr from 32 batch
    means); the input KL is a deterministic quadrature value.  Potentials are
    evaluated on the grid and on the draws in one ``potential_rows`` call each.
    Raises ``ValueError`` for ``n_paths < 2``, which leaves no standard error.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2 for a standard error, got {n_paths}")
    if isinstance(target, GaussianMeasure):
        _, kls = chain_law_propagate(init, target, eta, 1)
        return float(kls[1] / kls[0]), 0.0
    if not isinstance(target, GenericPotential) or target.dim != 1:
        raise TypeError("contraction measurement supports Gaussian targets or 1-d potentials")
    if init.dim != 1:
        raise ValueError("the starting law must be one-dimensional")

    xs = np.linspace(-12.0, 12.0, 4001)
    log_pi_un = -target.potential_rows(xs[:, None])
    log_z_pi = math.log(np.trapezoid(np.exp(log_pi_un), xs))
    log_pi = log_pi_un - log_z_pi
    pi_density = np.exp(log_pi)

    log_p0 = init.log_density(xs[:, None])
    kl0 = float(np.trapezoid(np.exp(log_p0) * (log_p0 - log_pi), xs))

    mu1 = _transition_density(xs, pi_density, init, eta)
    mass = float(np.trapezoid(mu1, xs))
    if abs(mass - 1.0) > 1e-6:
        raise RuntimeError(f"quadrature grid too narrow: transition mass {mass:.8f}")
    log_mu1 = np.log(np.maximum(mu1, 1e-300))

    rng = generator(seed, 0xC0)
    x0 = init.mean[0] + math.sqrt(init.cov[0, 0]) * rng.standard_normal(n_paths)
    x1 = rgd_transition_batch(x0[:, None], RgdConfig(eta, target), n_paths, rng)
    log_mu1_at = np.interp(x1[:, 0], xs, log_mu1)
    log_pi_at = -target.potential_rows(x1) - log_z_pi
    contrib = log_mu1_at - log_pi_at
    kl1 = float(contrib.mean())
    nb = min(32, n_paths)
    batch = _batch_means(contrib, nb)
    kl1_se = float(batch.std(ddof=1) / math.sqrt(nb))
    return kl1 / kl0, kl1_se / kl0


def write_chain_csv(
    trace: np.ndarray, out: Union[str, Path, IO[str]], kls: Sequence[float] | None = None
) -> None:
    """Chain trace CSV: iteration, state coords, and per-step KL when exact."""
    trace = np.atleast_2d(np.asarray(trace, dtype=float))
    d = trace.shape[1]
    header = "iteration," + ",".join(f"x_{k + 1}" for k in range(d))
    if kls is None:
        _write_csv(header, ([i, *x] for i, x in enumerate(trace)), out)
    else:
        _write_csv(header + ",kl", ([i, *x, kls[i]] for i, x in enumerate(trace)), out)
