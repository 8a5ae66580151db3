"""Independent numpy references for the benchmark's correctness gates.

Nothing here calls into ``sloc``: the closed forms are written in the
Gaussian-channel form ``m = mu + S (I + t S)^{-1} (c - t mu)`` rather than
the precision form the package uses, and the Euler recursions are replayed
from noise the caller supplies (the benchmark passes
``sloc.sde.wiener_increment_array``, the per-stream noise contract).

Two kinds of gate are used.  Replays and identities agree with ``sloc`` to
``REPLAY_RTOL``: far above the 1e-16 to 1e-13 rounding differences of the two
formulations and far below any real defect (a posterior mean off by 1e-6
moves a replayed path by about 1e-6).  Law-level gates are z-bounds at
``LAW_Z`` standard errors of statistics whose exact or asymptotic law is
known, so a correct program fails one with probability below 1e-4 at any
seed (a two-sided normal tail at 5 is 5.7e-7).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

REPLAY_RTOL = 1e-9
LAW_Z = 5.0


@dataclass
class Gate:
    """Accumulates named pass/fail checks."""

    results: list = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.results.append({"name": name, "passed": bool(passed), "detail": detail})
        return bool(passed)

    def close(self, name: str, got, want, rtol: float = REPLAY_RTOL) -> bool:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            return self.check(name, False, f"shape {got.shape} != {want.shape}")
        err = float(np.max(np.abs(got - want) / (1.0 + np.abs(want)))) if got.size else 0.0
        ok = bool(np.all(np.isfinite(got))) and err <= rtol
        return self.check(name, ok, f"max rel err {err:.3e} (tol {rtol:.0e})")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r["passed"])


def logsumexp(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis."""
    top = np.max(a, axis=-1, keepdims=True)
    return top[..., 0] + np.log(np.sum(np.exp(a - top), axis=-1))


class MixtureOracle:
    """Closed-form tilts of a Gaussian mixture (a Gaussian is one component).

    The tilt ``exp(<c, x> - t |x|^2 / 2)`` of component ``N(mu, S)`` has mean
    ``mu + G (c - t mu)`` with ``G = S (I + t S)^{-1}`` and log-partition
    ``-logdet(I + t S) / 2 + r' G r / 2 + <c, mu> - t |mu|^2 / 2``,
    ``r = c - t mu``.
    """

    def __init__(self, weights, means, covs):
        self.log_w = np.log(np.asarray(weights, dtype=float))
        self.means = np.asarray(means, dtype=float)
        self.covs = np.asarray(covs, dtype=float)
        self.dim = self.means.shape[1]

    @classmethod
    def of(cls, base) -> "MixtureOracle":
        if hasattr(base, "weights"):
            return cls(base.weights, base.means, base.covs)
        return cls([1.0], base.mean[None, :], base.cov[None, :, :])

    def _terms(self, c: np.ndarray, t: float):
        eye = np.eye(self.dim)
        gains = np.stack([s @ np.linalg.inv(eye + t * s) for s in self.covs])
        logdets = np.array([np.linalg.slogdet(eye + t * s)[1] for s in self.covs])
        r = c[:, None, :] - t * self.means[None, :, :]
        gr = np.einsum("kab,nkb->nka", gains, r)
        log_z = (
            self.log_w
            - 0.5 * logdets
            + 0.5 * np.einsum("nka,nka->nk", r, gr)
            + c @ self.means.T
            - 0.5 * t * np.sum(self.means**2, axis=1)
        )
        return log_z, self.means[None, :, :] + gr

    def posterior_mean(self, c, t: float) -> np.ndarray:
        c = np.atleast_2d(np.asarray(c, dtype=float))
        log_z, comp_means = self._terms(c, t)
        w = np.exp(log_z - logsumexp(log_z)[:, None])
        return np.einsum("nk,nka->na", w, comp_means)

    def log_partition(self, c, t: float) -> np.ndarray:
        c = np.atleast_2d(np.asarray(c, dtype=float))
        return logsumexp(self._terms(c, t)[0])

    def renorm_value(self, tau: float, x) -> float:
        """``V_tau(x) = -log E_z[pi(x + z) exp(|x + z|^2 / 2)]``, z ~ N(0, (1 - tau) I)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        one_m = 1.0 - tau
        log_z = float(self.log_partition(x / one_m, tau / one_m)[0])
        return -(log_z - 0.5 * self.dim * math.log(2.0 * math.pi * one_m) - float(x @ x) / (2.0 * one_m))


# Euler recursions, vectorised over streams.  ``noise`` is (streams, steps, d).


def replay_tilt(oracle: MixtureOracle, times: np.ndarray, noise: np.ndarray, keep) -> dict:
    dts = np.diff(times)
    c = np.zeros((noise.shape[0], noise.shape[2]))
    out = {0: c.copy()} if 0 in keep else {}
    for k in range(dts.size):
        c = c + oracle.posterior_mean(c, float(times[k])) * dts[k] + noise[:, k, :]
        if k + 1 in keep:
            out[k + 1] = c
    return out


def replay_backward(oracle: MixtureOracle, times: np.ndarray, x0: np.ndarray, noise: np.ndarray, keep) -> dict:
    """Backward SDE with the exact tilt ``(sqrt(u(u+1)) x, u)``."""
    dts = np.diff(times)
    x = np.array(x0, dtype=float)
    out = {}
    for k in range(dts.size):
        u = float(times[k])
        uu = u * (u + 1.0)
        s, v = math.sqrt(u / (u + 1.0)), 1.0 / (u + 1.0)
        m = oracle.posterior_mean(math.sqrt(uu) * x, u)
        drift = x / (2.0 * uu) + ((s * m - x) / v) / uu
        x = x + drift * dts[k] + noise[:, k, :] / math.sqrt(uu)
        if k + 1 in keep:
            out[k + 1] = x
    return out


def replay_flow(oracle: MixtureOracle, times: np.ndarray, noise: np.ndarray, keep=()):
    """Flow SDE from v = 0; returns (snapshots, per-path drift energy)."""
    dts = np.diff(times)
    v = np.zeros((noise.shape[0], noise.shape[2]))
    energy = np.zeros(noise.shape[0])
    out = {}
    for k in range(dts.size):
        one_m = 1.0 - float(times[k])
        u = (oracle.posterior_mean(v / one_m, float(times[k]) / one_m) - v) / one_m
        energy += 0.5 * np.sum(u**2, axis=1) * dts[k]
        v = v + u * dts[k] + noise[:, k, :]
        if k + 1 in keep:
            out[k + 1] = v
    return out, energy


def replay_particles(points: np.ndarray, times: np.ndarray, noise: np.ndarray):
    """Ito-exponential log-weight updates of static particle clouds.

    ``points`` is (runs, n, d); returns ``(log_w (runs, n), log_mass (runs,))``.
    """
    dts = np.diff(times)
    runs, n, _ = points.shape
    log_w = np.full((runs, n), -math.log(n))
    log_mass = np.zeros(runs)
    for k in range(dts.size):
        w = np.exp(log_w)
        centered = points - np.einsum("rn,rnd->rd", w, points)[:, None, :]
        log_w = log_w + np.einsum("rnd,rd->rn", centered, noise[:, k, :])
        log_w -= 0.5 * np.sum(centered**2, axis=2) * dts[k]
        step = logsumexp(log_w)
        log_mass += step
        log_w -= step[:, None]
    return log_w, log_mass


# Exact laws of the Euler schemes for a one-dimensional Gaussian base N(mu, s2).


def euler_tilt_variance(s2: float, times: np.ndarray) -> np.ndarray:
    """Var(c_k) of the Euler tilt scheme (drift slope s2 / (1 + t s2))."""
    var = np.zeros(times.size)
    for k, dt in enumerate(np.diff(times)):
        a = s2 / (1.0 + times[k] * s2)
        var[k + 1] = (1.0 + a * dt) ** 2 * var[k] + dt
    return var


def euler_backward_scaled_variance(s2: float, times: np.ndarray) -> np.ndarray:
    """Var(sqrt(u(u+1)) x_u) of the Euler backward scheme from x ~ N(0, 1)."""
    var = np.ones(times.size)
    for k, du in enumerate(np.diff(times)):
        u = float(times[k])
        uu = u * (u + 1.0)
        a = s2 / (1.0 + u * s2)
        slope = 1.0 / (2.0 * uu) + (math.sqrt(u / (u + 1.0)) * a * math.sqrt(uu) - 1.0) * (u + 1.0) / uu
        var[k + 1] = (1.0 + slope * du) ** 2 * var[k] + du / uu
    return var * times * (times + 1.0)


def euler_drift_energy(mu: float, s2: float, times: np.ndarray) -> float:
    """E[0.5 sum |u_k|^2 dt_k] of the Euler flow scheme for the base N(mu, s2)."""
    mean = second = energy = 0.0
    for k, dt in enumerate(np.diff(times)):
        one_m = 1.0 - float(times[k])
        t = float(times[k]) / one_m
        a = s2 / (1.0 + t * s2)
        beta = (a / one_m - 1.0) / one_m
        gamma = a * mu / (s2 * one_m)
        energy += 0.5 * (beta**2 * second + 2.0 * beta * gamma * mean + gamma**2) * dt
        step = 1.0 + beta * dt
        second = step**2 * second + 2.0 * step * gamma * dt * mean + (gamma * dt) ** 2 + dt
        mean = step * mean + gamma * dt
    return energy


# Law-level bounds.


def normal_mean_z(sample: np.ndarray, mean: float, var: float) -> float:
    return float((np.mean(sample) - mean) / math.sqrt(var / sample.size))


def normal_var_z(sample: np.ndarray, var: float) -> float:
    """z of the sample variance of a normal sample against ``var``
    (chi-square with n - 1 degrees of freedom, standardised)."""
    n = sample.size
    return float((np.var(sample, ddof=1) / var - 1.0) / math.sqrt(2.0 / (n - 1)))


#: Trapezoid grid of ``quadrature_moments``: half-width and point count.
QUADRATURE_HALF_WIDTH = 12.0
QUADRATURE_POINTS = 40001


def quadrature_moments(log_density):
    """(mean, variance, fourth central moment) of a 1-d unnormalised density."""
    xs = np.linspace(-QUADRATURE_HALF_WIDTH, QUADRATURE_HALF_WIDTH, QUADRATURE_POINTS)
    lp = log_density(xs)
    p = np.exp(lp - lp.max())
    z = np.trapezoid(p, xs)
    mean = float(np.trapezoid(xs * p, xs) / z)
    var = float(np.trapezoid((xs - mean) ** 2 * p, xs) / z)
    m4 = float(np.trapezoid((xs - mean) ** 4 * p, xs) / z)
    return mean, var, m4


def marginal_residual(gamma: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    row = float(np.abs(gamma.sum(axis=1) - a).sum())
    col = float(np.abs(gamma.sum(axis=0) - b).sum())
    return max(row, col)


def gaussian_kl(m0, s0, m1, s1) -> float:
    """KL(N(m0, s0) || N(m1, s1)) through Cholesky factors."""
    d = m0.size
    l1 = np.linalg.cholesky(s1)
    a = np.linalg.solve(l1, np.linalg.cholesky(s0))
    r = np.linalg.solve(l1, m1 - m0)
    logdet = 2.0 * (np.log(np.diag(l1)).sum() - np.log(np.diag(np.linalg.cholesky(s0))).sum())
    return 0.5 * (float(np.sum(a**2)) + float(r @ r) - d + logdet)
