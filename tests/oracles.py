"""Quadrature and closed-form oracles shared by the test modules.

These are deliberately independent of the library code paths they are used to
check: densities are integrated on grids rather than routed through the
posterior/partition machinery.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp


def grid_1d(half_width: float = 12.0, n: int = 40001) -> np.ndarray:
    return np.linspace(-half_width, half_width, n)


def tilt_density_1d(base_pdf, c: float, t: float, xs: np.ndarray) -> np.ndarray:
    """Unnormalized tilted density exp(c x - t x^2 / 2) * base_pdf(x)."""
    return np.exp(c * xs - 0.5 * t * xs**2) * base_pdf(xs)


def gaussian_pdf(mean: float, var: float):
    def pdf(x):
        return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)

    return pdf


def mixture_pdf(weights, means, variances):
    weights = np.asarray(weights, float)
    means = np.asarray(means, float)
    variances = np.asarray(variances, float)

    def pdf(x):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        for w, m, v in zip(weights, means, variances):
            out += w * np.exp(-0.5 * (x - m) ** 2 / v) / np.sqrt(2.0 * np.pi * v)
        return out

    return pdf


def quad_moments_1d(unnormalized, xs: np.ndarray) -> tuple[float, float, float]:
    """(mean, variance, log partition) of an unnormalized density on a grid."""
    z = float(np.trapezoid(unnormalized, xs))
    mean = float(np.trapezoid(xs * unnormalized, xs)) / z
    second = float(np.trapezoid(xs**2 * unnormalized, xs)) / z
    return mean, second - mean**2, float(np.log(z))


def quad_raw_moments_1d(pdf_values, xs: np.ndarray, orders=(1, 2, 3, 4)) -> list[float]:
    z = float(np.trapezoid(pdf_values, xs))
    return [float(np.trapezoid(xs**k * pdf_values, xs)) / z for k in orders]


def quad_moments_2d(unnormalized, xg: np.ndarray, yg: np.ndarray):
    """(mean vector, covariance) of an unnormalized density on a product grid."""
    xx, yy = np.meshgrid(xg, yg, indexing="ij")
    z = np.trapezoid(np.trapezoid(unnormalized, yg, axis=1), xg)

    def integrate(f):
        return np.trapezoid(np.trapezoid(f * unnormalized, yg, axis=1), xg) / z

    m = np.array([integrate(xx), integrate(yy)])
    cov = np.array(
        [
            [integrate(xx * xx) - m[0] ** 2, integrate(xx * yy) - m[0] * m[1]],
            [integrate(xx * yy) - m[0] * m[1], integrate(yy * yy) - m[1] ** 2],
        ]
    )
    return m, cov


def log_domain_sinkhorn(a, b, ref_kernel, tol: float, max_iter: int = 100_000, dtype=np.float64):
    """Sinkhorn scaling in log domain, every iteration forming the coupling.

    Returns ``(f, g, gamma, iterations, trace)`` with ``gamma = R f g'`` and
    ``trace`` each iteration's residual, the larger L1 marginal violation of
    that iteration's ``gamma``.  With ``dtype=np.longdouble`` it runs in
    extended precision where the platform has it.
    """
    a, b = np.asarray(a, dtype), np.asarray(b, dtype)
    log_r = np.log(np.asarray(ref_kernel, dtype))
    log_a, log_b = np.log(a), np.log(b)
    log_f, log_g = np.zeros(len(a), dtype), np.zeros(len(b), dtype)
    iterations, trace = 0, []
    for iterations in range(1, max_iter + 1):
        log_f = log_a - logsumexp(log_r + log_g[None, :], axis=1)
        log_g = log_b - logsumexp(log_r + log_f[:, None], axis=0)
        gamma = np.exp(log_r + log_f[:, None] + log_g[None, :])
        row = float(np.abs(gamma.sum(axis=1) - a).sum())
        col = float(np.abs(gamma.sum(axis=0) - b).sum())
        trace.append(max(row, col))
        if trace[-1] <= tol:
            break
    gamma = np.exp(log_r + log_f[:, None] + log_g[None, :])
    return np.exp(log_f), np.exp(log_g), gamma, iterations, np.array(trace)


def heat_kernel_rows(mu_points, pi_points, mu_weights) -> np.ndarray:
    """Heat-kernel reference ``mu_i k(x_i, y_j) / sum_j k(x_i, y_j)`` from the
    broadcast squared distances, as a max-shifted row softmax of ``-0.5 D``
    that builds each intermediate as a fresh array."""
    log_k = -0.5 * np.sum((mu_points[:, None, :] - pi_points[None, :, :]) ** 2, axis=2)
    rows = log_k - log_k.max(axis=1, keepdims=True)
    np.exp(rows, out=rows)
    rows *= 1.0 / rows.sum(axis=1, keepdims=True)
    rows *= mu_weights[:, None]
    return rows


def dense_transition_density(xs: np.ndarray, pi_density: np.ndarray, p0: np.ndarray, eta: float) -> np.ndarray:
    """One chain step's density from ``p0`` on the uniform grid ``xs`` through
    the dense ``N(0, eta)`` kernel matrix: ``pi * K (K p0 / K pi)``, each
    product a Riemann sum."""
    kernel = np.exp(-0.5 * (xs[:, None] - xs[None, :]) ** 2 / eta) / math.sqrt(2.0 * math.pi * eta)
    dx = xs[1] - xs[0]
    nu = kernel @ p0 * dx
    z_post = kernel @ pi_density * dx
    return pi_density * (kernel @ (nu / z_post) * dx)


def centered_particle_reweighting(points, dw, dts):
    """Final log-weights and log-masses of static particle clouds under the
    centred Ito-exponential update, accumulated step by step.

    ``points`` is (R, n, d) and ``dw`` (R, steps, d).  Each step adds
    ``<x - m, dW> - dt |x - m|^2 / 2`` with ``m`` the cloud mean, renormalizes,
    and adds the log of the pre-renormalization mass to the run's log-mass.
    Returns ``(log_w (R, n), log_mass (R,))``, computed in the precision of
    the inputs (``np.longdouble`` inputs give an extended-precision run).
    """
    runs, n, _ = points.shape
    dtype = np.result_type(points, dw, dts)
    log_w = np.full((runs, n), -np.log(dtype.type(n)))
    log_mass = np.zeros(runs, dtype)
    for k, dt in enumerate(dts):
        centered = points - np.einsum("rn,rnd->rd", np.exp(log_w), points)[:, None, :]
        log_w = log_w + np.einsum("rnd,rd->rn", centered, dw[:, k]) - 0.5 * dt * np.sum(centered**2, axis=2)
        step = logsumexp(log_w, axis=1)
        log_mass += step
        log_w -= step[:, None]
    return log_w, log_mass


def moment_check(samples, reference, orders=(1, 2, 3, 4), n_batches: int = 32) -> np.ndarray:
    """Z-scores of empirical raw moments against reference values.

    The standard error per order comes from batch means.  A zero standard
    error yields z = 0 on exact agreement and +-inf otherwise.
    """
    x = np.ravel(np.asarray(samples, dtype=float))
    orders = tuple(int(k) for k in orders)
    if max(orders) > 4:
        raise ValueError("orders above 4 are not supported")
    reference = np.asarray(reference, dtype=float)
    if reference.size != len(orders):
        raise ValueError("one reference value per requested order")
    if not np.all(np.isfinite(reference)):
        raise ValueError("reference moments must be finite")
    nb = min(n_batches, x.size)
    z = np.empty(len(orders))
    for i, k in enumerate(orders):
        powers = x**k
        batches = powers[: (x.size // nb) * nb].reshape(nb, -1).mean(axis=1)
        se = float(batches.std(ddof=1) / math.sqrt(nb)) if nb > 1 else 0.0
        diff = float(powers.mean()) - reference[i]
        if se == 0.0:
            z[i] = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        else:
            z[i] = diff / se
    return z


def entropy_plugin(samples, log_f, log_partition: float = 0.0, n_batches: int = 32) -> tuple[float, float]:
    """Plug-in estimate of Ent[f] = E[f log f] - E[f] log E[f] under the
    sampling measure, for f given through exact log values up to a known
    log-partition, with its batch-means standard error.

    ``log_f`` is either the array of unnormalized log f at the samples or a
    callable producing it; the true log f is ``log_f - log_partition``.
    """
    x = np.asarray(samples, dtype=float)
    logf = np.ravel(np.asarray(log_f(x) if callable(log_f) else log_f, dtype=float)) - log_partition
    f = np.exp(logf)

    def ent_of(chunk_f: np.ndarray, chunk_logf: np.ndarray) -> float:
        mf = float(chunk_f.mean())
        if mf <= 0.0:
            return 0.0
        return float((chunk_f * chunk_logf).mean()) - mf * math.log(mf)

    nb = min(n_batches, f.size)
    usable = (f.size // nb) * nb
    fb, lb = f[:usable].reshape(nb, -1), logf[:usable].reshape(nb, -1)
    per_batch = np.asarray([ent_of(fb[i], lb[i]) for i in range(nb)])
    stderr = float(per_batch.std(ddof=1) / math.sqrt(nb)) if nb > 1 else math.inf
    return ent_of(f, logf), stderr
