"""Base measures and their exponential tilts.

Three target families are supported: multivariate Gaussians, finite Gaussian
mixtures, and generic potentials carrying a strong-convexity certificate.
Gaussians and mixtures admit closed-form tilted moments, partition functions,
and exact samplers; generic potentials fall back to rejection sampling and
self-normalized importance sampling.

A tilt reweights the base density by ``exp(<c, x> - 0.5 * x' R x)`` and
renormalizes, where the regularizer ``R`` is either a scalar ``t`` (meaning
``t * I``) or a symmetric PSD matrix.  As ``t`` grows the tilted measure
concentrates toward a point mass at the channel estimate ``c / t``; scalar
regularizers are capped at ``REG_CAP`` instead of modeling the degenerate
limit with a separate Dirac type.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np
from scipy.special import logsumexp

SYM_RTOL = 1e-12
REG_CAP = 1e12
GRAD_CHECK_TOL = 1e-5
MODE_SEARCH_STEPS = 200
DEFAULT_MAX_TRIES = 10_000
DEFAULT_ESS_FLOOR = 64.0

_GRAD_PROBE_SEED = 20351
_DEFAULT_IS_SEED = 71993


class SamplingBudgetError(RuntimeError):
    """Rejection sampling exhausted its per-sample try budget."""

    def __init__(self, tries: int, accepted: int):
        self.tries = tries
        self.accepted = accepted
        self.acceptance_rate = accepted / max(tries, 1)
        super().__init__(
            f"rejection sampler exhausted {tries} tries "
            f"(estimated acceptance rate {self.acceptance_rate:.2e})"
        )


class EffectiveSampleSizeError(RuntimeError):
    """Importance-sampling effective sample size fell below the floor."""

    def __init__(self, ess: float, floor: float):
        self.ess = ess
        self.floor = floor
        super().__init__(
            f"effective sample size {ess:.1f} is below the floor {floor:.1f}; "
            "the importance-sampling estimate is unreliable, increase the budget"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_spd(mat: np.ndarray, name: str, *, semidefinite: bool = False) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.T).max()) > SYM_RTOL * scale:
        raise ValueError(f"{name} is not symmetric to relative tolerance {SYM_RTOL}")
    eigs = np.linalg.eigvalsh(mat)
    if semidefinite:
        if float(eigs.min()) < -SYM_RTOL * scale:
            raise ValueError(
                f"{name} is not positive semidefinite: min eigenvalue {eigs.min():.3e}"
            )
    elif float(eigs.min()) <= 0.0:
        raise ValueError(f"{name} is not positive definite: min eigenvalue {eigs.min():.3e}")


@dataclass(frozen=True)
class GaussianMeasure:
    """Multivariate normal with an SPD covariance.

    Attributes:
        mean: Mean vector, shape ``(d,)``.
        cov: Covariance, shape ``(d, d)``, symmetric positive definite.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match dimension {mean.size}"
            )
        _check_spd(cov, "covariance")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def dim(self) -> int:
        return self.mean.size

    @cached_property
    def precision(self) -> np.ndarray:
        return _readonly(np.linalg.solve(self.cov, np.eye(self.dim)))

    @cached_property
    def chol(self) -> np.ndarray:
        return _readonly(np.linalg.cholesky(self.cov))

    @cached_property
    def _log_norm(self) -> float:
        _, logdet = np.linalg.slogdet(self.cov)
        return -0.5 * (self.dim * math.log(2.0 * math.pi) + logdet)

    def log_density(self, x) -> np.ndarray:
        """Normalized log-density at one point ``(d,)`` or a batch ``(n, d)``."""
        x = np.asarray(x, dtype=float)
        diff = x - self.mean
        q = np.einsum("...i,ij,...j->...", diff, self.precision, diff)
        return -0.5 * q + self._log_norm


@dataclass(frozen=True)
class GaussianMixture:
    """Finite Gaussian mixture; weights in (0, 1] summing to one.

    Attributes:
        weights: Component weights, shape ``(J,)``.
        means: Component means, shape ``(J, d)``.
        covs: Component covariances, shape ``(J, d, d)``.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        covs = np.asarray(self.covs, dtype=float)
        if covs.ndim == 2:
            covs = covs[None, :, :]
        if w.size < 1:
            raise ValueError("mixture needs at least one component")
        if np.any(w <= 0.0) or np.any(w > 1.0):
            raise ValueError("mixture weights must lie in (0, 1]")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1 within 1e-12")
        if means.shape[0] != w.size or covs.shape[0] != w.size:
            raise ValueError("component count mismatch between weights, means, covs")
        d = means.shape[1]
        for j in range(w.size):
            if covs[j].shape != (d, d):
                raise ValueError(f"component {j} covariance has shape {covs[j].shape}")
            _check_spd(covs[j], f"component {j} covariance")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "means", _readonly(means))
        object.__setattr__(self, "covs", _readonly(covs))

    @classmethod
    def from_components(
        cls, components: Sequence[tuple[float, Sequence[float], Sequence[Sequence[float]]]]
    ) -> "GaussianMixture":
        """Build from ``(weight, mean, covariance)`` triples."""
        w = [c[0] for c in components]
        means = [np.atleast_1d(np.asarray(c[1], dtype=float)) for c in components]
        covs = [np.atleast_2d(np.asarray(c[2], dtype=float)) for c in components]
        return cls(np.asarray(w), np.asarray(means), np.asarray(covs))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.size

    def component(self, j: int) -> GaussianMeasure:
        return GaussianMeasure(self.means[j], self.covs[j])

    @cached_property
    def _precisions(self) -> np.ndarray:
        eye = np.eye(self.dim)
        return _readonly(np.stack([np.linalg.solve(c, eye) for c in self.covs]))

    @cached_property
    def _chols(self) -> np.ndarray:
        return _readonly(np.stack([np.linalg.cholesky(c) for c in self.covs]))

    @cached_property
    def _log_norms(self) -> np.ndarray:
        logdets = np.asarray([np.linalg.slogdet(c)[1] for c in self.covs])
        out = -0.5 * (self.dim * math.log(2.0 * math.pi) + logdets)
        out.setflags(write=False)
        return out

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def cov(self) -> np.ndarray:
        m = self.mean()
        second = np.einsum("j,jab->ab", self.weights, self.covs)
        second += np.einsum("j,ja,jb->ab", self.weights, self.means, self.means)
        return second - np.outer(m, m)

    def log_density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        diff = x[..., None, :] - self.means
        q = np.einsum("...ji,jik,...jk->...j", diff, self._precisions, diff)
        comp = -0.5 * q + self._log_norms + np.log(self.weights)
        return logsumexp(comp, axis=-1)


@dataclass(frozen=True)
class GenericPotential:
    """Target known only through its potential V, density proportional to exp(-V).

    ``strong_convexity`` is a certified lower bound alpha with
    ``hess V >= alpha * I`` everywhere.  ``smoothness`` is an upper bound
    ``beta >= alpha`` used to tune mode searches; it may be a bound valid on
    the region the sampler visits rather than a global one.  The gradient is
    cross-checked against central finite differences of the potential on
    fixed random probe points at construction time.
    """

    dim: int
    potential: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    strong_convexity: float
    smoothness: float | None = None
    check_gradient: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if self.strong_convexity < 0.0:
            raise ValueError("strong_convexity must be nonnegative")
        if self.smoothness is not None and self.smoothness < self.strong_convexity:
            raise ValueError("smoothness bound must be at least strong_convexity")
        if self.check_gradient:
            self._verify_gradient()

    def _verify_gradient(self) -> None:
        rng = np.random.Generator(np.random.Philox(key=_GRAD_PROBE_SEED))
        for _ in range(5):
            x = rng.standard_normal(self.dim)
            grad = np.atleast_1d(np.asarray(self.gradient(x), dtype=float))
            fd = np.empty(self.dim)
            for k in range(self.dim):
                h = 1e-5 * (1.0 + abs(x[k]))
                e = np.zeros(self.dim)
                e[k] = h
                fd[k] = (float(self.potential(x + e)) - float(self.potential(x - e))) / (2.0 * h)
            if np.linalg.norm(grad - fd) > GRAD_CHECK_TOL * (1.0 + np.linalg.norm(grad)):
                raise ValueError(
                    "gradient disagrees with finite differences of the potential "
                    f"at probe point {x!r}"
                )


TargetMeasure = Union[GaussianMeasure, GaussianMixture, GenericPotential]


def dim_of(base: TargetMeasure) -> int:
    return base.dim


def base_log_density(base: TargetMeasure, x) -> np.ndarray:
    """Log-density of the base measure.

    Normalized for Gaussian and mixture bases; for a generic potential this is
    the unnormalized value ``-V(x)``.
    """
    if isinstance(base, (GaussianMeasure, GaussianMixture)):
        return base.log_density(x)
    x = np.asarray(x, dtype=float)
    if x.ndim <= 1:
        return -float(base.potential(np.atleast_1d(x)))
    return -np.asarray([float(base.potential(row)) for row in x])


def sample_base(base: TargetMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` samples from the base measure; exact for Gaussian/mixture.

    Generic potentials are drawn through the identity tilt's rejection
    sampler, which requires a strictly positive convexity certificate.
    """
    if isinstance(base, GaussianMeasure):
        z = rng.standard_normal((n, base.dim))
        return base.mean + z @ base.chol.T
    if isinstance(base, GaussianMixture):
        return _mixture_draws(base.weights, base.means, base._chols, n, rng)
    return sample(tilt(base, np.zeros(base.dim), 0.0), n, rng)


def _mixture_draws(weights, means, chols, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws from the mixture of ``N(means[j], chols[j] chols[j]')``; weights
    ``(n, J)`` and means ``(n, J, d)`` give each draw its own mixture."""
    idx = (rng.random(n)[:, None] >= np.cumsum(weights, axis=-1)[..., :-1]).sum(axis=1)
    picked = means[idx] if means.ndim == 2 else means[np.arange(n), idx]
    z = rng.standard_normal((n, means.shape[-1]))
    return picked + np.einsum("nab,nb->na", chols[idx], z)


@dataclass(frozen=True)
class TiltedMeasure:
    """Exponential tilt of a base measure by ``exp(<c, x> - 0.5 x' R x)``.

    ``reg`` is a scalar ``t >= 0`` (meaning ``t * I``) or a symmetric PSD
    matrix.  Scalar values above ``REG_CAP`` are clamped there; at that point
    the measure is numerically a point mass at ``c / t``.
    """

    base: TargetMeasure
    c: np.ndarray
    reg: Union[float, np.ndarray]

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        d = dim_of(self.base)
        if c.shape != (d,):
            raise ValueError(f"tilt vector shape {c.shape} does not match dimension {d}")
        object.__setattr__(self, "c", _readonly(c))
        reg = self.reg
        if np.ndim(reg) == 0:
            reg = float(reg)
            if not math.isfinite(reg) or reg < 0.0:
                raise ValueError("scalar regularizer must be finite and nonnegative")
            object.__setattr__(self, "reg", min(reg, REG_CAP))
        else:
            reg = np.asarray(reg, dtype=float)
            if reg.shape != (d, d):
                raise ValueError(
                    f"matrix regularizer shape {reg.shape} does not match dimension {d}"
                )
            _check_spd(reg, "regularizer", semidefinite=True)
            object.__setattr__(self, "reg", _readonly(reg))

    @property
    def dim(self) -> int:
        return dim_of(self.base)

    @property
    def reg_is_scalar(self) -> bool:
        return np.ndim(self.reg) == 0

    def reg_matrix(self) -> np.ndarray:
        if self.reg_is_scalar:
            return float(self.reg) * np.eye(self.dim)
        return np.asarray(self.reg)


def tilt(base: TargetMeasure, c, reg) -> TiltedMeasure:
    """Tilt ``base`` by ``exp(<c, x> - 0.5 x' R x)`` (renormalized).

    Raises ValueError on dimension mismatch or a regularizer that is not a
    nonnegative scalar / symmetric PSD matrix.
    """
    return TiltedMeasure(base, c, reg)


def unnormalized_log_density(m: TiltedMeasure, x) -> np.ndarray:
    """``log base(x) + <c, x> - 0.5 x' R x``; base term unnormalized for potentials."""
    x = np.asarray(x, dtype=float)
    lin = x @ m.c
    r = m.reg_matrix()
    quad = np.einsum("...i,ij,...j->...", x, r, x)
    return base_log_density(m.base, x) + lin - 0.5 * quad


class Moments(NamedTuple):
    mean: np.ndarray
    cov: np.ndarray
    stderr: float


def _tilt_params_raw(
    mean: np.ndarray,
    cov: np.ndarray,
    precision: np.ndarray,
    c: np.ndarray,
    reg_mat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    d = mean.size
    if d == 1:
        # Scalar fast path; solve/slogdet overhead dominates at this size.
        a = precision[0, 0] + reg_mat[0, 0]
        b = precision[0, 0] * mean[0] + c[0]
        post_mean = b / a
        log_z = (
            0.5 * b * post_mean
            - 0.5 * precision[0, 0] * mean[0] ** 2
            - 0.5 * math.log(1.0 + cov[0, 0] * reg_mat[0, 0])
        )
        return np.array([post_mean]), np.array([[1.0 / a]]), float(log_z)
    a = precision + reg_mat
    b = precision @ mean + c
    post_mean = np.linalg.solve(a, b)
    post_cov = np.linalg.solve(a, np.eye(d))
    post_cov = 0.5 * (post_cov + post_cov.T)
    _, logdet = np.linalg.slogdet(np.eye(d) + cov @ reg_mat)
    log_z = 0.5 * float(b @ post_mean) - 0.5 * float(mean @ (precision @ mean)) - 0.5 * logdet
    return post_mean, post_cov, log_z


def _mixture_tilt_params(
    mix: GaussianMixture, c: np.ndarray, reg_mat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Tilted mixture decomposition: posterior weights, means, covs, log-partition.

    Component weights are renormalized in log space to stay finite for large
    regularizers.
    """
    j = mix.n_components
    means = np.empty((j, mix.dim))
    covs = np.empty((j, mix.dim, mix.dim))
    log_zs = np.empty(j)
    for k in range(j):
        means[k], covs[k], log_zs[k] = _tilt_params_raw(
            mix.means[k], mix.covs[k], mix._precisions[k], c, reg_mat
        )
    log_z, w_post = _log_normalize(np.log(mix.weights) + log_zs)
    return w_post, means, covs, float(log_z)


def log_partition(m: TiltedMeasure) -> float:
    """Exact ``log int exp(<c,x> - 0.5 x'Rx) base(dx)``; Gaussian/mixture only."""
    reg_mat = m.reg_matrix()
    if isinstance(m.base, GaussianMeasure):
        return _tilt_params_raw(m.base.mean, m.base.cov, m.base.precision, m.c, reg_mat)[2]
    if isinstance(m.base, GaussianMixture):
        return _mixture_tilt_params(m.base, m.c, reg_mat)[3]
    raise TypeError("log_partition has closed form only for Gaussian or mixture bases")


def _generic_curvature(m: TiltedMeasure) -> float:
    """Certified log-curvature lower bound of the tilted potential."""
    base = m.base
    if m.reg_is_scalar:
        lam_min = float(m.reg)
    else:
        lam_min = float(np.linalg.eigvalsh(np.asarray(m.reg)).min())
    return base.strong_convexity + lam_min


def _generic_total(m: TiltedMeasure):
    base = m.base
    reg_mat = m.reg_matrix()
    c = m.c

    def total_potential(x: np.ndarray) -> float:
        return float(base.potential(x)) - float(c @ x) + 0.5 * float(x @ (reg_mat @ x))

    def total_gradient(x: np.ndarray) -> np.ndarray:
        return np.asarray(base.gradient(x), dtype=float) - c + reg_mat @ x

    return total_potential, total_gradient


def _generic_envelope(m: TiltedMeasure):
    """Gaussian envelope for the tilted generic potential.

    The proposal has precision ``g = alpha + lambda_min(R)`` and is centered at
    the gradient-corrected point ``x_hat - grad U(x_hat) / g``, so the envelope
    stays valid even when the 200-step mode search has not fully converged.
    """
    base = m.base
    g = _generic_curvature(m)
    if g <= 0.0:
        raise ValueError(
            "rejection sampling needs alpha + lambda_min(reg) > 0 for a generic base"
        )
    if base.smoothness is None or not math.isfinite(base.smoothness):
        raise ValueError("rejection sampling needs a finite smoothness bound")
    if m.reg_is_scalar:
        lam_max = float(m.reg)
    else:
        lam_max = float(np.linalg.eigvalsh(np.asarray(m.reg)).max())
    total_potential, total_gradient = _generic_total(m)
    step = 1.0 / (base.smoothness + lam_max)
    x = np.zeros(m.dim)
    for _ in range(MODE_SEARCH_STEPS):
        x = x - step * total_gradient(x)
    u_hat = total_potential(x)
    g_hat = total_gradient(x)
    center = x - g_hat / g
    return total_potential, x, u_hat, g_hat, g, center


def _generic_rejection_sample(
    m: TiltedMeasure, n: int, rng: np.random.Generator, max_tries: int
) -> np.ndarray:
    total_potential, x_hat, u_hat, g_hat, g, center = _generic_envelope(m)
    scale = 1.0 / math.sqrt(g)
    out = np.empty((n, m.dim))
    total_tries = 0
    for i in range(n):
        accepted = False
        for _ in range(max_tries):
            total_tries += 1
            z = center + scale * rng.standard_normal(m.dim)
            slack = (
                total_potential(z)
                - u_hat
                - float(g_hat @ (z - x_hat))
                - 0.5 * g * float((z - x_hat) @ (z - x_hat))
            )
            if math.log(rng.random()) <= -slack:
                out[i] = z
                accepted = True
                break
        if not accepted:
            raise SamplingBudgetError(total_tries, i)
    return out


def _generic_is_moments(
    m: TiltedMeasure, budget: int, rng: np.random.Generator | None, ess_floor: float
) -> Moments:
    """Self-normalized importance sampling with the rejection proposal."""
    if budget <= 0:
        raise ValueError("a positive budget is required for a generic base")
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=_DEFAULT_IS_SEED))
    total_potential, _, _, _, g, center = _generic_envelope(m)
    d = m.dim
    draws = center + rng.standard_normal((budget, d)) / math.sqrt(g)
    log_q = -0.5 * g * np.sum((draws - center) ** 2, axis=1)
    log_u = np.asarray([total_potential(row) for row in draws])
    log_w = -log_u - log_q
    log_w -= logsumexp(log_w)
    w = np.exp(log_w)
    ess = 1.0 / float(np.sum(w**2))
    if ess < ess_floor:
        raise EffectiveSampleSizeError(ess, ess_floor)
    mean = w @ draws
    centered = draws - mean
    cov = np.einsum("n,na,nb->ab", w, centered, centered)
    se = np.sqrt(np.einsum("n,na->a", w**2, centered**2))
    return Moments(mean, 0.5 * (cov + cov.T), float(se.max()))


def posterior_moments(
    m: TiltedMeasure,
    budget: int = 0,
    *,
    rng: np.random.Generator | None = None,
    ess_floor: float = DEFAULT_ESS_FLOOR,
) -> Moments:
    """Mean and covariance of a tilted measure.

    Exact (stderr 0) for Gaussian and mixture bases.  For a generic base the
    estimate is self-normalized importance sampling from the rejection
    proposal with ``budget`` draws; the reported stderr is the largest
    coordinatewise standard error of the mean.
    """
    reg_mat = m.reg_matrix()
    if isinstance(m.base, GaussianMeasure):
        mean, cov, _ = _tilt_params_raw(m.base.mean, m.base.cov, m.base.precision, m.c, reg_mat)
        return Moments(mean, cov, 0.0)
    if isinstance(m.base, GaussianMixture):
        w, means, covs, _ = _mixture_tilt_params(m.base, m.c, reg_mat)
        mean = w @ means
        second = np.einsum("j,jab->ab", w, covs) + np.einsum("j,ja,jb->ab", w, means, means)
        cov = second - np.outer(mean, mean)
        return Moments(mean, 0.5 * (cov + cov.T), 0.0)
    return _generic_is_moments(m, budget, rng, ess_floor)


def sample(
    m: TiltedMeasure,
    n: int,
    rng: np.random.Generator,
    *,
    max_tries: int = DEFAULT_MAX_TRIES,
) -> np.ndarray:
    """Draw ``n`` samples from the tilted measure; deterministic given ``rng``.

    Gaussian and mixture bases are sampled exactly (component selection plus
    Cholesky).  Generic bases use rejection sampling from a Gaussian envelope,
    exact in distribution; exceeding ``max_tries`` for one draw raises
    ``SamplingBudgetError`` carrying the observed acceptance rate.
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    reg_mat = m.reg_matrix()
    if isinstance(m.base, GaussianMeasure):
        mean, cov, _ = _tilt_params_raw(m.base.mean, m.base.cov, m.base.precision, m.c, reg_mat)
        chol = np.sqrt(cov) if m.dim == 1 else np.linalg.cholesky(cov)
        return mean + rng.standard_normal((n, m.dim)) @ chol.T
    if isinstance(m.base, GaussianMixture):
        w, means, covs, _ = _mixture_tilt_params(m.base, m.c, reg_mat)
        chols = np.sqrt(covs) if m.dim == 1 else np.linalg.cholesky(covs)
        return _mixture_draws(w, means, chols, n, rng)
    return _generic_rejection_sample(m, n, rng, max_tries)


def _log_normalize(log_w: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted log-sum-exp along ``axis`` and the weights ``exp(log_w - max) / sum``."""
    top = log_w.max(axis=axis, keepdims=True)
    e = log_w - top
    np.exp(e, out=e)
    total = e.sum(axis=axis, keepdims=True)
    e *= 1.0 / total
    return np.squeeze(top + np.log(total), axis=axis), e


class TiltStep(NamedTuple):
    """Path-independent posterior algebra at one scalar regularizer ``reg``.

    For mixture component j (a Gaussian base is one component) with
    precision P, mean mu, covariance S and weight w: ``inv[j]`` is
    ``(P + reg I)^-1``, ``offset[j]`` is ``(P + reg I)^-1 P mu``, ``shift[j]``
    is ``P mu`` and ``const[j]`` is ``log w - mu' P mu / 2 - logdet(I + reg S) / 2``,
    each with a trailing unit axis that broadcasts over a batch laid out as (d, n).
    """

    reg: float
    inv: np.ndarray
    offset: np.ndarray
    shift: np.ndarray
    const: np.ndarray

    def posterior(self, tilts) -> tuple[np.ndarray, np.ndarray | None]:
        """Component posterior means ``(J, d, n)`` and weights ``(J, n)``, or
        ``None`` when J = 1, for the rows of ``tilts``.  Sums run elementwise
        in a fixed order, never through BLAS, so no row depends on another."""
        ct = np.atleast_2d(np.asarray(tilts, dtype=float)).T
        d = self.shift.shape[1]
        if ct.shape[0] != d:
            raise ValueError(f"tilt vectors have {ct.shape[0]} columns, the base has dimension {d}")
        means = ct[0] * self.inv[:, :, 0] + self.offset
        for e in range(1, d):
            means += ct[e] * self.inv[:, :, e]
        if means.shape[0] == 1:
            return means, None
        prod = (ct + self.shift) * means
        log_w = prod[:, 0]
        for e in range(1, d):
            log_w = log_w + prod[:, e]
        return means, _log_normalize(0.5 * log_w + self.const, axis=0)[1]


def tilt_plan(base: TargetMeasure, regs) -> Callable[[int], TiltStep]:
    """Everything the batched tilt kernel needs that does not depend on the
    tilt vectors, for ``base`` at each scalar regularizer in ``regs`` (capped
    at ``REG_CAP`` as ``tilt`` caps it), as a map from the index into ``regs``
    to that point's ``TiltStep``.  Gaussian and mixture bases only."""
    if isinstance(base, GaussianMeasure):
        log_w, mu, cov, prec = np.zeros(1), base.mean[None], base.cov[None], base.precision[None]
    elif isinstance(base, GaussianMixture):
        log_w, mu, cov, prec = np.log(base.weights), base.means, base.covs, base._precisions
    else:
        raise TypeError("the batched tilt kernel needs a Gaussian or mixture base")
    t = np.atleast_1d(np.asarray(regs, dtype=float))
    if t.ndim != 1 or not np.isfinite(t).all() or (t < 0.0).any():
        raise ValueError("scalar regularizers must be finite and nonnegative")
    t = np.minimum(t, REG_CAP)[:, None, None, None]
    eye = np.eye(mu.shape[1])
    inv = np.linalg.inv(prec + t * eye)[..., None]
    shift = np.einsum("jab,jb->ja", prec, mu)
    offset = np.einsum("kjabx,jb->kjax", inv, shift)
    const = log_w - 0.5 * np.einsum("ja,ja->j", mu, shift) - 0.5 * np.linalg.slogdet(eye + t * cov)[1]
    t, shift, const = t.ravel(), shift[..., None], const[..., None]
    return lambda k: TiltStep(float(t[k]), inv[k], offset[k], shift, const[k])


def posterior_mean_batch(base: TargetMeasure, tilts: np.ndarray, t: float | TiltStep) -> np.ndarray:
    """Posterior means of ``tilt(base, c_i, t)`` for rows ``c_i`` of ``tilts``.

    ``t`` is a scalar regularizer, or a step ``tilt_plan(base, regs)(k)``,
    which skips all path-independent work.
    """
    step = t if isinstance(t, TiltStep) else tilt_plan(base, [t])(0)
    means, w = step.posterior(tilts)
    if w is None:
        return means[0].T
    return np.add.reduce(w[:, None, :] * means, axis=0).T


def sample_tilted_batch(
    base: TargetMeasure, tilts: np.ndarray, t: float, rng: np.random.Generator
) -> np.ndarray:
    """One exact draw from each ``tilt(base, c_i, t)``; Gaussian/mixture only."""
    step = tilt_plan(base, [t])(0)
    means, w = step.posterior(tilts)
    chols = np.linalg.cholesky(step.inv[..., 0])
    if w is None:
        return means[0].T + rng.standard_normal(means[0].T.shape) @ chols[0].T
    return _mixture_draws(w.T, means.transpose(2, 0, 1), chols, w.shape[1], rng)


# JSON construction and the builtin potential zoo.

POTENTIALS: dict[str, Callable[..., GenericPotential]] = {}


def register_potential(name: str):
    def decorate(factory: Callable[..., GenericPotential]):
        POTENTIALS[name] = factory
        return factory

    return decorate


@register_potential("gaussian")
def gaussian_potential(dim: int = 1, mean: float = 0.0, precision: float = 1.0) -> GenericPotential:
    """Quadratic potential 0.5 * precision * |x - mean|^2."""
    mu = np.full(dim, float(mean))
    p = float(precision)

    def value(x: np.ndarray) -> float:
        diff = np.asarray(x, dtype=float) - mu
        return 0.5 * p * float(diff @ diff)

    def grad(x: np.ndarray) -> np.ndarray:
        return p * (np.asarray(x, dtype=float) - mu)

    return GenericPotential(dim, value, grad, strong_convexity=p, smoothness=p)


@register_potential("quartic")
def quartic_potential(dim: int = 1, quartic: float = 0.1, smoothness: float = 40.0) -> GenericPotential:
    """Convex quadratic-plus-quartic well 0.5 |x|^2 + quartic * sum(x^4)."""
    a = float(quartic)
    if a < 0:
        raise ValueError("quartic coefficient must be nonnegative")

    def value(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ x) + a * float(np.sum(x**4))

    def grad(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x + 4.0 * a * x**3

    return GenericPotential(dim, value, grad, strong_convexity=1.0, smoothness=float(smoothness))


def target_from_json(obj: dict) -> TargetMeasure:
    """Construct a target from a JSON-style description.

    Kinds: ``gaussian`` (mean, cov), ``mixture`` (components), ``potential-ref``
    (name plus keyword parameters for the registered factory).  Covariance
    arrays are row-major nested lists.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("target description must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "gaussian":
        try:
            return GaussianMeasure(np.asarray(obj["mean"]), np.asarray(obj["cov"]))
        except KeyError as exc:
            raise ValueError(f"gaussian target missing field {exc}") from exc
    if kind == "mixture":
        comps = obj.get("components")
        if not comps:
            raise ValueError("mixture target needs a nonempty 'components' list")
        return GaussianMixture.from_components(
            [(c["weight"], c["mean"], c["cov"]) for c in comps]
        )
    if kind == "potential-ref":
        name = obj.get("name")
        if name not in POTENTIALS:
            raise ValueError(f"unknown potential {name!r}; registered: {sorted(POTENTIALS)}")
        params = {k: v for k, v in obj.items() if k not in ("kind", "name")}
        return POTENTIALS[name](**params)
    raise ValueError(f"unknown target kind {kind!r}")
