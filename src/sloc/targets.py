"""Base measures and their exponential tilts.

Two target families are supported: finite Gaussian mixtures, of which a
multivariate Gaussian is the one-component case, and generic potentials
carrying a strong-convexity certificate.  Mixtures admit closed-form tilted
moments, partition functions, and exact samplers; generic potentials fall back
to rejection sampling and self-normalized importance sampling.

A tilt reweights the base density by ``exp(<c, x> - 0.5 * x' R x)`` and
renormalizes, where the regularizer ``R`` is either a scalar ``t`` (meaning
``t * I``) or a symmetric PSD matrix.  As ``t`` grows the tilted measure
concentrates toward a point mass at the channel estimate ``c / t``; scalar
regularizers are capped at ``REG_CAP`` instead of modeling the degenerate
limit with a separate Dirac type.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .sde import generator

SYM_RTOL = 1e-12
REG_CAP = 1e12
GRAD_CHECK_TOL = 1e-5
BATCH_PROBE_RTOL = 1e-12
MODE_SEARCH_STEPS = 50
"""Cap on the iterations of ``_generic_envelope``'s mode search.  Each
iteration evaluates one gradient row for every tilt still searching, so an
envelope of K tilts costs at most ``K * (MODE_SEARCH_STEPS + 1)`` gradient
rows; a row that meets ``MODE_SEARCH_TOL`` stops well before the cap."""
MODE_SEARCH_TOL = 1e-9
"""Gradient norm at which a row of the mode search stops.  The envelope is
exact wherever the search ends; the tolerance decides only how much
acceptance is lost.  Against the envelope at the exact mode, g-convexity
bounds the loss in log acceptance rate by ``|grad U(x_hat)|^2 / (2 g)``: half
the square of the gradient times the proposal scale ``1 / sqrt(g)``.  At
1e-9 that is below 5e-17 for every ``g >= 1e-2``, under double-precision
resolution, so no accept decision is expected to move.  The gradient's
rounding floor, about ``eps * L |x|``, lies orders of magnitude lower at the
tilts the chains and tilt runs reach."""
DEFAULT_MAX_TRIES = 10_000
DEFAULT_ESS_FLOOR = 64.0
# Uniform weights give an ESS equal to the budget only up to rounding.
ESS_FLOOR_RTOL = 1e-9

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
class GaussianMixture:
    """Finite Gaussian mixture; weights in (0, 1] summing to one.

    Attributes:
        weights: Component weights, shape ``(J,)``.
        means: Component means, shape ``(J, d)``.
        covs: Component covariances, shape ``(J, d, d)``.
        mean, cov: The mixture's mean ``(d,)`` and covariance ``(d, d)``,
            read-only; with one component, that component's.
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
        for name, values in (("weights", w), ("means", means), ("covariances", covs)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"mixture {name} must be finite")
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

    @cached_property
    def _precisions(self) -> np.ndarray:
        eye = np.eye(self.dim)
        return _readonly(np.stack([np.linalg.solve(c, eye) for c in self.covs]))

    @cached_property
    def _chols(self) -> np.ndarray:
        return _readonly(np.stack([np.linalg.cholesky(c) for c in self.covs]))

    @cached_property
    def _spectral(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per component with weight w, mean mu and precision P: ``s`` and ``V`` of
        ``cov = V diag(s) V'``, ``V' mu``, ``P mu = V diag(1 / s) V' mu`` and
        ``log w - mu' P mu / 2``."""
        evals, evecs = np.linalg.eigh(self.covs)
        rot = np.einsum("jba,jb->ja", evecs, self.means)
        shift = np.einsum("jab,jb->ja", evecs, rot / evals)
        const = np.log(self.weights) - 0.5 * np.einsum("ja,ja->j", self.means, shift)
        return tuple(_readonly(a) for a in (evals, evecs, rot, shift, const))

    @cached_property
    def _log_norms(self) -> np.ndarray:
        logdets = np.asarray([np.linalg.slogdet(c)[1] for c in self.covs])
        out = -0.5 * (self.dim * math.log(2.0 * math.pi) + logdets)
        out.setflags(write=False)
        return out

    @cached_property
    def mean(self) -> np.ndarray:
        return _readonly(_mixture_moments(self.weights, self.means, self.covs)[0])

    @cached_property
    def cov(self) -> np.ndarray:
        return _readonly(_mixture_moments(self.weights, self.means, self.covs)[1])

    def log_density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        diff = x[..., None, :] - self.means
        q = np.einsum("...ji,jik,...jk->...j", diff, self._precisions, diff)
        comp = -0.5 * q + self._log_norms + np.log(self.weights)
        return _log_normalize(comp)[0]


class GaussianMeasure(GaussianMixture):
    """Multivariate normal ``N(mean, cov)`` with an SPD covariance: the
    one-component mixture, whose ``mean`` and ``cov`` are that component's."""

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match dimension {mean.size}"
            )
        super().__init__(np.ones(1), mean[None], cov[None])

    @property
    def precision(self) -> np.ndarray:
        return self._precisions[0]


@dataclass(frozen=True)
class GenericPotential:
    """Target known only through its potential V, density proportional to exp(-V).

    ``strong_convexity`` is a certified lower bound alpha with
    ``hess V >= alpha * I`` everywhere.  ``smoothness`` is an upper bound
    ``beta >= alpha`` that, with alpha, sets the step and the momentum of the
    envelope's accelerated mode search; it may be a bound valid on the region
    the sampler visits rather than a global one.  The gradient is always
    cross-checked against central finite differences of the potential on
    fixed random probe points at construction time.

    ``potential`` and ``gradient`` take one point ``(d,)``; they may also take
    rows ``(n, d)`` and return ``(n,)`` values and ``(n, d)`` gradients.  At
    construction each is called once on the stacked probe points: one whose
    result has that shape and equals its per-point values to
    ``BATCH_PROBE_RTOL`` is called on rows as it is, any other is wrapped in a
    loop over rows.  ``potential_rows`` and ``gradient_rows`` evaluate rows
    either way, and are what the samplers call.
    """

    dim: int
    potential: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    strong_convexity: float
    smoothness: float | None = None
    potential_rows: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)
    gradient_rows: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if self.strong_convexity < 0.0:
            raise ValueError("strong_convexity must be nonnegative")
        if self.smoothness is not None and self.smoothness < self.strong_convexity:
            raise ValueError("smoothness bound must be at least strong_convexity")
        points = generator(_GRAD_PROBE_SEED, 0).standard_normal((5, self.dim))
        values = np.array([float(self.potential(x)) for x in points])
        grads = np.array([np.atleast_1d(np.asarray(self.gradient(x), dtype=float)) for x in points])
        object.__setattr__(self, "potential_rows", _on_rows(self.potential, points, values))
        object.__setattr__(self, "gradient_rows", _on_rows(self.gradient, points, grads))
        self._verify_gradient(points, grads)

    def _verify_gradient(self, points: np.ndarray, grads: np.ndarray) -> None:
        for x, grad in zip(points, grads):
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


def _on_rows(fn: Callable, points: np.ndarray, per_point: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``fn`` itself if it maps the stacked ``points`` to their ``per_point``
    values, else ``fn`` applied row by row."""
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            stacked = np.asarray(fn(points), dtype=float)
    except (TypeError, ValueError, IndexError):
        stacked = None
    if stacked is not None and stacked.shape == per_point.shape and np.allclose(
        stacked, per_point, rtol=BATCH_PROBE_RTOL, atol=0.0
    ):
        return fn
    tail = per_point.shape[1:]
    return lambda xs: np.array([np.asarray(fn(x), dtype=float).reshape(tail) for x in xs]).reshape(-1, *tail)


TargetMeasure = Union[GaussianMixture, GenericPotential]


def base_log_density(base: TargetMeasure, x) -> np.ndarray:
    """Log-density of the base measure.

    Normalized for Gaussian and mixture bases; for a generic potential this is
    the unnormalized value ``-V(x)``.
    """
    if isinstance(base, GaussianMixture):
        return base.log_density(x)
    x = np.asarray(x, dtype=float)
    if x.ndim <= 1:
        return -float(base.potential(np.atleast_1d(x)))
    return -base.potential_rows(x)


def sample_base(base: TargetMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` samples from the base measure; exact for Gaussian/mixture.

    Generic potentials are drawn through the identity tilt's rejection
    sampler, which requires a strictly positive convexity certificate.
    """
    if isinstance(base, GenericPotential):
        return sample(tilt(base, np.zeros(base.dim), 0.0), n, rng)
    return _mixture_draws(base.weights, base.means, base._chols, n, rng)


def _mixture_draws(weights, means, chols, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws from the mixture of ``N(means[j], chols[j] chols[j]')``; weights
    ``(n, J)`` and means ``(n, J, d)`` give each draw its own mixture.  J = 1 draws no index."""
    if len(chols) == 1:
        return means[..., 0, :] + rng.standard_normal((n, means.shape[-1])) @ chols[0].T
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
        d = self.base.dim
        if c.shape != (d,):
            raise ValueError(f"tilt vector shape {c.shape} does not match dimension {d}")
        object.__setattr__(self, "c", _readonly(c))
        reg = _checked_regs(np.asarray(self.reg, dtype=float)[None], d)[0]
        object.__setattr__(self, "reg", float(reg) if reg.ndim == 0 else _readonly(reg))

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def _closed_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Posterior component weights ``(J,)``, means ``(J, d)`` and covariances
        ``(J, d, d)``, and the log-partition, from the one-row ``tilt_plan``
        step at ``reg``; Gaussian and mixture bases, computed once per measure."""
        step = _plan(self.base, np.asarray([self.reg], dtype=float))(0)
        means, log_z, w = step._components(self.c)
        return w[:, 0], means[..., 0], step.inv[..., 0], float(log_z[0])


def tilt(base: TargetMeasure, c, reg) -> TiltedMeasure:
    """Tilt ``base`` by ``exp(<c, x> - 0.5 x' R x)`` (renormalized).

    Raises ValueError on dimension mismatch or a regularizer that is not a
    nonnegative scalar / symmetric PSD matrix.
    """
    return TiltedMeasure(base, c, reg)


class Moments(NamedTuple):
    mean: np.ndarray
    cov: np.ndarray
    stderr: float


def log_partition(m: TiltedMeasure) -> float:
    """Exact ``log int exp(<c,x> - 0.5 x'Rx) base(dx)``; Gaussian/mixture only."""
    return m._closed_form[3]


def _reg_extremes(reg: Union[float, np.ndarray]) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a validated regularizer."""
    if np.ndim(reg) == 0:
        return float(reg), float(reg)
    eigs = np.linalg.eigvalsh(np.asarray(reg))
    return float(eigs[0]), float(eigs[-1])


def _reg_times(reg: Union[float, np.ndarray], x: np.ndarray) -> np.ndarray:
    """``R x`` for each row of ``x``; a scalar regularizer scales elementwise."""
    return reg * x if np.ndim(reg) == 0 else x @ np.transpose(reg)


def _tilted_potential(base: GenericPotential, c: np.ndarray, reg, x: np.ndarray) -> np.ndarray:
    """``V(x) - <c, x> + x' R x / 2`` at rows ``x (n, d)``, tilts ``c`` ``(n, d)`` or ``(d,)``;
    the row sums go through ``np.add.reduce``, the bits of ``np.sum`` without its wrapper."""
    return base.potential_rows(x) - np.add.reduce(c * x, axis=-1) + 0.5 * np.add.reduce(x * _reg_times(reg, x), axis=-1)


def _tilted_gradient(base: GenericPotential, c: np.ndarray, reg, x: np.ndarray) -> np.ndarray:
    return base.gradient_rows(x) - c + _reg_times(reg, x)


class _Envelope(NamedTuple):
    """Gaussian envelopes of K tilts sharing one regularizer: row k of each
    array belongs to the tilt ``tilts[k]``; every proposal has precision ``g``."""

    tilts: np.ndarray
    x_hat: np.ndarray
    u_hat: np.ndarray
    g_hat: np.ndarray
    g: float
    center: np.ndarray


def _generic_envelope(m: TiltedMeasure, tilts=None) -> _Envelope:
    """Gaussian envelopes of ``tilt(m.base, c, m.reg)`` for the rows ``c`` of
    ``tilts (K, d)``, by default the one tilt ``m.c``.

    With alpha the base's convexity, beta its smoothness and lambda_min,
    lambda_max the regularizer's extreme eigenvalues, the tilted potential U
    is ``g``-convex and ``L``-smooth for ``g = alpha + lambda_min`` and
    ``L = beta + lambda_max``.  The mode search is gradient descent with
    Barzilai-Borwein two-point steps (IMA J. Numer. Anal. 8, 1988): from
    ``x = 0`` a first step of ``1 / L``, then per row ``s's / s'y`` from its
    last move ``s`` and gradient change ``y``, clipped to ``[1 / L, 1 / g]``.
    A step that raised the row's ``|grad U|`` is followed by a step of
    ``1 / L``, which never raises it (an L-smooth convex gradient is
    co-coercive): where the curvature jumps near the mode, two-point steps
    alone overshoot across the jump again and again and can stall.
    Each row stops on its own once ``|grad U| <= MODE_SEARCH_TOL``, after
    ``MODE_SEARCH_STEPS`` steps at most, and ``x_hat``, ``g_hat`` are the
    iterate with the smallest gradient the row has seen and that gradient:
    the BB step is not monotone, and a row whose gradient turns non-finite
    stops and falls back to its best iterate, so ``x_hat`` and ``g_hat`` stay
    finite whenever the gradient at 0 is.  Every operation is elementwise or
    a reduction within a row, so no row's iterates depend on another's: for
    a potential evaluated row by row, a batched envelope is bitwise its
    single-tilt envelopes.  The proposal has precision ``g`` and is centered
    at the gradient-corrected point ``x_hat - grad U(x_hat) / g``, so the
    envelope stays valid wherever the search ends.
    """
    base = m.base
    lam_min, lam_max = _reg_extremes(m.reg)
    g = base.strong_convexity + lam_min
    if g <= 0.0:
        raise ValueError(
            "rejection sampling needs alpha + lambda_min(reg) > 0 for a generic base"
        )
    if base.smoothness is None or not math.isfinite(base.smoothness):
        raise ValueError("rejection sampling needs a finite smoothness bound")
    cs = m.c[None] if tilts is None else np.atleast_2d(np.asarray(tilts, dtype=float))
    if cs.ndim != 2 or cs.shape[1] != m.dim:
        raise ValueError(f"tilt vectors of shape {cs.shape} do not match dimension {m.dim}")
    shortest, longest = 1.0 / (base.smoothness + lam_max), 1.0 / g
    tol2 = MODE_SEARCH_TOL**2
    # The searching rows keep their iterate x, gradient grad, squared norm g2
    # and step, and their best iterate so far (bx, bg, bn); a row that stops
    # leaves its best in the outputs x_hat and g_hat and the rest are compacted.
    x_hat, g_hat = np.empty(cs.shape), np.empty(cs.shape)
    rows, c, x = np.arange(len(cs)), cs, np.zeros(cs.shape)
    grad = _tilted_gradient(base, c, m.reg, x)
    g2 = np.vecdot(grad, grad)
    step, bx, bg, bn = np.full(len(cs), shortest), x, grad, np.full(len(cs), math.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(MODE_SEARCH_STEPS + 1):
            better = g2 < bn
            if np.count_nonzero(better & (g2 > tol2)) == rows.size:
                bx, bg, bn = x, grad, g2
            else:
                keep = better[:, None]
                bx, bg, bn = np.where(keep, x, bx), np.where(keep, grad, bg), np.fmin(bn, g2)
                go = (g2 > tol2) & (g2 < math.inf)
                if not go.any():
                    break
                if not go.all():
                    done = rows[~go]
                    x_hat[done], g_hat[done] = bx[~go], bg[~go]
                    rows, c, x, grad, g2, step, bx, bg, bn = (
                        a[go] for a in (rows, c, x, grad, g2, step, bx, bg, bn)
                    )
            if k == MODE_SEARCH_STEPS:
                break
            x_next = x - step[:, None] * grad
            grad_next = _tilted_gradient(base, c, m.reg, x_next)
            gg = np.vecdot(grad_next, grad_next)
            # The two-point step s's / s'y with s = -step * grad and
            # y = grad_next - grad, over the row's own squared norms.  After a
            # step that raised |grad U| the next is 1 / L, which never does.
            bb = step * g2 / (g2 - np.vecdot(grad_next, grad))
            step = np.where(gg > g2, shortest, np.fmin(np.fmax(bb, shortest), longest))
            x, grad, g2 = x_next, grad_next, gg
    x_hat[rows], g_hat[rows] = bx, bg
    u_hat = _tilted_potential(base, cs, m.reg, x_hat)
    return _Envelope(cs, x_hat, u_hat, g_hat, g, x_hat - g_hat / g)


def _generic_rejection_sample(
    m: TiltedMeasure, n: int, rng: np.random.Generator, max_tries: int
) -> np.ndarray:
    """``n`` exact draws from ``m`` by rejection from its envelope."""
    return _rejection_rounds(m, _generic_envelope(m), np.zeros(n, dtype=int), rng, max_tries)


def _rejection_rounds(
    m: TiltedMeasure, env: _Envelope, which: np.ndarray, rng: np.random.Generator, max_tries: int
) -> np.ndarray:
    """One exact draw from ``tilt(m.base, env.tilts[k], m.reg)`` for each entry
    ``k`` of ``which``, by rejection in rounds: a round proposes once for every
    row still pending, and ``max_tries`` rounds at most give no row more than
    ``max_tries`` proposals."""
    scale = 1.0 / math.sqrt(env.g)
    out = np.empty((which.size, m.dim))
    pending = np.arange(which.size)
    total_tries = 0
    for _ in range(max_tries):
        if pending.size == 0:
            break
        total_tries += pending.size
        k = which[pending]
        z = env.center[k] + scale * rng.standard_normal((pending.size, m.dim))
        log_u = np.log(rng.random(pending.size))
        dz = z - env.x_hat[k]
        slack = (
            _tilted_potential(m.base, env.tilts[k], m.reg, z)
            - env.u_hat[k]
            - np.sum(env.g_hat[k] * dz, axis=1)
            - 0.5 * env.g * np.sum(dz * dz, axis=1)
        )
        accept = log_u <= -slack
        out[pending[accept]] = z[accept]
        pending = pending[~accept]
    if pending.size:
        raise SamplingBudgetError(total_tries, which.size - pending.size)
    return out


def _mixture_moments(w, means, covs) -> tuple[np.ndarray, np.ndarray]:
    """Mean ``w @ means`` and covariance in centered form,
    ``sum_j w_j (C_j + (m_j - m)(m_j - m)')``, which does not cancel."""
    mean = w @ means
    spread = means - mean
    return mean, np.einsum("j,jab->ab", w, covs + spread[:, :, None] * spread[:, None, :])


def _generic_is_moments(m: TiltedMeasure, budget: int, rng: np.random.Generator | None) -> Moments:
    """Self-normalized importance sampling with the rejection proposal."""
    if budget <= 0:
        raise ValueError("a positive budget is required for a generic base")
    if rng is None:
        rng = generator(_DEFAULT_IS_SEED, 0)
    env = _generic_envelope(m)
    d = m.dim
    draws = env.center + rng.standard_normal((budget, d)) / math.sqrt(env.g)
    log_q = -0.5 * env.g * np.sum((draws - env.center) ** 2, axis=1)
    log_u = _tilted_potential(m.base, m.c, m.reg, draws)
    _, w = _log_normalize(-log_u - log_q)
    ess = 1.0 / float(np.sum(w**2))
    if ess < DEFAULT_ESS_FLOOR * (1.0 - ESS_FLOOR_RTOL):
        raise EffectiveSampleSizeError(ess, DEFAULT_ESS_FLOOR)
    mean = w @ draws
    centered = draws - mean
    cov = np.einsum("n,na,nb->ab", w, centered, centered)
    se = np.sqrt(np.einsum("n,na->a", w**2, centered**2))
    return Moments(mean, 0.5 * (cov + cov.T), float(se.max()))


def posterior_moments(m: TiltedMeasure, budget: int = 0, *, rng: np.random.Generator | None = None) -> Moments:
    """Mean and covariance of a tilted measure.

    Exact (stderr 0) for Gaussian and mixture bases.  For a generic base the
    estimate is self-normalized importance sampling from the rejection
    proposal with ``budget`` draws, which raises ``EffectiveSampleSizeError``
    below an effective sample size of ``DEFAULT_ESS_FLOOR``; the reported
    stderr is the largest coordinatewise standard error of the mean.
    """
    if isinstance(m.base, GenericPotential):
        return _generic_is_moments(m, budget, rng)
    mean, cov = _mixture_moments(*m._closed_form[:3])
    return Moments(mean, 0.5 * (cov + cov.T), 0.0)


def sample(m: TiltedMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` samples from the tilted measure; deterministic given ``rng``.

    Gaussian and mixture bases are sampled exactly (component selection plus
    Cholesky).  Generic bases use rejection sampling from a Gaussian envelope,
    exact in distribution; needing more than ``DEFAULT_MAX_TRIES`` proposals
    for one draw raises ``SamplingBudgetError`` carrying the observed
    acceptance rate.
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    if isinstance(m.base, GenericPotential):
        return _generic_rejection_sample(m, n, rng, DEFAULT_MAX_TRIES)
    w, means, covs, _ = m._closed_form
    return _mixture_draws(w, means, np.linalg.cholesky(covs), n, rng)


def _log_normalize(log_w: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted log-sum-exp along ``axis`` and the weights ``exp(log_w - max) / sum``,
    through the ufuncs directly."""
    top = np.maximum.reduce(log_w, axis=axis, keepdims=True)
    e = np.subtract(log_w, top)
    np.exp(e, out=e)
    total = np.add.reduce(e, axis=axis, keepdims=True)
    e *= 1.0 / total
    return np.squeeze(top + np.log(total), axis=axis), e


class TiltStep(NamedTuple):
    """Path-independent posterior algebra at one regularizer ``reg``, a scalar
    ``t`` (meaning ``t I``) or a PSD matrix ``R``.

    For mixture component j (a Gaussian base is one component) with
    precision P, mean mu, covariance S and weight w: ``inv[j]`` is
    ``(P + R)^-1``, ``offset[j]`` is ``(P + R)^-1 P mu``, ``shift[j]``
    is ``P mu`` and ``const[j]`` is ``log w - mu' P mu / 2 - logdet(I + R S) / 2``,
    each with a trailing unit axis that broadcasts over a batch laid out as (d, n).
    Callers pass tilt rows ``(n, d)``; the stepping engine passes the row view
    ``c.T`` of its column state ``c (d, n)``, whose transpose the kernel then
    reads as contiguous columns.  A scalar ``t``, or a matrix exactly equal to
    ``t I``, reads them elementwise off the base's cached eigendecomposition
    ``S = V diag(s) V'``; any other matrix goes through ``inv`` and ``slogdet``.

    The kernel, ``_components``, is one straight run of elementwise ufunc
    calls on the columns ``c_e`` of the tilts, in a fixed order and never
    through BLAS, so no row depends on another and a single row (n = 1) gets
    the bits it gets in any batch:

    1. means ``m = c_0 inv[:, :, 0] + offset``, then ``m += c_e inv[:, :, e]``
       for e = 1, .., d - 1;
    2. log-masses ``l = (c + shift) m`` summed over e in order, ``l *= 0.5``
       and ``l += const`` (skipped when J = 1 and no log-partition is asked);
    3. ``top``, the maximum of the ``l_j`` taken over j in order; ``l - top``
       and its ``exp``; ``total``, the sum over j in order; the weights
       ``exp(l - top) * (1 / total)`` and the log-partitions ``top + log(total)``.

    ``posterior_mean_batch`` then sums ``w_j m_j`` over j in order.
    """

    reg: Union[float, np.ndarray]
    inv: np.ndarray
    offset: np.ndarray
    shift: np.ndarray
    const: np.ndarray

    def _components(self, tilts, partition: bool = True) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Component posterior means ``(J, d, n)``, log-partitions ``(n,)`` and
        component weights ``(J, n)`` for the rows of ``tilts``, in the order
        the class gives.  Without ``partition`` the log-partitions are None,
        and so are the weights when J = 1.  A 2-D float64 array is read as it
        is, without a conversion call."""
        if type(tilts) is not np.ndarray or tilts.ndim != 2 or tilts.dtype != np.float64:
            tilts = np.atleast_2d(np.asarray(tilts, dtype=float))
        ct, inv = tilts.T, self.inv
        d = inv.shape[1]
        if ct.shape[0] != d:
            raise ValueError(f"tilt vectors have {ct.shape[0]} columns, the base has dimension {d}")
        means = ct[0] * inv[:, :, 0] + self.offset
        for e in range(1, d):
            means += ct[e] * inv[:, :, e]
        if len(means) == 1 and not partition:
            return means, None, None
        prod = ct + self.shift
        prod *= means
        w = prod[:, 0]
        for e in range(1, d):
            w = w + prod[:, e]
        w *= 0.5
        w += self.const
        top = w[0]
        for j in range(1, len(w)):
            top = np.maximum(top, w[j])
        w = w - top  # a new array: for J = 1, top is a view of w
        np.exp(w, out=w)
        total = w[0]
        for j in range(1, len(w)):
            total = total + w[j]
        w *= 1.0 / total
        return means, top + np.log(total) if partition else None, w

    def mean_and_log_partition(self, tilts) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means ``(n, d)`` and log-partitions ``(n,)`` for the rows of
        ``tilts``, with the row independence of ``posterior``."""
        means, log_z, w = self._components(tilts)
        return _weighted_mean(means, w), log_z

    def posterior(self, tilts) -> tuple[np.ndarray, np.ndarray | None]:
        """Component posterior means ``(J, d, n)`` and weights ``(J, n)``, or
        ``None`` when J = 1, for the rows of ``tilts``."""
        means, _, w = self._components(tilts, False)
        return means, w


def _plan_step(base: GaussianMixture, reg) -> TiltStep:
    """``TiltStep`` of ``base`` with leading axes ``(...)`` at validated
    regularizers ``reg``: scalars ``(...)`` or matrices ``(..., d, d)``.
    Scalars, and matrices exactly equal to ``t I``, read
    ``V diag(s / (1 + t s)) V'``, ``V diag(1 / (1 + t s)) V' mu`` and
    ``sum log1p(t s)`` off ``_spectral``; other matrices take ``inv`` and
    ``slogdet``."""
    if not isinstance(base, GaussianMixture):
        raise TypeError("the Gaussian-tilt kernel needs a Gaussian or mixture base")
    evals, evecs, rot, shift, const0 = base._spectral
    if getattr(reg, "ndim", 0) > 1:
        t = reg[..., 0, 0]
        eye = np.eye(base.dim)
        iso = (reg == np.multiply.outer(t, eye)).all(axis=(-2, -1))
        if iso.all():
            return _plan_step(base, t)._replace(reg=reg)
        mats = np.expand_dims(reg, -3)
        inv = np.linalg.inv(base._precisions + mats)
        offset = np.einsum("...jab,jb->...ja", inv, shift)
        const = const0 - 0.5 * np.linalg.slogdet(eye + mats @ base.covs)[1]
        if iso.any():
            part = _plan_step(base, t[iso])
            inv[iso], offset[iso], const[iso] = part.inv, part.offset, part.const
        return TiltStep(reg, inv, offset, shift, const)
    ts = np.multiply.outer(reg, evals)
    den = 1.0 + ts
    inv = np.einsum("jab,...jb,jcb->...jac", evecs, evals / den, evecs)
    offset = np.einsum("jab,...jb->...ja", evecs, rot / den)
    return TiltStep(reg, inv, offset, shift, const0 - 0.5 * np.log1p(ts).sum(axis=-1))


def tilt_plan(base: TargetMeasure, regs) -> Callable[[int], TiltStep]:
    """Everything the batched tilt kernel needs that does not depend on the
    tilt vectors, for ``base`` at each regularizer in ``regs``, as a map from
    the index into ``regs`` to that point's ``TiltStep``.  ``regs`` holds
    scalars (capped at ``REG_CAP`` as ``tilt`` caps them) or ``(d, d)``
    symmetric PSD matrices (uncapped, as ``tilt`` leaves them); see ``TiltStep``
    for which take the eigenbasis formulas.  Gaussian and mixture bases only."""
    return _plan(base, _checked_regs(regs, base.dim))


def _checked_regs(regs, d: int) -> np.ndarray:
    """``regs`` checked, and scalars capped, as ``tilt_plan`` describes; ``tilt`` checks its one ``reg`` here too."""
    t = np.atleast_1d(np.asarray(regs, dtype=float))
    if t.ndim == 1:
        if not (np.isfinite(t) & (t >= 0.0)).all():
            raise ValueError("scalar regularizer must be finite and nonnegative")
        return np.minimum(t, REG_CAP)
    if t.shape[1:] != (d, d):
        raise ValueError(f"matrix regularizer shape {t.shape[1:]} does not match dimension {d}")
    for r in t:
        _check_spd(r, "regularizer", semidefinite=True)
    return t


def _plan(base: TargetMeasure, t: np.ndarray) -> Callable[[int], TiltStep]:
    """``tilt_plan`` at regularizers ``t`` already checked and capped, as
    ``TiltedMeasure`` holds them; every point's ``TiltStep`` is built here, so
    a step only looks it up."""
    _, inv, offset, shift, const = (a[..., None] for a in _plan_step(base, t))
    return [TiltStep(r, i, o, shift, c) for r, i, o, c in zip(t, inv, offset, const)].__getitem__


def posterior_mean_batch(base: TargetMeasure, tilts: np.ndarray, step: TiltStep) -> np.ndarray:
    """Posterior means of ``tilt(base, c_i, regs[k])`` for rows ``c_i`` of
    ``tilts``, from the step ``tilt_plan(base, regs)(k)``."""
    return _weighted_mean(*step.posterior(tilts))


def _weighted_mean(means: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Rows of the ``w``-weighted sum of means ``(J, d, n)``, elementwise; J = 1 if ``w`` is None."""
    return means[0].T if w is None else np.add.reduce(w[:, None, :] * means, axis=0).T


def _tilt_means(base: TargetMeasure, regs, budget: int | None = None, rng: np.random.Generator | None = None):
    """``(k, tilts) ->`` posterior means of ``tilt(base, c_i, regs[k])`` over rows
    ``c_i``: one ``tilt_plan`` for closed-form bases; given a ``budget``, a generic
    base goes row by row through ``posterior_moments`` with that budget and ``rng``."""
    if budget is None or not isinstance(base, GenericPotential):
        plan = tilt_plan(base, regs)
        return lambda k, tilts: posterior_mean_batch(base, tilts, plan(k))
    return lambda k, tilts: np.stack(
        [posterior_moments(tilt(base, c, regs[k]), budget, rng=rng).mean for c in tilts]
    )


def tilted_sampler(base: TargetMeasure, t) -> Callable[[np.ndarray, np.random.Generator], np.ndarray]:
    """``(tilts, rng) ->`` one exact draw from each ``tilt(base, c_i, t)`` over
    the rows ``c_i`` of ``tilts``, with everything that does not depend on the
    tilts done once here: the closed-form ``TiltStep`` at ``t`` and its
    Cholesky factors for Gaussian and mixture bases.  A generic base draws the
    rows of a call through one rejection kernel, as ``sample`` does, with at
    most ``DEFAULT_MAX_TRIES`` proposals per row.  One row drawn with ``rng`` is
    bitwise ``sample(tilt(base, c, t), 1, rng)``.
    """
    if isinstance(base, GenericPotential):
        m = tilt(base, np.zeros(base.dim), t)

        def draw(tilts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
            env = _generic_envelope(m, tilts)
            return _rejection_rounds(m, env, np.arange(len(env.tilts)), rng, DEFAULT_MAX_TRIES)

        return draw
    step = tilt_plan(base, [t])(0)
    chols = np.linalg.cholesky(step.inv[..., 0])

    def draw(tilts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        means, w = step.posterior(tilts)
        return _mixture_draws(w if w is None else w.T, means.transpose(2, 0, 1), chols, means.shape[2], rng)

    return draw


def sample_tilted_batch(base: TargetMeasure, tilts: np.ndarray, t: float, rng: np.random.Generator) -> np.ndarray:
    """One exact draw from each ``tilt(base, c_i, t)``: ``tilted_sampler`` at
    ``t`` applied once to the rows of ``tilts``."""
    return tilted_sampler(base, t)(tilts, rng)


# JSON construction and the builtin potential zoo.

POTENTIALS: dict[str, Callable[..., GenericPotential]] = {}


def register_potential(name: str):
    def decorate(factory: Callable[..., GenericPotential]):
        POTENTIALS[name] = factory
        return factory

    return decorate


@register_potential("gaussian")
def gaussian_potential(dim: int = 1, mean: float = 0.0, precision: float = 1.0) -> GenericPotential:
    """Quadratic potential 0.5 * precision * |x - mean|^2, at one point or at rows."""
    mu = np.full(dim, float(mean))
    p = float(precision)

    def value(x: np.ndarray) -> np.ndarray:
        diff = np.asarray(x, dtype=float) - mu
        return 0.5 * p * np.sum(diff * diff, axis=-1)

    def grad(x: np.ndarray) -> np.ndarray:
        return p * (np.asarray(x, dtype=float) - mu)

    return GenericPotential(dim, value, grad, strong_convexity=p, smoothness=p)


@register_potential("quartic")
def quartic_potential(dim: int = 1, quartic: float = 0.1, smoothness: float = 40.0) -> GenericPotential:
    """Convex quadratic-plus-quartic well 0.5 |x|^2 + quartic * sum(x^4), at one point or at rows."""
    a = float(quartic)
    if a < 0:
        raise ValueError("quartic coefficient must be nonnegative")

    def value(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * x, axis=-1) + a * np.sum(x**4, axis=-1)

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
