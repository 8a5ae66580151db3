"""Static endpoint bridges on finite supports and the optimal drift.

The static problem picks, among couplings of two discrete marginals, the one
closest in KL to a reference endpoint matrix; Sinkhorn scaling solves it,
with large log-potentials absorbed into the kernel to keep the scalings in
range.  With a quadratic-cost reference built from the heat kernel, the
entropic-transport objective differs from the KL objective only by a constant
depending on the marginals.  The optimal drift from a point mass to the base
is the renormalization flow's drift, minus the gradient of the renormalized
potential, and its accumulated quadratic energy equals the KL divergence
from the base to a standard normal.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO, Union

import numpy as np

from . import targets
from .polchinski import _flow_drift, renorm_potential  # noqa: F401
from .sde import TimeGrid, _check_count, _emit, _integrate, _write_csv, wiener_increment_array
from .targets import TargetMeasure

#: Sinkhorn folds its scaling vectors into the kernel once an entry leaves
#: ``[1 / _ABSORB, _ABSORB]``.
_ABSORB = 1e30


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
    """``|x_i - y_j|^2`` for every pair of atoms, summed one coordinate at a time."""
    if mu.dim != pi.dim:
        raise ValueError("the supports must have the same dimension")
    x, y = mu.points, pi.points
    out = np.square(np.subtract.outer(x[:, 0], y[:, 0]))
    for k in range(1, mu.dim):
        diff = np.subtract.outer(x[:, k], y[:, k])
        out += np.square(diff, out=diff)
    return out


def heat_kernel_reference(mu: DiscreteMeasure, pi: DiscreteMeasure) -> np.ndarray:
    """Endpoint reference matrix with first marginal ``mu``.

    ``R[i, j] = mu_i * k(x_i, y_j) / sum_j k(x_i, y_j)`` with the unit-time
    Gaussian heat kernel ``k = exp(-0.5 |x - y|^2)``, i.e. rows are heat-kernel
    transitions out of the atoms of ``mu``.
    """
    _, rows = targets._log_normalize(-0.5 * squared_distances(mu, pi), axis=1)
    rows *= mu.weights[:, None]
    return rows


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
    """Converged (or flagged) scaling solution ``gamma = R * (f g')``.

    ``relaxation`` is the over-relaxation factor in effect when the run
    stopped: 1.0 for a run that stopped during its plain start or whose
    safeguard fired."""

    coupling: DiscreteCoupling
    f: np.ndarray
    g: np.ndarray
    iterations: int
    residual: float
    converged: bool
    residual_trace: np.ndarray
    relaxation: float


#: Plain iterations before ``sinkhorn`` estimates its contraction rate.
_PLAIN = 4
#: ``sinkhorn`` sets its relaxation for ``1 - lambda`` scaled by this factor.
_GAP_SCALE = 0.75
#: A ``sinkhorn`` run whose loop residual sets no new minimum for this many
#: iterations changes course: a relaxed run finishes plain, a plain run stops,
#: flagged.  Converging relaxed runs on the test kernels go at most 24
#: iterations without one (10 at a forced relaxation of 1.98, before its
#: residual climbs back above its value at the switch).
_STALL = 100


def sinkhorn(
    mu: DiscreteMeasure,
    pi: DiscreteMeasure,
    ref_kernel: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> SinkhornResult:
    """Alternate scalings until the marginal residual drops below tol.

    Stabilized scaling (Schmitzer, arXiv:1610.06519): the kernel
    ``K = R exp(alpha + beta')`` carries absorbed log-potentials and each
    iteration updates ``u`` from ``K v`` and ``v`` from ``K' u``, two
    matrix-vector products.  When an entry of ``u`` or ``v`` leaves
    ``[1 / _ABSORB, _ABSORB]``, their logs are folded into ``alpha`` and
    ``beta`` and ``K`` is rebuilt, so the scalings stay in floating-point
    range.  The coupling is ``u K v'`` and ``f, g = exp(alpha) u, exp(beta) v``.

    The first ``_PLAIN`` iterations are plain, ``u = a / (K v)`` and
    ``v = b / (K' u)``; after them the run is over-relaxed (Thibault, Chizat,
    Dossal & Papadakis, arXiv:1711.01851; Lehmann, von Renesse, Sambale &
    Uschmajew, arXiv:2012.12562): ``u <- u (a / (u K v))^omega``, then the
    same for ``v``.  Plain scaling contracts at the rate ``lambda``, the
    squared second singular value of the converged coupling normalized by
    its marginals; with ``omega = 2 / (1 + sqrt(1 - lambda))`` the rate is
    ``omega - 1``.  ``lambda`` is read off the plain iterates: their log
    row-scaling steps span a Krylov space of the linearized iteration, on
    which the largest Ritz value is a lower bound on ``lambda``.  A low
    ``omega`` costs far more than a high one (the rate's slope is infinite
    just below the optimum and 1 above it), so ``omega`` is set for ``1 -
    lambda`` scaled by ``_GAP_SCALE``.  On the benchmark's lattice supports
    this takes 16 iterations where plain scaling takes 25, and 37-39 where it
    takes 142-145; on a slow 30 x 40 heat kernel, 161 where it takes about
    2900.

    The residual is the larger of the L1 row and column marginal violations
    of ``u K v'``, read off each iteration's two products (column sums
    ``v K'u``, row sums ``u K v`` from the product the next iteration starts
    with).  When it meets ``tol`` the coupling is formed and its residual
    recomputed, and the run stops converged only if that one meets ``tol``
    too; the returned ``residual``, and the trace's last entry, are that of
    the returned coupling.  One rule ends a course of iterations: the residual
    is not finite, or it has set no new minimum for ``_STALL`` iterations, or
    it climbs back above its value when ``omega`` was set after falling below
    it.  A relaxed run then finishes plain, from ``u = v = 1`` if the residual
    was not finite; a plain run stops there, flagged, as at ``max_iter``.  So
    a relaxation that diverges or stalls (the slow heat kernel's stalls near
    8e-16, above the floor plain scaling reaches) gives way to plain scaling,
    and a ``tol`` below the residual's floor costs at most two stalls, not
    ``max_iter`` iterations.
    """
    r = _checked_shape(ref_kernel, mu, pi, "reference kernel")
    if np.any(r <= 0.0):
        raise ValueError("reference kernel must have strictly positive entries")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    a, b = mu.weights, pi.weights
    alpha, beta = np.zeros(mu.n), np.zeros(pi.n)
    kernel = r
    u, v = np.ones(mu.n), np.ones(pi.n)
    kv = kernel @ v
    trace, steps = [], []
    omega, floor, best, stalled = 1.0, math.inf, math.inf, 0
    checked, iterations = math.inf, 0
    for iterations in range(1, max_iter + 1):
        if omega == 1.0:
            step = a / kv
            if iterations <= _PLAIN:
                steps.append(np.log(step / u))
            u = step
            ktu = u @ kernel
            v = b / ktu
        else:
            u = u * (a / (u * kv)) ** omega
            ktu = u @ kernel
            v = v * (b / (v * ktu)) ** omega
        kv = kernel @ v
        residual = max(float(np.abs(u * kv - a).sum()), float(np.abs(v * ktu - b).sum()))
        trace.append(residual)
        if residual <= tol:
            coupling, checked = _coupling(kernel, u, v, a, b)
            if checked <= tol:
                break
        best, stalled = (residual, 0) if residual < best else (best, stalled + 1)
        if not math.isfinite(residual) or stalled == _STALL or best < floor < residual:
            if omega == 1.0:
                break
            omega, floor, best, stalled = 1.0, math.inf, math.inf, 0
            if not math.isfinite(residual):
                alpha, beta = np.zeros(mu.n), np.zeros(pi.n)
                kernel = r
                u, v = np.ones(mu.n), np.ones(pi.n)
                kv = kernel @ v
                continue
        elif iterations == _PLAIN:
            omega, floor = _relaxation(steps, a), residual
        if _out_of_range(u) or _out_of_range(v):
            alpha += np.log(u)
            beta += np.log(v)
            kernel = np.log(r)
            kernel += alpha[:, None]
            kernel += beta
            np.exp(kernel, out=kernel)
            u, v = np.ones(mu.n), np.ones(pi.n)
            kv = kernel @ v
    if not checked <= tol:
        coupling, checked = _coupling(kernel, u, v, a, b)
    if trace:
        trace[-1] = checked
    return SinkhornResult(
        coupling=coupling,
        f=np.exp(alpha) * u,
        g=np.exp(beta) * v,
        iterations=iterations,
        residual=checked,
        converged=checked <= tol,
        residual_trace=np.asarray(trace),
        relaxation=omega,
    )


def _coupling(kernel: np.ndarray, u: np.ndarray, v: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The coupling ``u K v'`` with target marginals ``a, b``, and its marginal residual."""
    gamma = kernel * u[:, None]
    gamma *= v
    coupling = DiscreteCoupling(gamma, a, b)
    return coupling, coupling.marginal_residual()


def _relaxation(steps: list, a: np.ndarray) -> float:
    """``2 / (1 + sqrt(_GAP_SCALE (1 - lambda)))`` for ``lambda``, the largest
    Ritz value of the plain iteration's linearization on the span of its log
    row-scaling steps ``steps``, clipped to ``[0, 1]``.  The first step is
    dropped: it starts from ``u = 1``, far from the linear regime.

    Near the solution a plain iteration maps one step to the next through an
    operator that is self-adjoint in the ``a``-weighted inner product, with
    spectrum ``1 = s_1^2 >= s_2^2 >= ...`` of the normalized coupling, and the
    steps carry no component along its top (gauge) direction.  Directions in
    which the steps' span is below 1e-3 of its largest singular value are
    dropped; there the iterates' nonlinearity outweighs the signal.  Steps
    that are not finite, or all zero, give 1."""
    z = np.array(steps[1:]).T * np.sqrt(a)[:, None]
    if not (np.isfinite(z).all() and z.any()):
        return 1.0
    basis, sv, right = np.linalg.svd(z[:, :-1], full_matrices=False)
    keep = sv > 1e-3 * sv[0]
    projected = basis[:, keep].T @ z[:, 1:] @ right[keep].T / sv[keep]
    lam = float(np.linalg.eigvalsh(0.5 * (projected + projected.T))[-1])
    return 2.0 / (1.0 + math.sqrt(_GAP_SCALE * (1.0 - min(max(lam, 0.0), 1.0))))


def _out_of_range(scaling: np.ndarray) -> bool:
    return scaling.max() > _ABSORB or scaling.min() * _ABSORB < 1.0


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
    marginals, never on the coupling.  Both share ``sum gamma log gamma``, and
    the product reference enters through the row and column sums ``r, c`` of
    gamma as ``r . log mu + c . log pi``.  The cost needs no distance matrix:
    it is ``0.5 (r . |x|^2 + c . |y|^2 - 2 <X, gamma Y>)`` with both supports
    shifted by the midpoint of the means of ``mu`` and ``pi``, so a shift the
    two supports share cancels exactly.  Each support's own spread does not:
    the cost's error is a few ulps of ``r . |x|^2 + c . |y|^2``, which for
    wide supports and a coupling on short distances is far above the cost.
    Entries with ``gamma <= 0`` count as 0 (``0 log 0 = 0``);
    ``KL(gamma || R)`` is +inf where gamma > 0 meets R = 0.
    """
    gamma = coupling.gamma if isinstance(coupling, DiscreteCoupling) else coupling
    gamma = _checked_shape(gamma, mu, pi, "coupling")
    ref = _checked_shape(ref_kernel, mu, pi, "reference kernel")
    pos = None
    if not gamma.min() > 0.0:
        pos = gamma > 0.0
        gamma = np.where(pos, gamma, 0.0)
    # One scratch array holds log gamma, then log R (0 off pos in both).
    where = True if pos is None else pos
    logs = np.zeros(gamma.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_entropy = float(np.vdot(gamma, np.log(gamma, out=logs, where=where)))
        ref_term = float(np.vdot(gamma, np.log(ref, out=logs, where=where)))
    # A zero (or negative) R under gamma > 0 makes ref_term -inf (or nan).
    ssb = neg_entropy - ref_term if ref_term > -math.inf else math.inf
    r, c = gamma.sum(axis=1), gamma.sum(axis=0)
    cross = float(r @ np.log(mu.weights) + c @ np.log(pi.weights))
    centre = 0.5 * (mu.weights @ mu.points + pi.weights @ pi.points)
    x, y = mu.points - centre, pi.points - centre
    sq = float(r @ np.einsum("ij,ij->i", x, x) + c @ np.einsum("ij,ij->i", y, y))
    cost = 0.5 * (sq - 2.0 * float(np.vdot(x, gamma @ y)))
    return ssb, cost + eps * (neg_entropy - cross)


def _checked_shape(a, mu: DiscreteMeasure, pi: DiscreteMeasure, name: str) -> np.ndarray:
    """``a`` as a float array, which must have shape ``(mu.n, pi.n)``."""
    a = np.asarray(a, dtype=float)
    if a.shape != (mu.n, pi.n):
        raise ValueError(f"{name} shape {a.shape} does not match the marginals' {(mu.n, pi.n)}")
    return a


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
    _checked_shape(result.coupling.gamma, mu, pi, "coupling")
    r = _checked_shape(ref_kernel, mu, pi, "reference kernel")
    r0 = r.sum(axis=1)
    r1 = r.sum(axis=0)
    row = np.abs(result.f * (r @ result.g) - mu.weights) / r0
    col = np.abs(result.g * (r.T @ result.f) - pi.weights) / r1
    return max(float(row.max()), float(col.max()))


@dataclass(frozen=True)
class FollmerDrift:
    """Optimal drift from a point mass to the base under a Wiener reference.

    Equal to minus the renormalized-potential gradient, ``(m_tau - v) / (1 - tau)``
    with ``m_tau`` the fluctuation-measure mean; only that mean is computed.
    It is the flow SDE's own drift, so running the flow from ``v = 0``
    (``polchinski.polchinski_run``) is the drift-based sampler.  A generic
    base estimates the mean with ``budget`` importance-sampling draws from
    ``posterior_moments``' fixed key.
    """

    base: TargetMeasure
    budget: int = 0

    def __call__(self, v, tau: float) -> np.ndarray:
        if not 0.0 <= tau < 1.0:
            raise ValueError("tau must lie in [0, 1)")
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return _flow_drift(self.base, np.array([tau], dtype=float), self.budget)(0, v[None])[0]


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
    divergence from the base to the standard normal.  Raises ``ValueError``
    for ``n_paths < 1``; one path gives an infinite standard error.
    """
    _check_count(n_paths, "n_paths")
    if tau_grid.times[0] != 0.0 or tau_grid.times[-1] >= 1.0:
        raise ValueError("the drift grid must start at 0 and stay below 1")
    d, dts = drift.base.dim, tau_grid.dts.tolist()
    flow = _flow_drift(drift.base, tau_grid.times[:-1], drift.budget)

    def step(k: int, x: np.ndarray, dw: np.ndarray) -> np.ndarray:
        v, energy = x[:d], x[d:]
        u = flow(k, v.T).T
        energy += 0.5 * np.add.reduce(u * u, axis=0, keepdims=True) * dts[k]
        v += u * dts[k]
        v += dw
        return x

    noise = partial(wiener_increment_array, tau_grid, d, seed)
    end = _integrate(tau_grid, np.zeros((n_paths, d + 1)), step, noise, (), chunk, workers)
    energies = end[float(tau_grid.times[-1])][:, d]
    estimate = float(energies.mean())
    stderr = float(energies.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else math.inf
    return estimate, stderr


def write_coupling_csv(coupling: DiscreteCoupling, out: Union[str, Path, IO[str]]) -> None:
    """Dense coupling export: row i of the CSV is gamma[i, :]."""
    _write_csv(None, coupling.gamma, out)


def write_sinkhorn_trace_json(result: SinkhornResult, out: Union[str, Path, IO[str]]) -> None:
    """Iteration trace as JSON records {iteration, residual}, with the run's
    ``converged`` flag and ``relaxation`` factor."""
    records = [
        {"iteration": i + 1, "residual": float(r)}
        for i, r in enumerate(result.residual_trace)
    ]
    payload = {"converged": result.converged, "relaxation": result.relaxation, "trace": records}
    _emit(json.dumps(payload, indent=2, sort_keys=True), out)
