"""Verification suites behind the CLI subcommands and the acceptance tests.

Each suite runs a family of cross-construction checks at the configured
budgets and returns timed pass/fail records.  Oracles used here are
independent of the code paths they certify: channel marginals and grid
quadrature against the tilt SDE, closed-form convolved densities against the
posterior-mean score, exact Gaussian algebra against the sampled chain.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bridge, diagnostics, diffusion, localize, polchinski, rgd, targets
from .sde import TimeGrid, generator, wiener_increments
from .targets import GaussianMeasure, GaussianMixture, TargetMeasure

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class SuiteBudget:
    """Run budgets; the defaults complete the full battery in minutes."""

    seed: int = 42
    paths: int = 10_000
    dt: float = 1e-3
    particles: int = 1_000
    eps_clip: float = 1e-3
    level: float = 0.01
    horizon: float = 1.0
    tau: float = 0.5
    workers: int = 1


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: float
    tolerance: float
    passed: bool
    runtime: float
    detail: str = ""


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def global_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "global_pass": self.global_pass,
            "checks": [
                {
                    "name": c.name,
                    "observed": c.observed,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "runtime": c.runtime,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }

    def csv_lines(self) -> list[str]:
        # Runtimes are excluded so repeated runs stay byte-identical.
        lines = ["name,observed,tolerance,passed"]
        for c in self.checks:
            lines.append(
                f"{c.name},{format(c.observed, '.17g')},{format(c.tolerance, '.17g')},{int(c.passed)}"
            )
        return lines


def _subseed(seed: int, k: int) -> int:
    return (seed ^ (0x9E3779B97F4A7C15 * (k + 1))) & _U64


class _Timer:
    def __init__(self):
        self.t0 = time.perf_counter()

    def result(
        self, name: str, observed: float, tolerance: float, passed: bool, detail: str = ""
    ) -> CheckResult:
        return CheckResult(
            name, float(observed), float(tolerance), bool(passed),
            time.perf_counter() - self.t0, detail,
        )


def std_gaussian() -> GaussianMeasure:
    return GaussianMeasure([0.0], [[1.0]])


def test_mixture() -> GaussianMixture:
    """Symmetric two-component unit-variance mixture used as the companion base."""
    return GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])


def _mean_se(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / math.sqrt(x.size))


def _var_se(x: np.ndarray) -> float:
    c = x - x.mean()
    v = float(np.mean(c**2))
    m4 = float(np.mean(c**4))
    return math.sqrt(max(m4 - v * v, 0.0) / x.size)


def _base_scalar_var(base: TargetMeasure) -> float:
    if isinstance(base, GaussianMeasure):
        return float(base.cov[0, 0])
    if isinstance(base, GaussianMixture):
        return float(base.cov()[0, 0])
    raise TypeError("closed-form variance needs a Gaussian or mixture base")


# Criterion 1: the tilt SDE and the exact channel produce the same tilt law.


def check_tilt_vs_channel(budget: SuiteBudget, base: TargetMeasure | None = None) -> list[CheckResult]:
    base = base if base is not None else std_gaussian()
    out = []
    horizon = budget.horizon
    grid = TimeGrid.uniform(0.0, horizon, round(horizon / budget.dt))
    timer = _Timer()
    c_tilt = localize.tilt_sde_ensemble(base, grid, _subseed(budget.seed, 1), budget.paths, workers=budget.workers)[horizon][:, 0]
    c_chan = localize.channel_ensemble(base, [horizon], _subseed(budget.seed, 2), budget.paths)[horizon][:, 0]

    ks = diagnostics.ks_two_sample(c_tilt, c_chan)
    out.append(
        timer.result(
            "tilt-vs-channel/ks",
            ks.p_value,
            budget.level,
            ks.p_value > budget.level,
            f"two-sample KS statistic {ks.statistic:.4f}",
        )
    )

    timer = _Timer()
    dmean = abs(c_tilt.mean() - c_chan.mean())
    mean_tol = 4.0 * math.hypot(_mean_se(c_tilt), _mean_se(c_chan))
    dvar = abs(c_tilt.var(ddof=1) - c_chan.var(ddof=1))
    var_tol = 4.0 * math.hypot(_var_se(c_tilt), _var_se(c_chan))
    out.append(
        timer.result(
            "tilt-vs-channel/moments",
            max(dmean / mean_tol, dvar / var_tol),
            1.0,
            dmean <= mean_tol and dvar <= var_tol,
            f"|dmean|={dmean:.4g} (tol {mean_tol:.4g}), |dvar|={dvar:.4g} (tol {var_tol:.4g})",
        )
    )

    timer = _Timer()
    expected = horizon**2 * _base_scalar_var(base) + horizon
    dev = abs(c_tilt.var(ddof=1) - expected)
    tol = 4.0 * _var_se(c_tilt)
    out.append(
        timer.result(
            "tilt-vs-channel/terminal-variance",
            dev,
            tol,
            dev <= tol,
            f"Var(c_T)={c_tilt.var(ddof=1):.4f}, channel value {expected:.4f}",
        )
    )
    return out


# Criterion 2: particle measure dynamics track the tilt mean and conserve mass.


def check_particles(budget: SuiteBudget, base: TargetMeasure | None = None) -> list[CheckResult]:
    base = base if base is not None else std_gaussian()
    out = []
    t_end = budget.tau
    grid = TimeGrid.uniform(0.0, t_end, round(t_end / budget.dt))

    timer = _Timer()
    tol = 5.0 / math.sqrt(budget.particles)
    devs = []
    for rep in range(5):
        noise = wiener_increments(grid, 1, _subseed(budget.seed, 3), rep)
        states = localize.tilt_sde_run(base, grid, noise)
        clouds = localize.particle_sl_run(base, budget.particles, grid, noise)
        devs.append(float(np.linalg.norm(clouds[-1].mean() - states[-1].m)))
    out.append(
        timer.result(
            "particles/mean-vs-tilt",
            max(devs),
            tol,
            max(devs) <= tol,
            f"max |particle mean - m_t| over 5 coupled runs at t={t_end}",
        )
    )

    timer = _Timer()
    n_runs = 1000
    n_small = 128
    pts, logw, logm = localize.particle_ensemble(base, n_small, grid, _subseed(budget.seed, 4), n_runs)
    lo, hi = -0.5, 0.5
    inside = (pts[:, :, 0] >= lo) & (pts[:, :, 0] <= hi)
    box_est = np.exp(logm) * np.sum(np.exp(logw) * inside, axis=1)
    xs = np.linspace(lo, hi, 2001)
    box_truth = float(np.trapezoid(np.exp(targets.base_log_density(base, xs[:, None])), xs))
    dev = abs(float(box_est.mean()) - box_truth)
    tol = 4.0 * _mean_se(box_est)
    out.append(
        timer.result(
            "particles/box-martingale",
            dev,
            tol,
            dev <= tol,
            f"mean weighted P(A)={box_est.mean():.4f} vs base quadrature {box_truth:.4f} over {n_runs} runs",
        )
    )

    timer = _Timer()
    mass = np.exp(logm)
    dev = abs(float(mass.mean()) - 1.0)
    tol = 4.0 * _mean_se(mass)
    out.append(
        timer.result(
            "particles/mass-conservation",
            dev,
            tol,
            dev <= tol,
            f"mean exp(log M_T)={mass.mean():.4f} over {n_runs} runs",
        )
    )
    return out


# Criterion 3: the rescaled backward diffusion reproduces the tilt process, and
# the posterior-mean score matches finite differences of the smoothed density.


def _closed_form_marginal_logpdf(base: TargetMeasure, s: float, v: float, y: np.ndarray) -> float:
    """Log-density of s x + N(0, v I) for x from a Gaussian or mixture base."""
    if isinstance(base, GaussianMeasure):
        pushed = GaussianMeasure(s * base.mean, s * s * base.cov + v * np.eye(base.dim))
        return float(pushed.log_density(y))
    comps = [
        (float(w), s * mu, s * s * cov + v * np.eye(base.dim))
        for w, mu, cov in zip(base.weights, base.means, base.covs)
    ]
    pushed = GaussianMixture.from_components(comps)
    return float(pushed.log_density(y))


def _quadrature_marginal_logpdf(base: TargetMeasure, s: float, v: float, y: float) -> float:
    xs = np.linspace(-14.0, 14.0, 6001)
    dens = np.exp(targets.base_log_density(base, xs[:, None]))
    kernel = np.exp(-0.5 * (y - s * xs) ** 2 / v) / math.sqrt(2.0 * math.pi * v)
    return math.log(float(np.trapezoid(kernel * dens, xs)))


def tweedie_probe_residuals(seed: int, n_probes: int = 50) -> np.ndarray:
    """Relative disagreement between the posterior-mean score and central
    finite differences of the log marginal on random (base, y) probes.

    The one-dimensional oracle integrates the smoothed density on a grid; in
    higher dimension it differentiates the closed-form convolved mixture.
    """
    rng = generator(seed, 0, 7)
    residuals = np.empty(n_probes)
    for i in range(n_probes):
        d = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            a = rng.standard_normal((d, d))
            base: TargetMeasure = GaussianMeasure(
                rng.standard_normal(d), a @ a.T + 0.5 * np.eye(d)
            )
        else:
            comps = []
            w = rng.uniform(0.3, 0.7)
            for j, wj in enumerate((w, 1.0 - w)):
                a = rng.standard_normal((d, d))
                comps.append((wj, rng.standard_normal(d), a @ a.T + 0.5 * np.eye(d)))
            base = GaussianMixture.from_components(comps)
        t_ou = rng.uniform(0.1, 2.0)
        s, v = diffusion.ou_marginal_params(t_ou)
        spec = diffusion.NoisyChannelSpec(s, v)
        y = rng.standard_normal(d) * 1.5
        score = diffusion.tweedie_score(base, spec, y)
        fd = np.empty(d)
        for k in range(d):
            h = 1e-4 * (1.0 + abs(y[k]))
            e = np.zeros(d)
            e[k] = h
            if d == 1:
                hi = _quadrature_marginal_logpdf(base, s, v, float((y + e)[0]))
                lo = _quadrature_marginal_logpdf(base, s, v, float((y - e)[0]))
            else:
                hi = _closed_form_marginal_logpdf(base, s, v, y + e)
                lo = _closed_form_marginal_logpdf(base, s, v, y - e)
            fd[k] = (hi - lo) / (2.0 * h)
        residuals[i] = float(
            np.linalg.norm(score - fd) / (1.0 + np.linalg.norm(fd))
        )
    return residuals


def check_backward_diffusion(budget: SuiteBudget, base: TargetMeasure | None = None) -> list[CheckResult]:
    gauss = base if base is not None else std_gaussian()
    out = []
    snap_times = (0.5, 1.0)
    u_grid = TimeGrid.geometric(budget.eps_clip, 1.0, 2500).including(*snap_times)
    t_grid = TimeGrid.uniform(0.0, 1.0, round(1.0 / budget.dt))

    for label, b in (("gaussian", gauss), ("mixture", test_mixture())):
        timer = _Timer()
        back = diffusion.backward_sde_ensemble(
            b, u_grid, _subseed(budget.seed, 5), budget.paths,
            snapshot_times=snap_times, workers=budget.workers,
        )
        tilt_snaps = localize.tilt_sde_ensemble(
            b, t_grid, _subseed(budget.seed, 6), budget.paths,
            snapshot_times=snap_times, workers=budget.workers,
        )
        worst_p = 1.0
        stats = []
        for u in snap_times:
            scaled = math.sqrt(u * (u + 1.0)) * back[u][:, 0]
            ks = diagnostics.ks_two_sample(scaled, tilt_snaps[u][:, 0])
            worst_p = min(worst_p, ks.p_value)
            stats.append(f"u={u}: p={ks.p_value:.3f}")
        out.append(
            timer.result(
                f"backward-vs-tilt/ks-{label}",
                worst_p,
                budget.level,
                worst_p > budget.level,
                "; ".join(stats),
            )
        )
        if label == "gaussian":
            timer = _Timer()
            worst = 0.0
            details = []
            passed = True
            for u in snap_times:
                scaled = math.sqrt(u * (u + 1.0)) * back[u][:, 0]
                expected = u * u * _base_scalar_var(b) + u
                dev = abs(scaled.var(ddof=1) - expected)
                tol = 4.0 * _var_se(scaled)
                passed = passed and dev <= tol
                worst = max(worst, dev / tol)
                details.append(f"u={u}: var={scaled.var(ddof=1):.4f} vs {expected:.4f}")
            out.append(
                timer.result(
                    "backward-vs-tilt/rescaled-variance",
                    worst,
                    1.0,
                    passed,
                    "; ".join(details),
                )
            )

    timer = _Timer()
    residuals = tweedie_probe_residuals(_subseed(budget.seed, 7))
    out.append(
        timer.result(
            "tweedie/finite-difference",
            float(residuals.max()),
            1e-3,
            float(residuals.max()) <= 1e-3,
            f"max relative residual over {residuals.size} probes",
        )
    )
    return out


# Criterion 4: the renormalization flow matches the tilt process under the
# time change, and the smoothed potential solves its evolution equation.


def renorm_equation_residuals(base: TargetMeasure, seed: int, n_probes: int = 20) -> np.ndarray:
    """Finite-difference residual of d_tau V = -0.5 V'' + 0.5 (V')^2 at random probes."""
    rng = generator(seed, 0, 9)
    out = np.empty(n_probes)
    h_tau = 1e-5
    h_x = 1e-4
    for i in range(n_probes):
        tau = rng.uniform(0.05, 0.8)
        x = np.atleast_1d(rng.uniform(-3.0, 3.0))

        def v(t: float, pt: np.ndarray) -> float:
            return polchinski.renorm_potential(base, t, pt)[0]

        d_tau = (v(tau + h_tau, x) - v(tau - h_tau, x)) / (2.0 * h_tau)
        e = np.array([h_x])
        v_plus, v_mid, v_minus = v(tau, x + e), v(tau, x), v(tau, x - e)
        d_xx = (v_plus - 2.0 * v_mid + v_minus) / h_x**2
        d_x = (v_plus - v_minus) / (2.0 * h_x)
        res = d_tau + 0.5 * d_xx - 0.5 * d_x**2
        scale = max(1.0, abs(d_tau) + 0.5 * abs(d_xx) + 0.5 * d_x**2)
        out[i] = abs(res) / scale
    return out


def check_renormalization_flow(budget: SuiteBudget, base: TargetMeasure | None = None) -> list[CheckResult]:
    gauss = base if base is not None else std_gaussian()
    out = []
    tau_end = budget.tau
    t_equiv = tau_end / (1.0 - tau_end)
    tau_grid = TimeGrid.uniform(0.0, tau_end, round(tau_end / budget.dt))
    t_grid = TimeGrid.uniform(0.0, t_equiv, round(t_equiv / budget.dt))

    for label, b in (("gaussian", gauss), ("mixture", test_mixture())):
        timer = _Timer()
        v = polchinski.polchinski_ensemble(
            b, tau_grid, _subseed(budget.seed, 8), budget.paths, workers=budget.workers
        )[tau_end]
        scaled = v[:, 0] / (1.0 - tau_end)
        c = localize.tilt_sde_ensemble(
            b, t_grid, _subseed(budget.seed, 9), budget.paths, workers=budget.workers
        )[t_equiv][:, 0]
        ks = diagnostics.ks_two_sample(scaled, c)
        out.append(
            timer.result(
                f"flow-vs-tilt/ks-{label}",
                ks.p_value,
                budget.level,
                ks.p_value > budget.level,
                f"v_tau/(1-tau) at tau={tau_end} vs c_t at t={t_equiv}; statistic {ks.statistic:.4f}",
            )
        )

    timer = _Timer()
    residuals = renorm_equation_residuals(test_mixture(), _subseed(budget.seed, 10))
    out.append(
        timer.result(
            "flow/potential-equation",
            float(residuals.max()),
            1e-3,
            float(residuals.max()) <= 1e-3,
            f"max relative residual over {residuals.size} probes",
        )
    )
    return out


# Criterion 5: the quadratic drift energy of the optimal sampler equals the KL
# divergence from the base to the standard normal.


def check_girsanov_energy(budget: SuiteBudget) -> list[CheckResult]:
    out = []
    steps = round((1.0 - budget.eps_clip) / budget.dt)
    grid = TimeGrid.uniform(0.0, 1.0 - budget.eps_clip, steps)
    cases = [
        ("mean-shift", GaussianMeasure([2.0], [[1.0]]), 2.0),
        ("variance", GaussianMeasure([0.0], [[2.0]]), 0.5 * (1.0 - math.log(2.0))),
    ]
    for label, base, expected in cases:
        timer = _Timer()
        energy, se = bridge.girsanov_energy(
            bridge.FollmerDrift(base), grid, budget.paths,
            _subseed(budget.seed, 11), workers=budget.workers,
        )
        rel = abs(energy - expected) / expected
        out.append(
            timer.result(
                f"girsanov/{label}",
                rel,
                0.05,
                rel <= 0.05,
                f"energy {energy:.5f} (se {se:.2g}) vs KL {expected:.5f}",
            )
        )
    return out


# Criterion 6: the static bridge and entropic transport objectives differ by a
# constant, and the scaling solver finds the brute-force optimum.


def check_static_bridge(budget: SuiteBudget) -> list[CheckResult]:
    out = []
    rng = generator(_subseed(budget.seed, 12), 0, 11)

    timer = _Timer()
    spread_worst = 0.0
    for n_atoms, m_atoms in ((2, 3), (5, 4), (10, 8)):
        mu = bridge.DiscreteMeasure(
            rng.standard_normal((n_atoms, 2)), _random_weights(rng, n_atoms)
        )
        pi = bridge.DiscreteMeasure(
            rng.standard_normal((m_atoms, 2)) + 0.5, _random_weights(rng, m_atoms)
        )
        ref = bridge.heat_kernel_reference(mu, pi)
        diffs = []
        for k in range(20):
            perturbed = ref * np.exp(0.5 * rng.standard_normal(ref.shape))
            res = bridge.sinkhorn(mu, pi, perturbed, tol=1e-13)
            ssb, eot = bridge.objective_pair(res.coupling, mu, pi, ref)
            diffs.append(eot - ssb)
        spread_worst = max(spread_worst, float(np.ptp(diffs)))
    out.append(
        timer.result(
            "bridge/objective-shift",
            spread_worst,
            1e-10,
            spread_worst <= 1e-10,
            "max spread of (transport - kl) over 20 feasible couplings per instance",
        )
    )

    timer = _Timer()
    mu2 = bridge.DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    pi2 = bridge.DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    ref2 = bridge.heat_kernel_reference(mu2, pi2)
    res2 = bridge.sinkhorn(mu2, pi2, ref2, tol=1e-12)
    p = np.linspace(0.0, 0.5, 1_000_001)
    gammas = np.stack([p, 0.5 - p, 0.5 - p, p], axis=1)
    refs = np.array([ref2[0, 0], ref2[0, 1], ref2[1, 0], ref2[1, 1]])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(gammas > 0.0, gammas * (np.log(gammas) - np.log(refs)), 0.0)
    ssb_grid = terms.sum(axis=1)
    sq = bridge.squared_distances(mu2, pi2).ravel()
    prod = np.outer(mu2.weights, pi2.weights).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(gammas > 0.0, gammas * (np.log(gammas) - np.log(prod)), 0.0)
    eot_grid = gammas @ (0.5 * sq) + ent.sum(axis=1)
    ssb_sink, eot_sink = bridge.objective_pair(res2.coupling, mu2, pi2, ref2)
    gap = abs(ssb_sink - float(ssb_grid.min()))
    argmin_agree = abs(float(p[ssb_grid.argmin()]) - float(p[eot_grid.argmin()])) <= 1e-6
    sink_entry = float(res2.coupling.gamma[0, 0])
    argmin_close = abs(sink_entry - float(p[ssb_grid.argmin()])) <= 1e-5
    out.append(
        timer.result(
            "bridge/brute-force-2x2",
            gap,
            1e-6,
            gap <= 1e-6 and argmin_agree and argmin_close,
            f"kl objective gap {gap:.2e}; grid argmins agree: {argmin_agree}; "
            f"solver entry {sink_entry:.6f} vs grid {float(p[ssb_grid.argmin()]):.6f}; "
            f"transport gap {abs(eot_sink - float(eot_grid.min())):.2e}",
        )
    )

    timer = _Timer()
    mu3 = bridge.DiscreteMeasure(rng.standard_normal((4, 1)), _random_weights(rng, 4))
    pi3 = bridge.DiscreteMeasure(rng.standard_normal((6, 1)) + 1.0, _random_weights(rng, 6))
    ref3 = bridge.heat_kernel_reference(mu3, pi3)
    res3 = bridge.sinkhorn(mu3, pi3, ref3, tol=1e-10)
    sys_res = bridge.schrodinger_residual(res3, mu3, pi3, ref3)
    out.append(
        timer.result(
            "bridge/system-residual",
            sys_res,
            1e-8,
            res3.converged and sys_res <= 1e-8,
            f"converged in {res3.iterations} iterations, marginal residual {res3.residual:.2e}",
        )
    )
    return out


def _random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, n)
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return w


# Criteria 7 and 8: exact chain-law contraction and the kernel identity.


def check_contraction(budget: SuiteBudget) -> list[CheckResult]:
    out = []
    target = std_gaussian()

    timer = _Timer()
    _, kls = rgd.chain_law_propagate(GaussianMeasure([2.0], [[1.0]]), target, 1.0, 6)
    ratios = [kls[k + 1] / kls[k] for k in range(len(kls) - 1) if kls[k] > 1e-10]
    dev = max(abs(r - 0.25) for r in ratios)
    out.append(
        timer.result(
            "contraction/mean-shift-equality",
            dev,
            1e-12,
            dev <= 1e-12,
            f"per-step KL ratios {['%.15f' % r for r in ratios]}",
        )
    )

    timer = _Timer()
    worst = 0.0
    for s2 in (0.5, 2.0, 10.0):
        _, kls = rgd.chain_law_propagate(GaussianMeasure([0.0], [[s2]]), target, 1.0, 6)
        for k in range(len(kls) - 1):
            if kls[k] > 1e-10:
                worst = max(worst, kls[k + 1] / kls[k])
    out.append(
        timer.result(
            "contraction/covariance-mismatch",
            worst,
            0.25 + 1e-12,
            worst <= 0.25 + 1e-12,
            "per-step KL ratios for variance-mismatched Gaussian starts",
        )
    )

    timer = _Timer()
    quartic = targets.quartic_potential(dim=1)
    details = []
    passed = True
    worst_margin = -math.inf
    for i, eta in enumerate((0.5, 1.0)):
        ratio, se = rgd.heat_flow_contraction_mc(
            quartic, GaussianMeasure([2.0], [[1.0]]), eta,
            n_paths=min(4000, budget.paths), seed=_subseed(budget.seed, 13 + i),
        )
        bound = 1.0 / (1.0 + eta) ** 2
        passed = passed and ratio <= bound + 4.0 * se
        worst_margin = max(worst_margin, ratio - bound)
        details.append(f"eta={eta}: ratio {ratio:.4f} (se {se:.4f}) vs bound {bound:.4f}")
    out.append(
        timer.result(
            "contraction/quartic-target",
            worst_margin,
            0.0,
            passed,
            "; ".join(details),
        )
    )

    timer = _Timer()
    bound = rgd.lsi_lower_bound(1.0, 1.0)
    out.append(
        timer.result(
            "contraction/lsi-bound-value",
            bound,
            0.5,
            bound == 0.5,
            "certified log-Sobolev constant at alpha = eta = 1",
        )
    )
    return out


def check_kernel_identity(budget: SuiteBudget) -> list[CheckResult]:
    out = []
    x0 = np.array([0.3])
    for label, target in (("gaussian", std_gaussian()), ("mixture", test_mixture())):
        timer = _Timer()
        cfg = rgd.RgdConfig(1.0, target)
        a = rgd.rgd_transition_batch(x0, cfg, budget.paths, generator(_subseed(budget.seed, 15), 0))
        b = rgd.channel_transition_batch(x0, cfg, budget.paths, generator(_subseed(budget.seed, 16), 0))
        ks = diagnostics.ks_two_sample(a[:, 0], b[:, 0])
        out.append(
            timer.result(
                f"kernel-identity/ks-{label}",
                ks.p_value,
                budget.level,
                ks.p_value > budget.level,
                f"direct two-stage vs channel-then-posterior; statistic {ks.statistic:.4f}",
            )
        )
    return out


# Criterion 9: entropic stability sharp case and the control-matrix reduction.


def check_stability_and_reduction(budget: SuiteBudget) -> list[CheckResult]:
    out = []
    rng = generator(_subseed(budget.seed, 17), 0, 13)

    timer = _Timer()
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T + 0.25 * np.eye(3)
    target = GaussianMeasure(np.zeros(3), sigma)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    sharp = float(eigvals.max())
    ys = rng.standard_normal((100, 3))
    report = rgd.entropic_stability_probe(target, ys, sharp)
    top = eigvecs[:, -1]
    top_report = rgd.entropic_stability_probe(target, top[None, :], sharp)
    eq_gap = abs(float(top_report.lhs[0] - top_report.rhs[0]))
    scale = max(1.0, float(top_report.rhs[0]))
    out.append(
        timer.result(
            "stability/gaussian-sharp",
            eq_gap,
            1e-10 * scale,
            report.all_pass and eq_gap <= 1e-10 * scale,
            f"{int(report.passed.sum())}/100 probes pass at alpha=|Sigma|_op; "
            f"top-eigenvector gap {eq_gap:.2e}",
        )
    )

    timer = _Timer()
    base = GaussianMeasure(np.zeros(2), np.eye(2))
    grid = TimeGrid.uniform(0.0, 1.0, 100)
    noise = wiener_increments(grid, 2, _subseed(budget.seed, 18), 0)
    iso = localize.tilt_sde_run(base, grid, noise)
    state = localize.initial_anisotropic_state(base)
    eye = np.eye(2)
    dw = noise.increments()
    identical = np.array_equal(np.asarray(state.c), np.asarray(iso[0].c))
    for k in range(grid.steps):
        state = localize.anisotropic_step(base, state, eye, float(grid.dts[k]), dw[k])
        same_c = state.c.tobytes() == iso[k + 1].c.tobytes()
        same_m = state.m.tobytes() == iso[k + 1].m.tobytes()
        identical = identical and same_c and same_m
    out.append(
        timer.result(
            "stability/identity-control-reduction",
            0.0 if identical else 1.0,
            0.0,
            identical,
            "control-matrix run with C=I bitwise equals the isotropic run",
        )
    )
    return out


# Criterion 10: constant-schedule identities.


def check_lsi_schedules(budget: SuiteBudget) -> list[CheckResult]:
    from scipy.integrate import quad  # deferred, so that importing sloc does not load scipy

    out = []
    rng = generator(_subseed(budget.seed, 19), 0, 15)

    timer = _Timer()
    alphas = rng.uniform(0.05, 20.0, 100)
    dev = max(
        abs(float(polchinski.lsi_schedule(a).gamma(1.0)) - a) / max(1.0, a) for a in alphas
    )
    out.append(
        timer.result(
            "lsi/gamma-at-one",
            dev,
            1e-12,
            dev <= 1e-12,
            "gamma(1) = alpha across 100 random alpha",
        )
    )

    timer = _Timer()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        schedule = polchinski.lsi_schedule(alpha)
        for tau in np.linspace(0.05, 0.95, 10):
            integral, _ = quad(lambda s: float(schedule.gamma(s)), tau, 1.0)
            target = 1.0 - math.exp(-integral)
            worst = max(worst, abs(polchinski.stability_factor(alpha, tau) - target))
    out.append(
        timer.result(
            "lsi/factor-integral-identity",
            worst,
            1e-6,
            worst <= 1e-6,
            "stability factor vs 1 - exp(-int gamma) by quadrature at 10 probes",
        )
    )

    timer = _Timer()
    alpha = 1.7
    base = GaussianMeasure([0.0], [[1.0 / alpha]])
    worst = 0.0
    for tau in (0.1, 0.25, 0.5, 0.75):
        t = tau / (1.0 - tau)
        post = targets.posterior_moments(targets.tilt(base, [0.3], t))
        ratio = float(post.cov[0, 0]) * alpha
        worst = max(worst, abs(ratio - polchinski.stability_factor(alpha, tau)))
    out.append(
        timer.result(
            "lsi/gaussian-variance-equality",
            worst,
            1e-10,
            worst <= 1e-10,
            "linear-test-function variance ratio equals the stability factor",
        )
    )
    return out


# The suites by name, as the CLI subcommands and scripts/run_equivalences.py
# run them.


SUITES: dict[str, tuple[Callable[..., list[CheckResult]], ...]] = {
    "equiv": (check_tilt_vs_channel, check_particles, check_backward_diffusion, check_renormalization_flow),
    "bridge": (check_girsanov_energy, check_static_bridge),
    "rgd": (check_contraction, check_kernel_identity, check_stability_and_reduction),
    "lsi": (check_lsi_schedules,),
}


def run_suite(name: str, budget: SuiteBudget, base: TargetMeasure | None = None) -> Report:
    """Run the checks of suite ``name`` in order; ``base``, when given, goes to
    each check (only the equiv checks take one)."""
    args = (budget,) if base is None else (budget, base)
    return Report([result for check in SUITES[name] for result in check(*args)])
