"""Verification suites behind the CLI subcommands and the acceptance tests.

Each suite runs a family of cross-construction checks at the configured
budgets and returns timed pass/fail records.  Criteria 1, 3 and 4 read one
table, ``_CONSTRUCTIONS``, of the constructions of the tilt law that they
compare in law with the tilt process.  Oracles used here are
independent of the code paths they certify: channel marginals and grid
quadrature against the tilt SDE, closed-form convolved densities against the
posterior-mean score, exact Gaussian algebra against the sampled chain.

Each ``check_*`` body is a generator that yields one verdict per result, and
one recorder turns the verdicts into ``CheckResult`` records.  A result's
``runtime`` is the wall time, in seconds, since the previous result of the
same call, or since the call began for its first result, so the runtimes of
one call add up to its wall time.  A result thus carries the simulations it is
the first to read.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, NamedTuple, ParamSpec

import numpy as np

from . import bridge, diagnostics, diffusion, localize, polchinski, rgd, targets
from .sde import NonFiniteStateError, TimeGrid, _U64, _fmt, generator, wiener_increments
from .targets import GaussianMeasure, GaussianMixture, TargetMeasure


@dataclass(frozen=True)
class SuiteBudget:
    """Run budgets.  At the defaults the five CLI subcommands take about 7 s
    together on a 2-core machine, ``sloc equiv`` about 5 s of it."""

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
            "checks": [asdict(c) for c in self.checks],
        }

    def csv_lines(self) -> list[str]:
        # Runtimes are excluded so repeated runs stay byte-identical.
        lines = ["name,observed,tolerance,passed"]
        for c in self.checks:
            lines.append(f"{c.name},{_fmt(c.observed)},{_fmt(c.tolerance)},{int(c.passed)}")
        return lines


def _subseed(seed: int, k: int) -> int:
    return (seed ^ (0x9E3779B97F4A7C15 * (k + 1))) & _U64


class _Verdict(NamedTuple):
    """One result as a check body yields it; ``passed=None`` means
    ``observed <= tolerance``, which a NaN fails."""

    name: str
    observed: float
    tolerance: float
    detail: str = ""
    passed: bool | None = None


_P = ParamSpec("_P")

# The library's own run-time errors: a run the budget cannot carry through.
_RUN_ERRORS = (
    NonFiniteStateError,
    localize.WeightCollapseError,
    targets.SamplingBudgetError,
    targets.EffectiveSampleSizeError,
)


def _recorded(body: Callable[_P, Iterator[_Verdict]]) -> Callable[_P, list[CheckResult]]:
    """Run the check ``body`` to its end and return its verdicts as timed results.
    One of ``_RUN_ERRORS`` ends the body with a failed ``<check>/run-error``
    result, whose detail is the error, after the verdicts it had yielded.  The
    body runs with numpy's floating-point warnings off: a non-finite value
    fails its verdict or raises one of those errors, so a warning would only
    repeat the verdict."""

    @functools.wraps(body)
    @np.errstate(all="ignore")
    def check(*args: _P.args, **kwargs: _P.kwargs) -> list[CheckResult]:
        out = []
        t0 = time.perf_counter()
        try:
            for v in body(*args, **kwargs):
                t1 = time.perf_counter()
                observed, tolerance = float(v.observed), float(v.tolerance)
                passed = observed <= tolerance if v.passed is None else bool(v.passed)
                out.append(CheckResult(v.name, observed, tolerance, passed, t1 - t0, v.detail))
                t0 = t1
        except _RUN_ERRORS as exc:
            name = body.__name__.removeprefix("check_").replace("_", "-")
            detail = f"{type(exc).__name__}: {exc}"
            out.append(CheckResult(f"{name}/run-error", math.nan, 0.0, False, time.perf_counter() - t0, detail))
        return out

    return check


def _ks_verdict(name: str, a: np.ndarray, b: np.ndarray, level: float, about: str) -> _Verdict:
    """The two-sample KS verdict of ``a`` against ``b``: its p-value passes above
    ``level``, which a NaN does not, and its detail is ``about`` and the statistic."""
    ks = diagnostics.ks_two_sample(a, b)
    return _Verdict(name, ks.p_value, level, f"{about}statistic {ks.statistic:.4f}", passed=ks.p_value > level)


def _largest(values) -> float:
    """The largest of ``values``, or NaN if any is NaN.  Builtin ``max`` and
    ``min`` keep or drop a NaN by where it stands, which lets broken code pass."""
    return float(np.max(values))


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


def _variance_gap(c: np.ndarray, t: float, base: TargetMeasure) -> tuple[float, float, float, float]:
    """``Var(c)``, its law's value ``t^2 Var(x) + t`` at tilt time ``t`` of a
    one-dimensional base, their distance, and four standard errors of ``Var(c)``."""
    var, expected = c.var(ddof=1), t**2 * float(base.cov[0, 0]) + t
    return var, expected, abs(var - expected), 4.0 * _var_se(c)


# Criteria 1, 3 and 4 compare constructions of the tilt law with the tilt process.


class _Construction(NamedTuple):
    """A construction of the tilt law.  ``ensemble(base, grid, snaps, seed,
    budget)`` gives its states, keyed by snapshot, on ``grid(budget)`` joined
    with the times ``snaps(budget)``; ``seeds`` index its subseed and its tilt
    ensemble's; ``to_tilt(s, x)`` maps states ``x`` at time ``s`` to tilt
    coordinates ``(t, c)``.  A row looks its driver up as it runs."""

    ensemble: Callable[..., dict[float, np.ndarray]]
    grid: Callable[[SuiteBudget], TimeGrid]
    snaps: Callable[[SuiteBudget], tuple[float, ...]]
    seeds: tuple[int, int]
    to_tilt: Callable[[float, np.ndarray], tuple[float, np.ndarray]]


_CONSTRUCTIONS = {
    # The exact channel c_t = t x + B_t, observed at the times of its grid.
    "channel": _Construction(
        lambda base, grid, snaps, seed, b: localize.channel_ensemble(base, grid.times, seed, b.paths),
        lambda b: TimeGrid([b.horizon]), lambda b: (b.horizon,), (2, 1), lambda t, c: (t, c),
    ),
    "backward": _Construction(
        lambda base, grid, snaps, seed, b: diffusion.backward_sde_ensemble(
            base, grid, seed, b.paths, snapshot_times=snaps, workers=b.workers),
        lambda b: TimeGrid.geometric(b.eps_clip, 1.0, 2500), lambda b: (0.5, 1.0), (5, 6),
        lambda u, x: diffusion._to_tilt(u, x),
    ),
    "flow": _Construction(
        lambda base, grid, snaps, seed, b: polchinski.polchinski_ensemble(
            base, grid, seed, b.paths, snapshot_times=snaps, workers=b.workers),
        lambda b: TimeGrid.uniform(0.0, b.tau, round(b.tau / b.dt)), lambda b: (b.tau,), (8, 9),
        lambda tau, v: polchinski._to_tilt(tau, v),
    ),
}


def _against_tilt(name: str, base: TargetMeasure, budget: SuiteBudget) -> list[tuple]:
    """Construction ``name`` and the tilt process on ``base``: per snapshot
    ``s``, ``(s, t, c, tilt)`` with ``(t, c)`` its tilt coordinates, first
    coordinate only, and ``tilt`` the tilt ensemble's at ``t``.  That ensemble
    takes ``round(t_end / dt)`` uniform steps to the last ``t``, joined with the rest."""
    row = _CONSTRUCTIONS[name]
    snaps = row.snaps(budget)
    seed, tilt_seed = (_subseed(budget.seed, k) for k in row.seeds)
    states = row.ensemble(base, row.grid(budget).including(*snaps), snaps, seed, budget)
    mapped = [(s, *row.to_tilt(s, states[s][:, 0])) for s in snaps]
    times = [t for _, t, _ in mapped]
    grid = TimeGrid.uniform(0.0, times[-1], round(times[-1] / budget.dt)).including(*times)
    tilt = localize.tilt_sde_ensemble(base, grid, tilt_seed, budget.paths, snapshot_times=times, workers=budget.workers)
    return [(s, t, c, tilt[t][:, 0]) for s, t, c in mapped]


# Criterion 1: the tilt SDE and the exact channel produce the same tilt law.


@_recorded
def check_tilt_vs_channel(budget: SuiteBudget, base: TargetMeasure | None = None) -> Iterator[_Verdict]:
    base = base if base is not None else std_gaussian()
    [(_, horizon, c_chan, c_tilt)] = _against_tilt("channel", base, budget)

    yield _ks_verdict("tilt-vs-channel/ks", c_tilt, c_chan, budget.level, "two-sample KS ")

    dmean = abs(c_tilt.mean() - c_chan.mean())
    mean_tol = 4.0 * math.hypot(_mean_se(c_tilt), _mean_se(c_chan))
    dvar = abs(c_tilt.var(ddof=1) - c_chan.var(ddof=1))
    var_tol = 4.0 * math.hypot(_var_se(c_tilt), _var_se(c_chan))
    yield _Verdict(
        "tilt-vs-channel/moments",
        _largest([dmean / mean_tol, dvar / var_tol]),
        1.0,
        f"|dmean|={dmean:.4g} (tol {mean_tol:.4g}), |dvar|={dvar:.4g} (tol {var_tol:.4g})",
        passed=dmean <= mean_tol and dvar <= var_tol,
    )

    var, expected, dev, tol = _variance_gap(c_tilt, horizon, base)
    yield _Verdict("tilt-vs-channel/terminal-variance", dev, tol, f"Var(c_T)={var:.4f}, channel value {expected:.4f}")


# Criterion 2: particle measure dynamics track the tilt mean and conserve mass.


@_recorded
def check_particles(budget: SuiteBudget, base: TargetMeasure | None = None) -> Iterator[_Verdict]:
    base = base if base is not None else std_gaussian()
    t_end = budget.tau
    grid = TimeGrid.uniform(0.0, t_end, round(t_end / budget.dt))

    tol = 5.0 / math.sqrt(budget.particles)
    devs = []
    for rep in range(5):
        noise = wiener_increments(grid, 1, _subseed(budget.seed, 3), rep)
        states = localize.tilt_sde_run(base, grid, noise)
        clouds = localize.particle_sl_run(base, budget.particles, grid, noise)
        devs.append(float(np.linalg.norm(clouds[-1].mean() - states[-1].m)))
    yield _Verdict("particles/mean-vs-tilt", _largest(devs), tol, f"max |particle mean - m_t| over 5 coupled runs at t={t_end}")

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
    yield _Verdict(
        "particles/box-martingale",
        dev,
        tol,
        f"mean weighted P(A)={box_est.mean():.4f} vs base quadrature {box_truth:.4f} over {n_runs} runs",
    )

    mass = np.exp(logm)
    dev = abs(float(mass.mean()) - 1.0)
    tol = 4.0 * _mean_se(mass)
    yield _Verdict("particles/mass-conservation", dev, tol, f"mean exp(log M_T)={mass.mean():.4f} over {n_runs} runs")


# Criterion 3: the rescaled backward diffusion reproduces the tilt process, and
# the posterior-mean score matches finite differences of the smoothed density.


def _closed_form_marginal_logpdf(base: TargetMeasure, s: float, v: float, y: np.ndarray) -> float:
    """Log-density of s x + N(0, v I) for x from a Gaussian or mixture base."""
    comps = [
        (float(w), s * mu, s * s * cov + v * np.eye(base.dim))
        for w, mu, cov in zip(base.weights, base.means, base.covs)
    ]
    pushed = GaussianMixture.from_components(comps)
    return float(pushed.log_density(y))


def _quadrature_marginal_logpdf(base: TargetMeasure, s: float, v: float, y: np.ndarray) -> float:
    """``_closed_form_marginal_logpdf`` of a one-dimensional base, by quadrature."""
    xs = np.linspace(-14.0, 14.0, 6001)
    dens = np.exp(targets.base_log_density(base, xs[:, None]))
    kernel = np.exp(-0.5 * (float(y[0]) - s * xs) ** 2 / v) / math.sqrt(2.0 * math.pi * v)
    return math.log(float(np.trapezoid(kernel * dens, xs)))


def tweedie_probe_residuals(seed: int) -> np.ndarray:
    """Relative disagreement between the posterior-mean score and central
    finite differences of the log marginal on 50 random (base, y) probes.

    The one-dimensional oracle integrates the smoothed density on a grid; in
    higher dimension it differentiates the closed-form convolved mixture.
    """
    rng = generator(seed, 0, 7)
    residuals = np.empty(50)
    for i in range(residuals.size):
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
        logpdf = _quadrature_marginal_logpdf if d == 1 else _closed_form_marginal_logpdf
        fd = np.empty(d)
        for k in range(d):
            h = 1e-4 * (1.0 + abs(y[k]))
            e = np.zeros(d)
            e[k] = h
            fd[k] = (logpdf(base, s, v, y + e) - logpdf(base, s, v, y - e)) / (2.0 * h)
        residuals[i] = float(
            np.linalg.norm(score - fd) / (1.0 + np.linalg.norm(fd))
        )
    return residuals


@_recorded
def check_backward_diffusion(budget: SuiteBudget, base: TargetMeasure | None = None) -> Iterator[_Verdict]:
    gauss = base if base is not None else std_gaussian()
    for label, b in (("gaussian", gauss), ("mixture", test_mixture())):
        pairs = _against_tilt("backward", b, budget)
        tests = [(u, diagnostics.ks_two_sample(scaled, c)) for u, _, scaled, c in pairs]
        worst_p = float(np.min([ks.p_value for _, ks in tests]))  # like _largest, keeps a NaN
        stats = "; ".join(f"u={u}: p={ks.p_value:.3f}" for u, ks in tests)
        yield _Verdict(f"backward-vs-tilt/ks-{label}", worst_p, budget.level, stats, passed=worst_p > budget.level)
        if label == "gaussian":
            gaps = [(u, *_variance_gap(c, t, b)) for u, t, c, _ in pairs]
            yield _Verdict(
                "backward-vs-tilt/rescaled-variance",
                _largest([dev / tol for *_, dev, tol in gaps]),
                1.0,
                "; ".join(f"u={u}: var={var:.4f} vs {expected:.4f}" for u, var, expected, *_ in gaps),
                passed=all(dev <= tol for *_, dev, tol in gaps),
            )

    residuals = tweedie_probe_residuals(_subseed(budget.seed, 7))
    yield _Verdict("tweedie/finite-difference", residuals.max(), 1e-3, f"max relative residual over {residuals.size} probes")


# Criterion 4: the renormalization flow matches the tilt process under the
# time change, and the smoothed potential solves its evolution equation.


def renorm_equation_residuals(base: TargetMeasure, seed: int) -> np.ndarray:
    """Finite-difference residual of d_tau V = -0.5 V'' + 0.5 (V')^2 at 20 random probes."""
    rng = generator(seed, 0, 9)
    out = np.empty(20)
    h_tau = 1e-5
    h_x = 1e-4
    for i in range(out.size):
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


@_recorded
def check_renormalization_flow(budget: SuiteBudget, base: TargetMeasure | None = None) -> Iterator[_Verdict]:
    gauss = base if base is not None else std_gaussian()
    for label, b in (("gaussian", gauss), ("mixture", test_mixture())):
        [(tau, t, scaled, c)] = _against_tilt("flow", b, budget)
        yield _ks_verdict(f"flow-vs-tilt/ks-{label}", scaled, c, budget.level, f"v_tau/(1-tau) at tau={tau} vs c_t at t={t}; ")

    residuals = renorm_equation_residuals(test_mixture(), _subseed(budget.seed, 10))
    yield _Verdict("flow/potential-equation", residuals.max(), 1e-3, f"max relative residual over {residuals.size} probes")


# Criterion 5: the quadratic drift energy of the optimal sampler equals the KL
# divergence from the base to the standard normal.


@_recorded
def check_girsanov_energy(budget: SuiteBudget) -> Iterator[_Verdict]:
    steps = round((1.0 - budget.eps_clip) / budget.dt)
    grid = TimeGrid.uniform(0.0, 1.0 - budget.eps_clip, steps)
    cases = [
        ("mean-shift", GaussianMeasure([2.0], [[1.0]]), 2.0),
        ("variance", GaussianMeasure([0.0], [[2.0]]), 0.5 * (1.0 - math.log(2.0))),
    ]
    for label, base, expected in cases:
        energy, se = bridge.girsanov_energy(
            bridge.FollmerDrift(base), grid, budget.paths,
            _subseed(budget.seed, 11), workers=budget.workers,
        )
        rel = abs(energy - expected) / expected
        yield _Verdict(f"girsanov/{label}", rel, 0.05, f"energy {energy:.5f} (se {se:.2g}) vs KL {expected:.5f}")


# Criterion 6: the static bridge and entropic transport objectives differ by a
# constant, and the scaling solver finds the exact optimum of a 2x2 instance.


@_recorded
def check_static_bridge(budget: SuiteBudget) -> Iterator[_Verdict]:
    rng = generator(_subseed(budget.seed, 12), 0, 11)

    spreads = []
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
        spreads.append(float(np.ptp(diffs)))
    yield _Verdict(
        "bridge/objective-shift",
        _largest(spreads),
        1e-10,
        "max spread of (transport - kl) over 20 feasible couplings per instance",
    )

    mu2 = bridge.DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    pi2 = bridge.DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
    ref2 = bridge.heat_kernel_reference(mu2, pi2)
    res2 = bridge.sinkhorn(mu2, pi2, ref2, tol=1e-12)
    # The KL objective is sum gamma log(gamma / K) with K = R, the transport one
    # with K = mu x pi exp(-|x - y|^2 / 2).
    sq = bridge.squared_distances(mu2, pi2)
    prod = np.outer(mu2.weights, pi2.weights)
    (p_kl, g_kl), (p_eot, g_eot) = (_coupling_2x2(k) for k in (ref2, prod * np.exp(-0.5 * sq)))
    ssb_exact = float(np.sum(g_kl * (np.log(g_kl) - np.log(ref2))))
    eot_exact = float(np.sum(g_eot * (0.5 * sq)) + np.sum(g_eot * (np.log(g_eot) - np.log(prod))))
    ssb_sink, eot_sink = bridge.objective_pair(res2.coupling, mu2, pi2, ref2)
    gap = abs(ssb_sink - ssb_exact)
    argmin_agree = abs(p_kl - p_eot) <= 1e-6
    sink_entry = float(res2.coupling.gamma[0, 0])
    argmin_close = abs(sink_entry - p_kl) <= 1e-5
    yield _Verdict(
        "bridge/brute-force-2x2",
        gap,
        1e-6,
        f"kl objective gap {gap:.2e}; exact argmins agree: {argmin_agree}; "
        f"solver entry {sink_entry:.6f} vs exact {p_kl:.6f}; "
        f"transport gap {abs(eot_sink - eot_exact):.2e}",
        passed=gap <= 1e-6 and argmin_agree and argmin_close,
    )

    mu3 = bridge.DiscreteMeasure(rng.standard_normal((4, 1)), _random_weights(rng, 4))
    pi3 = bridge.DiscreteMeasure(rng.standard_normal((6, 1)) + 1.0, _random_weights(rng, 6))
    ref3 = bridge.heat_kernel_reference(mu3, pi3)
    res3 = bridge.sinkhorn(mu3, pi3, ref3, tol=1e-10)
    sys_res = bridge.schrodinger_residual(res3, mu3, pi3, ref3)
    yield _Verdict(
        "bridge/system-residual",
        sys_res,
        1e-8,
        f"converged in {res3.iterations} iterations, marginal residual {res3.residual:.2e}",
        passed=res3.converged and sys_res <= 1e-8,
    )


def _coupling_2x2(k: np.ndarray) -> tuple[float, np.ndarray]:
    """``p`` and the coupling ``[[p, 1/2 - p], [1/2 - p, p]]`` that minimize
    ``sum gamma log(gamma / k)`` over the couplings of two uniform two-point
    marginals, which are of that form: the minimizer has
    ``p / (1/2 - p) = sqrt(k00 k11 / (k01 k10))``."""
    r = math.sqrt(k[0, 0] * k[1, 1] / (k[0, 1] * k[1, 0]))
    p = 0.5 * r / (1.0 + r)
    return p, np.array([[p, 0.5 - p], [0.5 - p, p]])


def _random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, n)
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return w


# Criteria 7 and 8: exact chain-law contraction and the kernel identity.


def _kl_ratios(kls: np.ndarray) -> list[float]:
    """Per-step KL ratios of a chain, over the steps whose KL is not negligible
    (a NaN KL is not)."""
    return [kls[k + 1] / kls[k] for k in range(len(kls) - 1) if not kls[k] <= 1e-10]


@_recorded
def check_contraction(budget: SuiteBudget) -> Iterator[_Verdict]:
    target = std_gaussian()

    _, kls = rgd.chain_law_propagate(GaussianMeasure([2.0], [[1.0]]), target, 1.0, 6)
    ratios = _kl_ratios(kls)
    dev = _largest([abs(r - 0.25) for r in ratios])
    yield _Verdict("contraction/mean-shift-equality", dev, 1e-12, f"per-step KL ratios {['%.15f' % r for r in ratios]}")

    ratios = []
    for s2 in (0.5, 2.0, 10.0):
        _, kls = rgd.chain_law_propagate(GaussianMeasure([0.0], [[s2]]), target, 1.0, 6)
        ratios += _kl_ratios(kls)
    yield _Verdict(
        "contraction/covariance-mismatch",
        _largest(ratios),
        0.25 + 1e-12,
        "per-step KL ratios for variance-mismatched Gaussian starts",
    )

    quartic = targets.quartic_potential(dim=1)
    details = []
    passed = True
    margins = []
    for i, eta in enumerate((0.5, 1.0)):
        ratio, se = rgd.heat_flow_contraction_mc(
            quartic, GaussianMeasure([2.0], [[1.0]]), eta,
            n_paths=min(4000, budget.paths), seed=_subseed(budget.seed, 13 + i),
        )
        bound = 1.0 / (1.0 + eta) ** 2
        passed = passed and ratio <= bound + 4.0 * se
        margins.append(ratio - bound)
        details.append(f"eta={eta}: ratio {ratio:.4f} (se {se:.4f}) vs bound {bound:.4f}")
    yield _Verdict("contraction/quartic-target", _largest(margins), 0.0, "; ".join(details), passed=passed)

    bound = rgd.lsi_lower_bound(1.0, 1.0)
    yield _Verdict(
        "contraction/lsi-bound-value",
        bound,
        0.5,
        "certified log-Sobolev constant at alpha = eta = 1",
        passed=bound == 0.5,
    )


@_recorded
def check_kernel_identity(budget: SuiteBudget) -> Iterator[_Verdict]:
    x0 = np.array([0.3])
    for label, target in (("gaussian", std_gaussian()), ("mixture", test_mixture())):
        cfg = rgd.RgdConfig(1.0, target)
        a = rgd.rgd_transition_batch(x0, cfg, budget.paths, generator(_subseed(budget.seed, 15), 0))
        b = rgd.channel_transition_batch(x0, cfg, budget.paths, generator(_subseed(budget.seed, 16), 0))
        yield _ks_verdict(
            f"kernel-identity/ks-{label}", a[:, 0], b[:, 0], budget.level,
            "direct two-stage vs channel-then-posterior; ",
        )


# Criterion 9: entropic stability sharp case and the control-matrix reduction.


@_recorded
def check_stability_and_reduction(budget: SuiteBudget) -> Iterator[_Verdict]:
    rng = generator(_subseed(budget.seed, 17), 0, 13)

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
    yield _Verdict(
        "stability/gaussian-sharp",
        eq_gap,
        1e-10 * scale,
        f"{int(report.passed.sum())}/100 probes pass at alpha=|Sigma|_op; "
        f"top-eigenvector gap {eq_gap:.2e}",
        passed=report.all_pass and eq_gap <= 1e-10 * scale,
    )

    base = GaussianMeasure(np.zeros(2), np.eye(2))
    grid = TimeGrid.uniform(0.0, 1.0, 100)
    noise = wiener_increments(grid, 2, _subseed(budget.seed, 18), 0)
    runs = (localize.tilt_sde_run(base, grid, noise), localize.anisotropic_run(base, grid, noise, np.eye(2)))
    iso, aniso = (np.array([np.concatenate([state.c, state.m]) for state in run]).tobytes() for run in runs)
    identical = iso == aniso
    yield _Verdict(
        "stability/identity-control-reduction",
        0.0 if identical else 1.0,
        0.0,
        "control-matrix run with C=I bitwise equals the isotropic run",
        passed=identical,
    )


# Criterion 10: constant-schedule identities.


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    return tuple(targets._readonly(a) for a in np.polynomial.legendre.leggauss(64))


def _integral(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """``int_lo^hi f`` by the 64-node Gauss-Legendre rule; ``f`` takes the nodes
    as one array."""
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    return half * float(np.sum(weights * f(0.5 * (lo + hi) + half * nodes)))


@_recorded
def check_lsi_schedules(budget: SuiteBudget) -> Iterator[_Verdict]:
    rng = generator(_subseed(budget.seed, 19), 0, 15)

    alphas = rng.uniform(0.05, 20.0, 100)
    dev = _largest(
        [abs(float(polchinski.lsi_schedule(a).gamma(1.0)) - a) / max(1.0, a) for a in alphas]
    )
    yield _Verdict("lsi/gamma-at-one", dev, 1e-12, "gamma(1) = alpha across 100 random alpha")

    devs = []
    for alpha in (0.5, 1.0, 2.0):
        schedule = polchinski.lsi_schedule(alpha)
        for tau in np.linspace(0.05, 0.95, 10):
            target = 1.0 - math.exp(-_integral(schedule.gamma, tau, 1.0))
            devs.append(abs(polchinski.stability_factor(alpha, tau) - target))
    yield _Verdict(
        "lsi/factor-integral-identity",
        _largest(devs),
        1e-6,
        "stability factor vs 1 - exp(-int gamma) by quadrature at 10 probes",
    )

    alpha = 1.7
    base = GaussianMeasure([0.0], [[1.0 / alpha]])
    devs = []
    for tau in (0.1, 0.25, 0.5, 0.75):
        t, _ = polchinski._to_tilt(tau)
        post = targets.posterior_moments(targets.tilt(base, [0.3], t))
        ratio = float(post.cov[0, 0]) * alpha
        devs.append(abs(ratio - polchinski.stability_factor(alpha, tau)))
    yield _Verdict(
        "lsi/gaussian-variance-equality",
        _largest(devs),
        1e-10,
        "linear-test-function variance ratio equals the stability factor",
    )


# The suites by name, as the CLI subcommands run them.


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
