import math

import numpy as np
import pytest
from scipy.integrate import quad

from sloc import localize, polchinski, targets
from sloc.diagnostics import ks_two_sample
from sloc.polchinski import (
    LsiSchedule,
    fluctuation_measure,
    lsi_schedule,
    polchinski_ensemble,
    polchinski_run,
    renorm_potential,
    stability_factor,
)
from sloc.sde import TimeGrid, wiener_increment_array, wiener_increments
from sloc.targets import (
    GaussianMeasure,
    GaussianMixture,
    gaussian_potential,
    posterior_moments,
    sample,
    tilt,
)

from oracles import entropy_plugin, grid_1d, mixture_pdf


def std_normal(d=1):
    return GaussianMeasure(np.zeros(d), np.eye(d))


def two_mixture():
    return GaussianMixture([0.6, 0.4], [[-1.0], [1.5]], [[[0.8]], [[1.2]]])


class TestRenormPotential:
    def test_standard_normal_potential_is_constant(self):
        base = std_normal(2)
        vals = []
        for tau in (0.0, 0.3, 0.7):
            for x in ([0.0, 0.0], [1.0, -2.0], [3.0, 0.5]):
                v, g = renorm_potential(base, tau, x)
                vals.append(v)
                assert np.allclose(g, 0.0, atol=1e-10)
        assert np.ptp(vals) <= 1e-10
        assert vals[0] == pytest.approx(math.log(2.0 * math.pi), abs=1e-12)

    def test_shifted_base_is_linear(self):
        # V_tau(x) = -theta x + theta^2 tau / 2 + log(2 pi)/2 for base N(theta, 1).
        theta = 2.0
        base = GaussianMeasure([theta], [[1.0]])
        for tau in (0.0, 0.25, 0.6):
            v0, g0 = renorm_potential(base, tau, [0.0])
            v1, g1 = renorm_potential(base, tau, [1.0])
            assert g0[0] == pytest.approx(-theta, abs=1e-10)
            assert g1[0] == pytest.approx(-theta, abs=1e-10)
            assert v1 - v0 == pytest.approx(-theta, abs=1e-10)
            expected = 0.5 * theta**2 * tau + 0.5 * math.log(2.0 * math.pi)
            assert v0 == pytest.approx(expected, abs=1e-10)

    def test_value_against_quadrature(self):
        # Direct quadrature of exp(-V1(x+z)) against the Gaussian smoothing law.
        base = two_mixture()
        pdf = mixture_pdf([0.6, 0.4], [-1.0, 1.5], [0.8, 1.2])
        xs = grid_1d(14.0, 60001)
        for tau, x in ((0.2, 0.4), (0.5, -1.1)):
            width = 1.0 - tau
            integrand = (
                pdf(xs)
                * np.exp(0.5 * xs**2)
                * np.exp(-0.5 * (xs - x) ** 2 / width)
                / math.sqrt(2.0 * math.pi * width)
            )
            expected = -math.log(float(np.trapezoid(integrand, xs)))
            got, _ = renorm_potential(base, tau, [x])
            assert got == pytest.approx(expected, abs=1e-8)

    def test_gradient_identity_matches_finite_differences(self):
        base = two_mixture()
        for tau, x in ((0.1, 0.3), (0.5, -0.7), (0.8, 1.2)):
            _, grad = renorm_potential(base, tau, [x])
            h = 1e-4
            hi, _ = renorm_potential(base, tau, [x + h])
            lo, _ = renorm_potential(base, tau, [x - h])
            fd = (hi - lo) / (2.0 * h)
            assert grad[0] == pytest.approx(fd, rel=1e-8, abs=1e-8)

    def test_generic_monte_carlo_matches_closed_form(self):
        pot = gaussian_potential(dim=1, mean=1.5, precision=1.0)
        closed = GaussianMeasure([1.5], [[1.0]])
        rng = np.random.default_rng(0)
        v_mc, g_mc = renorm_potential(pot, 0.4, [0.2], budget=200_000, rng=rng)
        v_cf, g_cf = renorm_potential(closed, 0.4, [0.2])
        # The generic route misses the base's log-normalizer, a tau-free shift.
        shift = 0.5 * math.log(2.0 * math.pi)
        assert v_mc == pytest.approx(v_cf - shift, abs=0.01)
        assert g_mc[0] == pytest.approx(g_cf[0], abs=0.01)

    def test_tau_domain(self):
        with pytest.raises(ValueError):
            renorm_potential(std_normal(), 1.0, [0.0])
        with pytest.raises(ValueError):
            renorm_potential(std_normal(), 1.2, [0.0])


class TestFluctuationMeasure:
    def test_tau_zero_is_base(self):
        m = fluctuation_measure(two_mixture(), 0.0, [0.0])
        assert m.reg == 0.0
        assert np.allclose(m.c, 0.0)

    def test_map_arithmetic(self):
        m = fluctuation_measure(std_normal(), 0.5, [0.7])
        assert m.c[0] == pytest.approx(1.4, abs=1e-15)
        assert m.reg == pytest.approx(1.0, abs=1e-15)

    def test_time_change_maps_scalars_and_grids(self):
        # t = tau / (1 - tau) and c = v / (1 - tau), exact at these points.
        assert polchinski._to_tilt(0.5, 0.7) == (1.0, 1.4)
        t, c = polchinski._to_tilt(np.array([0.0, 0.5, 0.75]))
        assert t.tolist() == [0.0, 1.0, 3.0] and c.tolist() == [0.0, 0.0, 0.0]

    def test_gaussian_variance_independent_of_state(self):
        alpha = 2.0
        base = GaussianMeasure([0.0], [[1.0 / alpha]])
        tau = 0.6
        t = tau / (1.0 - tau)
        for v in (-1.0, 0.0, 2.5):
            mom = posterior_moments(fluctuation_measure(base, tau, [v]))
            assert mom.cov[0, 0] == pytest.approx(1.0 / (alpha + t), abs=1e-12)


class TestFlowSde:
    def test_standard_normal_flow_is_driving_noise(self):
        # The drift vanishes identically for the standard normal base, so the
        # flow equals the Wiener path exactly.
        grid = TimeGrid.uniform(0.0, 0.5, 200)
        noise = wiener_increments(grid, 1, seed=1, stream_id=0)
        path = polchinski_run(std_normal(), grid, noise)
        assert np.abs(path.states - noise.states).max() <= 1e-12

    def test_shifted_base_mean_solves_ode(self):
        # v' = -(v - m_tau)/(1-tau) in expectation; for N(theta, 1) the drift
        # is the constant theta, so E[v_tau] = theta * tau.
        theta = 1.5
        base = GaussianMeasure([theta], [[1.0]])
        grid = TimeGrid.uniform(0.0, 0.5, 500)
        snaps = polchinski_ensemble(base, grid, seed=2, n_paths=4000, snapshot_times=(0.25, 0.5))
        for tau in (0.25, 0.5):
            v = snaps[tau][:, 0]
            se = v.std() / math.sqrt(v.size)
            assert abs(v.mean() - theta * tau) <= 4.0 * se + 1e-3

    def test_time_change_identification(self):
        tau = 0.5
        t = tau / (1.0 - tau)
        for base in (std_normal(), two_mixture()):
            grid = TimeGrid.uniform(0.0, tau, 500)
            v = polchinski_ensemble(base, grid, seed=3, n_paths=3000)[tau][:, 0]
            tgrid = TimeGrid.uniform(0.0, t, 1000)
            c = localize.tilt_sde_ensemble(base, tgrid, seed=4, n_paths=3000)[t][:, 0]
            assert ks_two_sample(v / (1.0 - tau), c).p_value > 0.01

    def test_grid_validation(self):
        grid = TimeGrid.uniform(0.0, 1.0, 10)
        noise = wiener_increments(grid, 1, 0, 0)
        with pytest.raises(ValueError, match="below"):
            polchinski_run(std_normal(), grid, noise)


class TestSchedules:
    def test_alpha_one_degenerates(self):
        s = lsi_schedule(1.0)
        taus = np.linspace(0.1, 0.9, 5)
        assert np.allclose(s.lam(taus), 0.0)
        assert np.allclose(s.big_lam(taus), 0.0)
        assert np.allclose(s.gamma(taus), 1.0 / taus)

    def test_gamma_at_one_is_alpha(self):
        for alpha in (0.1, 0.5, 1.0, 2.7, 15.0):
            assert float(lsi_schedule(alpha).gamma(1.0)) == pytest.approx(alpha, rel=1e-14)

    def test_point_values(self):
        s = lsi_schedule(2.0)
        assert float(s.big_lam(0.5)) == pytest.approx(math.log(1.5), abs=1e-15)
        assert 1.0 / float(s.gamma(0.5)) == pytest.approx(0.375, abs=1e-15)

    def test_big_lam_is_tail_integral_of_lam(self):
        for alpha in (0.5, 2.0):
            s = lsi_schedule(alpha)
            for tau in np.linspace(0.05, 0.95, 10):
                integral, _ = quad(lambda sig: float(s.lam(sig)), tau, 1.0)
                assert float(s.big_lam(tau)) == pytest.approx(integral, abs=1e-6)

    def test_stability_factor_trivials(self):
        assert stability_factor(3.0, 0.0) == 1.0
        assert stability_factor(1.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_stability_factor_integral_identity(self):
        for alpha in (0.5, 1.0, 3.0):
            s = lsi_schedule(alpha)
            for tau in np.linspace(0.05, 0.95, 10):
                integral, _ = quad(lambda sig: float(s.gamma(sig)), tau, 1.0)
                assert stability_factor(alpha, tau) == pytest.approx(
                    1.0 - math.exp(-integral), abs=1e-6
                )

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            lsi_schedule(0.0)
        with pytest.raises(ValueError):
            stability_factor(1.0, 1.0)


class TestStabilityBounds:
    def test_gaussian_variance_equality(self):
        # For base N(0, 1/alpha) and a linear test function, the conserved
        # variance fraction equals the stability factor exactly.
        alpha = 1.7
        base = GaussianMeasure([0.0], [[1.0 / alpha]])
        for tau in (0.1, 0.4, 0.8):
            t = tau / (1.0 - tau)
            post_var = posterior_moments(tilt(base, [0.3], t)).cov[0, 0]
            assert post_var * alpha == pytest.approx(stability_factor(alpha, tau), abs=1e-10)

    def test_mixture_entropy_stability_one_sided(self):
        # Base: symmetric mixture of N(+-0.5, 1), certified log-curvature
        # 1 - 0.5^2 = 0.75.  Monte Carlo estimate of the conserved entropy must
        # not fall more than 4 stderr below factor * Ent.
        a = 0.5
        alpha_eff = 1.0 - a * a
        base = GaussianMixture([0.5, 0.5], [[-a], [a]], [[[1.0]], [[1.0]]])
        pdf = mixture_pdf([0.5, 0.5], [-a, a], [1.0, 1.0])

        def log_f(x):
            x = np.asarray(x)[..., 0]
            inside = np.abs(x) < 3.0
            val = np.where(inside, (1.0 - (x / 3.0) ** 2) ** 2, 1e-300)
            return np.log(val)

        xs = grid_1d(8.0, 20001)
        f_vals = np.exp(log_f(xs[:, None]))
        dens = pdf(xs)
        ef = float(np.trapezoid(f_vals * dens, xs))
        eflogf = float(np.trapezoid(f_vals * np.log(np.maximum(f_vals, 1e-300)) * dens, xs))
        ent_base = eflogf - ef * math.log(ef)

        rng = np.random.default_rng(6)
        for tau in (0.25, 0.5):
            t = tau / (1.0 - tau)
            ents = np.empty(200)
            errs = np.empty(200)
            for i in range(200):
                x = targets.sample_base(base, 1, rng)[0]
                b_t = t * x + math.sqrt(t) * rng.standard_normal(1)
                v = (1.0 - tau) * b_t
                measure = fluctuation_measure(base, tau, v)
                draws = sample(measure, 2000, rng)
                ents[i], errs[i] = entropy_plugin(draws, log_f)
            estimate = float(ents.mean())
            stderr = math.sqrt(ents.var(ddof=1) / ents.size + float(np.mean(errs**2)) / ents.size)
            bound = stability_factor(alpha_eff, tau) * ent_base
            assert estimate >= bound - 4.0 * stderr

    def test_polchinski_equation_residual(self):
        from sloc.suites import renorm_equation_residuals

        residuals = renorm_equation_residuals(two_mixture(), seed=11)
        assert residuals.max() <= 1e-3


class TestTabulatedStep:
    """The flow step reads its coefficients from a table built once per run,
    ``v' = a v + g (b m + dw)`` at tilt ``s v``; it is the textbook Euler
    recursion of the flow SDE up to rounding: within ``RTOL`` in
    ``|got - want| / (1 + |want|)`` after 500 steps."""

    GRID = TimeGrid.uniform(0.0, 0.5, 500)
    RTOL = 1e-13

    @pytest.mark.parametrize("base", [GaussianMeasure([2.0], [[1.0]]), two_mixture()], ids=["gaussian", "mixture"])
    def test_matches_the_textbook_euler_recursion(self, base):
        grid, seed, n = self.GRID, 29, 64
        snaps = polchinski_ensemble(base, grid, seed, n, snapshot_times=(0.25,))
        dw = np.stack([wiener_increment_array(grid, 1, seed, s) for s in range(n)])
        plan = targets.tilt_plan(base, polchinski._to_tilt(grid.times[:-1])[0])
        v, want = np.zeros((n, 1)), {}
        for k, (tau, dt) in enumerate(zip(grid.times[:-1].tolist(), grid.dts.tolist())):
            one_m = 1.0 - tau
            m = targets.posterior_mean_batch(base, v / one_m, plan(k))
            v = v + (m - v) / one_m * dt + dw[:, k]
            if k + 1 == grid.index_of(0.25):
                want[0.25] = v
        want[0.5] = v
        for tau, ref in want.items():
            assert np.max(np.abs(snaps[tau] - ref) / (1.0 + np.abs(ref))) <= self.RTOL

    def test_the_tilt_column_is_the_time_change(self, monkeypatch):
        seen = []
        original = targets.posterior_mean_batch

        def spy(base, tilts, t):
            seen.append((np.array(tilts), t.reg))
            return original(base, tilts, t)

        monkeypatch.setattr(targets, "posterior_mean_batch", spy)
        grid = TimeGrid.uniform(0.0, 0.5, 40)
        path = polchinski_run(two_mixture(), grid, wiener_increments(grid, 1, 4, 0))
        t, s = polchinski._to_tilt(grid.times[:-1], 1.0)
        assert len(seen) == grid.steps
        for k, (c, reg) in enumerate(seen):
            assert reg == t[k]
            assert np.array_equal(c, s[k] * path.states[k][None])
