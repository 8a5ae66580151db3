import math

import numpy as np
import pytest

from sloc import diffusion, localize, targets
from sloc.diagnostics import ks_two_sample
from sloc.diffusion import (
    BackwardState,
    NoisyChannelSpec,
    backward_sde_ensemble,
    backward_sde_run,
    ou_marginal_params,
    rescale_to_tilt,
    tweedie_score,
)
from sloc.sde import OU_TO_BACKWARD, TimeGrid, wiener_increments
from sloc.targets import GaussianMeasure, GaussianMixture, gaussian_potential, tilt

from oracles import gaussian_pdf, grid_1d, mixture_pdf


def std_normal():
    return GaussianMeasure([0.0], [[1.0]])


class TestOuMarginals:
    def test_start(self):
        assert ou_marginal_params(0.0) == (1.0, 0.0)

    def test_log_two(self):
        s, v = ou_marginal_params(math.log(2.0))
        assert s == pytest.approx(0.5, abs=1e-15)
        assert v == pytest.approx(0.75, abs=1e-15)

    def test_stationary_limit(self):
        s, v = ou_marginal_params(50.0)
        assert s == pytest.approx(0.0, abs=1e-20)
        assert v == pytest.approx(1.0, abs=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ou_marginal_params(-0.1)

    def test_spec_requires_positive_noise(self):
        with pytest.raises(ValueError):
            NoisyChannelSpec(1.0, 0.0)


def _quad_log_marginal(base_pdf, s, v, y):
    xs = grid_1d()
    kernel = np.exp(-0.5 * (y - s * xs) ** 2 / v) / math.sqrt(2.0 * math.pi * v)
    return math.log(float(np.trapezoid(kernel * base_pdf(xs), xs)))


class TestTweedie:
    def test_standard_normal_score(self):
        # Marginal of x + N(0,1) for x ~ N(0,1) is N(0,2): score at y=2 is -1.
        score = tweedie_score(std_normal(), NoisyChannelSpec(1.0, 1.0), [2.0])
        assert score[0] == pytest.approx(-1.0, abs=1e-12)
        # Finite differences of the quadrature log-marginal agree.
        h = 1e-4
        pdf = gaussian_pdf(0.0, 1.0)
        fd = (_quad_log_marginal(pdf, 1.0, 1.0, 2.0 + h) - _quad_log_marginal(pdf, 1.0, 1.0, 2.0 - h)) / (2 * h)
        assert score[0] == pytest.approx(fd, abs=1e-6)

    def test_score_vanishes_at_marginal_mean(self):
        base = GaussianMeasure([1.3], [[0.8]])
        spec = NoisyChannelSpec(0.6, 0.5)
        score = tweedie_score(base, spec, [0.6 * 1.3])
        assert score[0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_mixture_score_zero_at_origin(self):
        mix = GaussianMixture([0.5, 0.5], [[-3.0], [3.0]], [[[1.0]], [[1.0]]])
        score = tweedie_score(mix, NoisyChannelSpec(1.0, 1.0), [0.0])
        assert score[0] == pytest.approx(0.0, abs=1e-12)

    def test_mixture_score_matches_quadrature_fd(self):
        mix = GaussianMixture([0.6, 0.4], [[-1.0], [1.5]], [[[0.8]], [[1.2]]])
        pdf = mixture_pdf([0.6, 0.4], [-1.0, 1.5], [0.8, 1.2])
        s, v = 0.7, 0.9
        for y in (-1.2, 0.3, 2.0):
            score = tweedie_score(mix, NoisyChannelSpec(s, v), [y])[0]
            h = 1e-4
            fd = (_quad_log_marginal(pdf, s, v, y + h) - _quad_log_marginal(pdf, s, v, y - h)) / (2 * h)
            assert score == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_generic_base_uses_budget(self):
        pot = gaussian_potential(dim=1)
        score = tweedie_score(pot, NoisyChannelSpec(1.0, 1.0), [2.0], budget=40_000)
        assert score[0] == pytest.approx(-1.0, abs=0.02)


class TestBackwardSde:
    def test_grid_must_avoid_zero(self):
        grid = TimeGrid.uniform(0.0, 1.0, 10)
        noise = wiener_increments(grid, 1, 0, 0)
        with pytest.raises(ValueError, match="clip"):
            backward_sde_run(std_normal(), grid, noise)

    def test_initialization_is_standard_normal(self):
        grid = TimeGrid.geometric(1e-3, 1.0, 50)
        inits = backward_sde_ensemble(std_normal(), grid, seed=1, n_paths=3000,
                                      snapshot_times=(1e-3,))[1e-3][:, 0]
        assert abs(inits.mean()) <= 4.0 / math.sqrt(inits.size)
        assert abs(inits.var() - 1.0) <= 4.0 * math.sqrt(2.0 / inits.size)

    def test_standard_normal_is_invariant(self):
        # Every backward marginal of the standard normal base is N(0, 1);
        # terminal samples at u_max = 100 pass KS against the exact sampler.
        grid = TimeGrid.geometric(1e-3, 100.0, 3000)
        terminal = backward_sde_ensemble(std_normal(), grid, seed=2, n_paths=10_000)[100.0][:, 0]
        exact = np.random.default_rng(3).standard_normal(10_000)
        assert ks_two_sample(terminal, exact).p_value > 0.01

    def test_shifted_base_terminal_mean(self):
        theta = 2.0
        base = GaussianMeasure([theta], [[1.0]])
        grid = TimeGrid.geometric(1e-3, 100.0, 3000)
        terminal = backward_sde_ensemble(base, grid, seed=4, n_paths=10_000)[100.0][:, 0]
        se = terminal.std() / math.sqrt(terminal.size)
        assert abs(terminal.mean() - theta) <= 4.0 * se + 0.03

    def test_generic_base_smoke(self):
        pot = gaussian_potential(dim=1)
        grid = TimeGrid.geometric(0.05, 1.0, 30)
        noise = wiener_increments(grid, 1, 30, 0)
        states = backward_sde_run(pot, grid, noise, budget=2000, rng=np.random.default_rng(31))
        assert np.isfinite(states[-1].x).all()

    def test_per_path_matches_ensemble(self):
        grid = TimeGrid.geometric(1e-3, 1.0, 100)
        snaps = backward_sde_ensemble(std_normal(), grid, seed=5, n_paths=2)
        for stream in range(2):
            noise = wiener_increments(grid, 1, 5, stream)
            states = backward_sde_run(std_normal(), grid, noise)
            assert states[-1].x[0] == pytest.approx(snaps[1.0][stream, 0], abs=1e-12)


class TestExactBackwardTilt:
    """Both backward drivers tilt by ``(sqrt(u (u + 1)) x, u)`` exactly, with
    no round trip through OU time (which was off by 8.9e-5 at u = 1e12)."""

    U = 1e12

    def test_single_path(self, monkeypatch):
        seen = []

        def spy(base, c, reg):
            seen.append((np.array(c, dtype=float), reg))
            return tilt(base, c, reg)

        monkeypatch.setattr(diffusion, "tilt", spy)
        grid = TimeGrid([self.U, 2.0 * self.U])
        states = backward_sde_run(std_normal(), grid, wiener_increments(grid, 1, 9, 0))
        c, reg = seen[0]
        assert reg == self.U
        exact = math.sqrt(self.U * (self.U + 1.0)) * states[0].x
        assert np.abs(c - exact).max() <= 1e-15 * np.abs(exact).max()

    def test_ensemble(self, monkeypatch):
        seen = []
        original = targets.posterior_mean_batch

        def spy(base, tilts, t):
            seen.append((np.array(tilts), t.reg))
            return original(base, tilts, t)

        monkeypatch.setattr(targets, "posterior_mean_batch", spy)
        grid = TimeGrid([self.U, 2.0 * self.U])
        start = backward_sde_ensemble(std_normal(), grid, seed=9, n_paths=3, snapshot_times=(self.U,))[self.U]
        c, reg = seen[0]
        assert reg == self.U
        exact = math.sqrt(self.U * (self.U + 1.0)) * start
        assert np.abs(c - exact).max() <= 1e-15 * np.abs(exact).max()


class TestRescale:
    def test_pure_arithmetic(self):
        t, c = rescale_to_tilt(BackwardState(1.0, [1.0, 0.0]))
        assert t == 1.0
        assert c[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert c[1] == 0.0

    def test_small_u_sends_tilt_to_zero(self):
        _, c = rescale_to_tilt(BackwardState(1e-12, [5.0]))
        assert abs(c[0]) < 1e-5

    def test_rescaled_variance_matches_channel(self):
        # For the standard normal base the backward marginal is N(0,1), so the
        # rescaled tilt has variance u(u+1); checked at u in {0.5, 1, 2}.
        grid = TimeGrid.geometric(1e-3, 2.0, 1500).including(0.5, 1.0)
        snaps = backward_sde_ensemble(std_normal(), grid, seed=6, n_paths=4000,
                                      snapshot_times=(0.5, 1.0, 2.0))
        for u in (0.5, 1.0, 2.0):
            scaled = math.sqrt(u * (u + 1.0)) * snaps[u][:, 0]
            var = scaled.var(ddof=1)
            se = math.sqrt((np.mean((scaled - scaled.mean()) ** 4) - var**2) / scaled.size)
            assert abs(var - u * (u + 1.0)) <= 4.0 * se + 0.02

    def test_rescaled_law_matches_tilt_run(self):
        u = 0.5
        grid = TimeGrid.geometric(1e-3, 0.5, 800)
        back = backward_sde_ensemble(std_normal(), grid, seed=7, n_paths=3000)[0.5][:, 0]
        scaled = math.sqrt(u * (u + 1.0)) * back
        tgrid = TimeGrid.uniform(0.0, 0.5, 500)
        c = localize.tilt_sde_ensemble(std_normal(), tgrid, seed=8, n_paths=3000)[0.5][:, 0]
        assert ks_two_sample(scaled, c).p_value > 0.01


class TestTimeChangeAlgebra:
    def test_round_trip_and_derivative(self):
        us = np.linspace(0.05, 5.0, 21)
        assert np.abs(OU_TO_BACKWARD.forward(OU_TO_BACKWARD.inverse(us)) - us).max() <= 1e-10
        h = 1e-6
        fd = (OU_TO_BACKWARD.inverse(us + h) - OU_TO_BACKWARD.inverse(us - h)) / (2 * h)
        assert np.abs(np.abs(fd) - 1.0 / (2.0 * us * (us + 1.0))).max() <= 1e-6

    def test_marginal_params_consistent_with_time_change(self):
        # At backward time u the signal scale is sqrt(u/(u+1)) and the noise
        # variance 1/(u+1); the induced tilt is (sqrt(u(u+1)) y, u).
        for u in (0.2, 1.0, 3.0):
            t = float(OU_TO_BACKWARD.inverse(u))
            s, v = ou_marginal_params(t)
            assert s == pytest.approx(math.sqrt(u / (u + 1.0)), abs=1e-12)
            assert v == pytest.approx(1.0 / (u + 1.0), abs=1e-12)
            assert s * s / v == pytest.approx(u, abs=1e-10)
